"""The library's probabilities against the benchmark's independent oracle.

``seqbench/oracle.py`` holds every map as its d² x d² superoperator and reads
probabilities off it, with none of the library's Kraus bookkeeping. It is loaded
in place, from its path, so the benchmark and these tests share one oracle.
Both sides are built from the same seeded raw matrices: the library's objects
through the public constructors, the oracle's views straight from the matrices.
Every value is compared keyed by outcome label, within the oracle's MATCH_TOL.
"""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from seqmeas import instruments, observables
from seqmeas.effects import Effect, State
from seqmeas.instruments import Instrument
from seqmeas.observables import Observable
from seqmeas.operations import Operation

_SPEC = importlib.util.spec_from_file_location(
    "seqbench_oracle", Path(__file__).resolve().parents[1] / "seqbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

# Labels out of sorted order, so a value filed under the wrong label shows.
LABELS = ("c", "a", "b")


def _ginibre(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _inv_root(m):
    values, vectors = np.linalg.eigh(m)
    return (vectors / np.sqrt(values)) @ vectors.conj().T


def _case(dim, seed):
    """A state, a POVM and two instruments (families of 1 or 2 Kraus operators per
    outcome, three outcomes each) as raw matrices, normalized with ``eigh``."""
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    gs = _ginibre(rng, len(LABELS), dim, dim)
    inv = _inv_root(sum(x @ x.conj().T for x in gs))
    povm = [inv @ x @ x.conj().T @ inv for x in gs]
    insts = []
    for _ in range(2):
        fams = [_ginibre(rng, int(rng.integers(1, 3)), dim, dim) for _ in LABELS]
        inv = _inv_root(sum(k.conj().T @ k for fam in fams for k in fam))
        insts.append([fam @ inv for fam in fams])
    return rho, povm, insts


def _clamped(x):
    return min(1.0, max(0.0, x))


def _assert_keyed(got: dict, want: dict):
    assert list(got) == list(want)
    for x in want:
        assert abs(got[x] - want[x]) <= oracle.MATCH_TOL, (x, got[x], want[x])


@pytest.mark.parametrize("dim", range(2, 9))
def test_probabilities_match_the_oracle_by_label(dim):
    for seed in range(3):
        rho, povm, insts = _case(dim, 100 * dim + seed)
        state = State((rho + rho.conj().T) / 2)
        obs = Observable(LABELS, [Effect((e + e.conj().T) / 2) for e in povm])
        inst, given = (Instrument(LABELS, [Operation(fam) for fam in fams]) for fams in insts)
        supers, given_supers = ({x: oracle.superop_kraus(fam) for x, fam in zip(LABELS, fams)}
                                for fams in insts)
        obs_want = {x: oracle.prob(rho, e) for x, e in zip(LABELS, povm)}
        inst_want = {x: _clamped(oracle.trace_out(s, rho)) for x, s in supers.items()}
        _assert_keyed(observables.distribution(obs, state), obs_want)
        _assert_keyed(instruments.distribution(inst, state), inst_want)
        for size in (1, 2, 3):
            for event in itertools.combinations(LABELS, size):
                for measure, want in ((obs, obs_want), (inst, inst_want)):
                    got = observables.event_prob(measure, state, event)
                    assert abs(got - _clamped(sum(want[x] for x in event))) <= oracle.MATCH_TOL
        for (x, s_x), (y, s_y) in itertools.product(given_supers.items(), supers.items()):
            want = _clamped(oracle.trace_out(s_y @ s_x, rho) / oracle.trace_out(s_x, rho))
            got = instruments.cond_prob(state, inst.operation(y), given.operation(x))
            assert abs(got - want) <= oracle.MATCH_TOL, (x, y, got, want)

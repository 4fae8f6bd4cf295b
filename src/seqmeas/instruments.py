"""Instruments: finite operation-valued measures summing to a channel.

An instrument attaches an operation to every outcome; the sum (``bar``) must be a
channel. It measures one observable (the hats of its members), which many
instruments measure: trivial, semi-trivial, Lueders, Kraus, sharp. ``Instrument``
is the operation-valued labeled measure of ``observables.py``, which owns
validation, parts, equality, the distribution, the witness check and the one
product and conditioning path. An observable taken first runs its Lueders
instrument L(a): A o I = L(a) o I and (I | A) = (I | L(a)) are the Lueders case
of the instrument product and conditioning (A o B and (B | A) likewise).

``kraus_instrument`` and ``sharp_instrument`` read their caller's matrices;
every other member, and ``bar``, is built unread from validated objects
(``operations._operations``, ``_composed``, ``_built``). The library calls a
public door that reads its input only where the input is a caller's or the
reading is the point: ``operations.apply`` on a caller's state (a member's
probability, the front of ``cond_prob``, whose numerator is read off the
induced effect), and ``sharp_instrument`` on the rank-one projections of
``atomic_instrument``, since its stack reader is what rejects a ragged, empty
or mixed-dim list of vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, operations as op_mod
from .effects import COND_FLOOR, State, _check_type, _ket_bra, _probability
from .errors import ConditioningOnNull, DimensionError, NotChannel, NotMeasure, NotOperation
from .errors import NotState
from .observables import OBS_SUM_TOL, Observable, _conditioned, _labeled, _Measure, _product
from .observables import _sequence, distribution, obs_equal as inst_equal, obs_part as inst_part
from .observables import verify_coexistence_witness as verify_inst_coexistence_witness
from .operations import Operation

INST_SUM_TOL = OBS_SUM_TOL


@dataclass(frozen=True, eq=False)
class Instrument(_Measure):
    """Ordered outcome labels with one operation per outcome, summing to a channel."""

    outcomes: tuple[str, ...]
    ops: tuple[Operation, ...]

    _field = "ops"
    _type = (Operation, NotOperation)
    _sum_error = NotChannel
    _effect = staticmethod(lambda o: o.induced)
    _prob = staticmethod(lambda rho, o: _probability(np.trace(op_mod.apply(o, rho)).real))
    _distance = staticmethod(lambda i, j: op_mod.action_distance(i, j))
    _merges = staticmethod(lambda groups: op_mod._operations(map(op_mod._summed_kraus, groups)))
    _after = staticmethod(lambda channel, o: op_mod.compose(channel, o))
    _afters = staticmethod(lambda pairs: op_mod._composed([(u, o.kraus) for u, o in pairs]))
    _front = property(lambda self: tuple(o.kraus for o in self.ops))

    operation = _Measure._member


def bar(i: Instrument) -> Operation:
    """The total channel: concatenation of all member Kraus families."""
    _check_type(i, Instrument, NotMeasure)
    return i._channel


def measured_observable(i: Instrument) -> Observable:
    """The unique observable the instrument measures (hats of the members)."""
    _check_type(i, Instrument, NotMeasure)
    return Observable(i.outcomes, tuple(op_mod.hat(o) for o in i.ops))


def luders_instrument(a: Observable) -> Instrument:
    """Lueders instrument of an observable: outcome x applies a_x^{1/2} . a_x^{1/2}."""
    _check_type(a, Observable, NotMeasure)
    return Instrument(a.outcomes, op_mod._operations(*zip(*map(op_mod._luders_parts, a.effects))))


def trivial_instrument(a: Observable, alpha: State) -> Instrument:
    """Every outcome prepares the same state: I_x(rho) = tr(rho a_x) alpha."""
    _check_type(a, Observable, NotMeasure)
    return semi_trivial_instrument(a, [alpha] * len(a.outcomes))


def semi_trivial_instrument(a: Observable, states) -> Instrument:
    """Outcome-dependent preparations: I_x(rho) = tr(rho a_x) alpha_x, for one state
    per outcome from any iterable; member x is ``trivial(a_x, alpha_x)``, all built
    as one stack."""
    _check_type(a, Observable, NotMeasure)
    states = _sequence(states, "states")
    if len(states) != len(a.outcomes):
        raise DimensionError("need one state per outcome")
    families, recipes = zip(*map(op_mod._trivial_parts, a.effects, states))
    return Instrument(a.outcomes, op_mod._operations(families, recipes))


def kraus_instrument(mats: list[np.ndarray], outcomes: tuple[str, ...] | None = None) -> Instrument:
    """One Kraus operator per outcome; the family must be trace-preserving."""
    return _instrument([matcore.as_square(m)[None] for m in _sequence(mats, "matrices")], outcomes)


def sharp_instrument(families: list[list[np.ndarray]],
                     outcomes: tuple[str, ...] | None = None) -> Instrument:
    """Projection-valued Kraus families; the full family must sum to I, which forces
    the projections to be mutually orthogonal. ``Instrument`` checks that sum."""
    return _instrument([op_mod._projection_list(family) for family in families], outcomes)


def _instrument(families, outcomes: tuple[str, ...] | None) -> Instrument:
    """The instrument with one member per Kraus family, the members built as one
    stack; the outcomes default to x0, x1, ..."""
    members = op_mod._operations(families)
    default = tuple(f"x{k}" for k in range(len(members)))
    return Instrument(default if outcomes is None else outcomes, members)


def atomic_instrument(vector_families: list[list[np.ndarray]],
                      outcomes: tuple[str, ...] | None = None) -> Instrument:
    """Sharp instrument built from rank-one projections onto the given vectors."""
    return sharp_instrument([[_ket_bra(v) for v in fam] for fam in vector_families],
                            outcomes)


def identity_instrument(dim: int, outcome: str = "x") -> Instrument:
    return Instrument((outcome,), (op_mod.identity_channel(dim),))


def inst_seq_product(i: Instrument, j: Instrument) -> Instrument:
    """Product instrument: run i, then j, outcome set the cartesian product."""
    return _product(i, j)


def inst_conditioned(j: Instrument, given: Instrument) -> Instrument:
    """The instrument j conditioned by i: outcome y applies J_y after the bar channel."""
    return _conditioned(j, given)


def obs_then_inst(a: Observable, i: Instrument) -> Instrument:
    """Mixed product A o I = L(a) o I: Lueders-measure a_x, then run I_y."""
    return _product(a, i)


def inst_then_obs(i: Instrument, a: Observable) -> Observable:
    """Mixed product I o A: the observable with effects I_x o a_y."""
    return _product(i, a)


def inst_conditioned_on_obs(i: Instrument, given: Observable) -> Instrument:
    """(I | A) = (I | L(a)): outcome y applies I_y after the Lueders channel of A."""
    return _conditioned(i, given)


def obs_conditioned_on_inst(a: Observable, given: Instrument) -> Observable:
    """(A | I): the observable with effects Ibar o a_y."""
    return _conditioned(a, given)


def cond_prob(rho: State, j_member: Operation, given: Operation) -> float:
    """P_rho(J | I) = tr[J(I(rho))] / tr[I(rho)], clamped into [0, 1]. The numerator
    is read off the effect J induces, tr[I(rho) Ĵ] (thm 1.1), so I(rho), which
    the library computed, is not applied to again: ``apply`` runs once, on the
    caller's state."""
    _check_type(rho, State, NotState)
    front = op_mod.apply(given, rho)
    denom = float(np.trace(front).real)
    if denom <= COND_FLOOR:
        raise ConditioningOnNull(f"tr[I(rho)] = {denom!r}")
    op_mod._check_operations(j_member)
    matcore._check_same_operand_dim(j_member, given)
    return _probability(np.trace(front @ j_member.induced.op).real / denom)


def _instruments(families: list[list[np.ndarray]]) -> tuple[Instrument, ...]:
    """Instruments with outcomes x0, x1, ..., one member per Kraus family of each
    ``families[k]``; all members are built as one stack."""
    return _labeled(Instrument, op_mod._operations([f for fams in families for f in fams]),
                    [len(fams) for fams in families])


def random_instruments(dim: int, rng: np.random.Generator, n: int,
                       n_outcomes=None) -> tuple[Instrument, ...]:
    """n random instruments, as n ``random_instrument`` calls would draw them, their
    normalizers from one stacked solve and their members built as one stack.
    ``n_outcomes`` is one count for all, a sequence of n counts, or None."""
    draws, inv_roots = matcore._normalizing_draws(
        lambda k: [matcore._ginibres(dim, rng, int(rng.integers(1, 3))) for _ in range(k)],
        lambda fams: sum(matcore._hermitian_part(op_mod._hat_matrix(fam)) for fam in fams),
        matcore._counts(dim, n_outcomes, rng, 2, 4, "n_outcomes", n))
    return _instruments([[np.einsum("nij,jk->nik", fam, inv_root) for fam in families]
                         for families, inv_root in zip(draws, inv_roots)])


def random_instrument(dim: int, rng: np.random.Generator,
                      n_outcomes: int | None = None) -> Instrument:
    """Random instrument: globally normalized Ginibre Kraus families."""
    return random_instruments(dim, rng, 1, n_outcomes)[0]


def random_kraus_instruments(dim: int, rng: np.random.Generator, n: int,
                             n_outcomes=None) -> tuple[Instrument, ...]:
    """n random Kraus instruments, as n ``random_kraus_instrument`` calls would draw
    them, their normalizers from one stacked solve and their members built as
    one stack."""
    draws, inv_roots = matcore._normalizing_draws(
        lambda k: matcore._ginibres(dim, rng, k),
        lambda mats: sum(matcore.dagger(m) @ m for m in mats),
        matcore._counts(dim, n_outcomes, rng, 2, 4, "n_outcomes", n))
    return _instruments([[(m @ inv_root)[None] for m in mats]
                         for mats, inv_root in zip(draws, inv_roots)])


def random_kraus_instrument(dim: int, rng: np.random.Generator,
                            n_outcomes: int | None = None) -> Instrument:
    """Random Kraus instrument: one operator per outcome, trace-preserving."""
    return random_kraus_instruments(dim, rng, 1, n_outcomes)[0]

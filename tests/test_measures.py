"""The labeled-measure base shared by observables and instruments, and the
observable products and conditionings as the Lueders case of the instrument
ones: each lifted function against the direct formula it replaced."""

from pathlib import Path

import numpy as np
import pytest

from seqmeas import matcore, observables as obs, operations as ops
from seqmeas.effects import Effect, State, random_state
from seqmeas.errors import DimensionError, NotChannel, NotSurjective, SeqmeasError
from seqmeas.instruments import (
    Instrument,
    atomic_instrument,
    bar,
    inst_conditioned,
    inst_conditioned_on_obs,
    inst_equal,
    inst_part,
    inst_seq_product,
    inst_then_obs,
    kraus_instrument,
    luders_instrument,
    measured_observable,
    obs_conditioned_on_inst,
    obs_then_inst,
    random_instrument,
    random_kraus_instrument,
    semi_trivial_instrument,
    sharp_instrument,
    trivial_instrument,
)
from seqmeas.matcore import max_abs
from seqmeas.observables import (
    Observable,
    event_prob,
    obs_conditioned,
    obs_equal,
    obs_part,
    obs_seq_product,
    projective_observable,
    random_observable,
)
from seqmeas.operations import Operation

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

# measure type -> (member from an effect matrix, equality, part, sum error)
KINDS = {
    Observable: (Effect, obs_equal, obs_part, DimensionError),
    Instrument: (lambda m: ops.luders(Effect(m)), inst_equal, inst_part, NotChannel),
}


@pytest.mark.parametrize("cls", list(KINDS), ids=lambda cls: cls.__name__)
def test_measure_base_validation_parts_and_equality(cls):
    member, equal, part, sum_error = KINDS[cls]
    p0, p1 = member(P0), member(P1)
    for outcomes, members in (((), ()), (("x", "y"), (p0,)), (("x",), (p0, p1))):
        with pytest.raises(DimensionError):
            cls(outcomes, members)
    with pytest.raises(DimensionError, match="not unique"):
        cls(("x", "x"), (p0, p1))
    with pytest.raises(DimensionError, match="one dimension"):
        cls(("x", "y"), (p0, member(np.eye(3))))
    with pytest.raises(sum_error):
        cls(("x",), (p0,))
    m = cls(["x", "y"], [p0, p1])
    assert m.outcomes == ("x", "y") and m.dim == 2
    with pytest.raises(NotSurjective):
        part(m, {"x": "z"})
    assert equal(m, cls(("y", "x"), (p1, p0)))
    assert not equal(m, cls(("x", "y"), (p1, p0)))
    assert not equal(m, cls(("x", "z"), (p0, p1)))


@pytest.mark.parametrize("dim", range(2, 9))
def test_lifted_forms_match_the_direct_formulas(dim):
    rng = np.random.default_rng(700 + dim)
    a = random_observable(dim, rng)
    b = random_observable(dim, rng)
    i = random_instrument(dim, rng)
    prod = obs_seq_product(a, b)
    for x, ax in a.items():
        for y, by in b.items():
            want = Effect(ax.root @ by.op @ ax.root)
            assert max_abs(prod.effect(f"{x}⊗{y}").op - want.op) <= 1e-14
    cond = obs_conditioned(b, a)
    for y, by in b.items():
        want = Effect(sum(ax.root @ by.op @ ax.root for ax in a.effects))
        assert max_abs(cond.effect(y).op - want.op) <= 1e-14
    mixed = obs_then_inst(a, i)
    for x, ax in a.items():
        for y, iy in i.items():
            want = ops.effect_then_op(ax, iy)
            assert ops.action_distance(mixed.operation(f"{x}⊗{y}"), want) <= 1e-14
    given = inst_conditioned_on_obs(i, a)
    channel = bar(luders_instrument(a))
    for y, iy in i.items():
        assert ops.action_distance(given.operation(y), ops.compose(channel, iy)) <= 1e-14


@pytest.mark.parametrize("dim", (2, 3, 5))
def test_observable_forms_are_the_luders_case_bit_for_bit(dim):
    rng = np.random.default_rng(800 + dim)
    a = random_observable(dim, rng)
    b = random_observable(dim, rng)
    i = random_instrument(dim, rng)
    lift = luders_instrument(a)
    pairs = (
        (obs_seq_product(a, b), inst_then_obs(lift, b)),
        (obs_conditioned(b, a), obs_conditioned_on_inst(b, lift)),
        (obs_then_inst(a, i), inst_seq_product(lift, i)),
        (inst_conditioned_on_obs(i, a), inst_conditioned(i, lift)),
    )
    for got, want in pairs:
        assert got.outcomes == want.outcomes
        for (_, u), (_, v) in zip(got.items(), want.items()):
            left, right = (u.op, v.op) if isinstance(got, Observable) else (u.kraus, v.kraus)
            assert np.array_equal(left, right)


def test_product_separator_is_the_only_literal():
    # Every product label comes from observables._product_items, so the
    # separator character is spelled out once, where it is defined.
    assert obs.PRODUCT_SEPARATOR == "⊗"
    package = Path(obs.__file__).parent
    hits = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "⊗" in line and not line.startswith("PRODUCT_SEPARATOR = ")
    ]
    assert hits == []


def _close(got, want) -> bool:
    return max_abs(got - want) <= 1e-15 * max(1.0, max_abs(want))


@pytest.mark.parametrize("dim", (2, 3, 5, 8))
def test_stacked_products_match_the_member_by_member_forms(dim):
    # Products build their members as one stack; each member must be what
    # compose or op_then_effect returns for its pair.
    rng = np.random.default_rng(1200 + dim)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    i, j = random_instrument(dim, rng), random_instrument(dim, rng)
    front = [ops.luders(e) for e in a.effects]
    cases = (
        (inst_seq_product(i, j), [ops.compose(u, v) for u in i.ops for v in j.ops]),
        (obs_then_inst(a, i), [ops.compose(u, v) for u in front for v in i.ops]),
        (inst_then_obs(i, b), [ops.op_then_effect(u, e) for u in i.ops for e in b.effects]),
        (obs_seq_product(a, b), [ops.op_then_effect(u, e) for u in front for e in b.effects]),
    )
    for product, members in cases:
        assert len(product.outcomes) == len(members)
        for (_, got), want in zip(product.items(), members):
            if isinstance(product, Observable):
                assert _close(got.op, want.op)
            else:
                assert _close(got.kraus, want.kraus)
                assert _close(got.induced.op, want.induced.op)
    for got, want in zip(luders_instrument(a).ops, front):
        assert np.array_equal(got.kraus, want.kraus)
        assert np.array_equal(got.induced.op, want.induced.op)
        assert got.recipe == want.recipe


def test_products_of_mismatched_dims_raise():
    # Products and conditionings alike; a stacked product would otherwise fail
    # inside numpy instead of naming the two dims.
    rng = np.random.default_rng(1300)
    for build in (obs._product, obs._conditioned):
        for make in (random_observable, random_instrument):
            for other in (random_observable, random_instrument):
                with pytest.raises(DimensionError, match="dim mismatch"):
                    build(make(2, rng), other(3, rng))


def test_labels_are_normalized_at_lookup():
    half = Effect(np.eye(2) / 2)
    a = Observable((0, 1), (half, half))
    assert a.outcomes == ("0", "1") and a.effect(0) is a.effects[0]
    i = luders_instrument(a)
    assert i.operation(1) is i.ops[1]
    assert abs(event_prob(a, State(P0), [0]) - 0.5) <= 1e-15
    part = obs_part(a, {0: "a", 1: "b"})
    assert part.outcomes == ("a", "b") and np.array_equal(part.effect("b").op, half.op)
    assert obs_part(a, {0: "a", "0": "a", 1: "a"}).outcomes == ("a",)
    with pytest.raises(SeqmeasError, match="two labels"):
        obs_part(a, {0: "a", "0": "b", 1: "b"})
    with pytest.raises(SeqmeasError, match="no outcome"):
        a.effect(2)
    with pytest.raises(NotSurjective):
        obs_part(a, ["a", "b"])


def _same_member(got, want) -> bool:
    """Bit-for-bit agreement of two effects, or of two operations' Kraus families,
    induced effects and recipes."""
    if isinstance(want, Effect):
        return np.array_equal(got.op, want.op)
    return (np.array_equal(got.kraus, want.kraus)
            and np.array_equal(got.induced.op, want.induced.op) and got.recipe == want.recipe)


def _summed(ops_):
    return Operation(ops._summed_kraus(ops_))


def _scalar_random_observable(dim, rng):
    n = matcore._count(None, rng, 2, 4, "n_outcomes")
    grams = [g @ g.conj().T for g in (matcore._ginibre(dim, rng) for _ in range(n))]
    inv_root = matcore.inv_sqrt_pd(sum(grams))
    return [Effect(inv_root @ g @ inv_root) for g in grams]


def _scalar_random_instrument(dim, rng):
    n = matcore._count(None, rng, 2, 4, "n_outcomes")
    families = [np.stack([matcore._ginibre(dim, rng) for _ in range(int(rng.integers(1, 3)))])
                for _ in range(n)]
    inv_root = matcore.inv_sqrt_pd(
        sum(matcore._hermitian_part(ops._hat_matrix(fam)) for fam in families))
    return [Operation(np.einsum("nij,jk->nik", fam, inv_root)) for fam in families]


@pytest.mark.parametrize("dim", (2, 3, 5, 8))
def test_stacked_builders_match_the_scalar_constructors(dim):
    # Parts and the library constructors build their members as one stack;
    # each member must be bit for bit its scalar form, built from the same
    # inputs (the random generators from the same seed). Conditionings, built
    # member by member, are held to the same forms.
    rng = np.random.default_rng(1400 + dim)
    a, b = random_observable(dim, rng, 4), random_observable(dim, rng)
    i, j = random_instrument(dim, rng, 4), random_instrument(dim, rng)
    states = [random_state(dim, rng) for _ in a.outcomes]
    mats = [o.kraus[0] for o in random_kraus_instrument(dim, rng).ops]
    u = matcore.random_unitary(dim, rng)
    vectors = [[u[:, 0]], [u[:, k] for k in range(1, dim)]]
    projections = [[np.outer(v, v.conj()) for v in fam] for fam in vectors]
    front = [ops.luders(e) for e in a.effects]
    f = {x: f"y{k % 2}" for k, x in enumerate(a.outcomes)}
    cases = [
        (obs_conditioned(b, a), [ops.op_then_effect(_summed(front), e) for e in b.effects]),
        (obs_conditioned_on_inst(b, i), [ops.op_then_effect(_summed(i.ops), e) for e in b.effects]),
        (inst_conditioned(j, i), [ops.compose(_summed(i.ops), v) for v in j.ops]),
        (inst_conditioned_on_obs(j, a), [ops.compose(_summed(front), v) for v in j.ops]),
        (obs_part(a, f), [Effect(sum(e.op for e in a.effects[r::2])) for r in (0, 1)]),
        (inst_part(i, f), [_summed(i.ops[r::2]) for r in (0, 1)]),
        (trivial_instrument(a, states[0]), [ops.trivial(e, states[0]) for e in a.effects]),
        (semi_trivial_instrument(a, states), list(map(ops.trivial, a.effects, states))),
        (kraus_instrument(mats), [ops.kraus_single(m) for m in mats]),
        (sharp_instrument(projections),
         [Operation(ops._projection_list(fam)) for fam in projections]),
        (atomic_instrument(vectors), [Operation(ops._projection_list(fam)) for fam in projections]),
    ]
    for make, scalar in ((random_observable, _scalar_random_observable),
                         (random_instrument, _scalar_random_instrument)):
        cases.append((make(dim, np.random.default_rng(dim)), scalar(dim, np.random.default_rng(dim))))
    want_u = matcore.random_unitary(dim, np.random.default_rng(dim))
    cases.append((projective_observable(dim, np.random.default_rng(dim)),
                  [Effect(np.outer(want_u[:, k], want_u[:, k].conj())) for k in range(dim)]))
    for measure, members in cases:
        assert len(measure.outcomes) == len(members)
        assert all(map(_same_member, measure._members, members))


def test_library_measures_validate_no_member_alone(monkeypatch):
    # Every member of a measure the library builds comes from a stacked
    # builder; the scalar Effect and Operation constructors serve single
    # objects (the one-member identity_* measures) only. Conditionings are
    # exempt: they still read each member after the channel with compose or
    # op_then_effect (see observables._conditioned).
    dim = 3
    rng = np.random.default_rng(1500)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    i, j = random_instrument(dim, rng), random_instrument(dim, rng)
    alpha = random_state(dim, rng)
    mats = [o.kraus[0] for o in random_kraus_instrument(dim, rng).ops]
    u = matcore.random_unitary(dim, rng)
    vectors = [[u[:, 0]], [u[:, 1], u[:, 2]]]
    f = {f"x{k}": "y" for k in range(4)}
    # The total channel of a given measure is one operation, which Operation builds.
    assert a._channel.dim == i._channel.dim == dim
    calls = []
    for cls in (Effect, Operation):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=init: calls.append(type(self).__name__) or init(self))
    builds = {
        "obs_seq_product": lambda: obs_seq_product(a, b),
        "inst_seq_product": lambda: inst_seq_product(i, j),
        "obs_then_inst": lambda: obs_then_inst(a, i),
        "inst_then_obs": lambda: inst_then_obs(i, b),
        "obs_part": lambda: obs_part(a, f),
        "inst_part": lambda: inst_part(i, f),
        "luders_instrument": lambda: luders_instrument(b),
        "measured_observable": lambda: measured_observable(j),
        "trivial_instrument": lambda: trivial_instrument(a, alpha),
        "semi_trivial_instrument": lambda: semi_trivial_instrument(a, [alpha] * len(a.outcomes)),
        "kraus_instrument": lambda: kraus_instrument(mats),
        "sharp_instrument": lambda: sharp_instrument([[np.outer(v, v.conj()) for v in fam]
                                                      for fam in vectors]),
        "atomic_instrument": lambda: atomic_instrument(vectors),
        "random_instrument": lambda: random_instrument(dim, rng),
        "random_kraus_instrument": lambda: random_kraus_instrument(dim, rng),
        "random_observable": lambda: random_observable(dim, rng),
        "projective_observable": lambda: projective_observable(dim, rng),
    }
    scalar = {}
    for name, build in builds.items():
        calls.clear()
        build()
        if calls:
            scalar[name] = list(calls)
    assert scalar == {}

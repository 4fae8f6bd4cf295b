"""The labeled-measure base shared by observables and instruments, and the
observable products and conditionings as the Lueders case of the instrument
ones: each lifted function against the direct formula it replaced."""

from pathlib import Path

import numpy as np
import pytest

from seqmeas import observables as obs, operations as ops
from seqmeas.effects import Effect
from seqmeas.errors import DimensionError, NotChannel, NotSurjective
from seqmeas.instruments import (
    Instrument,
    bar,
    inst_conditioned,
    inst_conditioned_on_obs,
    inst_equal,
    inst_part,
    inst_seq_product,
    inst_then_obs,
    luders_instrument,
    obs_conditioned_on_inst,
    obs_then_inst,
    random_instrument,
)
from seqmeas.matcore import max_abs
from seqmeas.observables import (
    Observable,
    obs_conditioned,
    obs_equal,
    obs_part,
    obs_seq_product,
    random_observable,
)

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
    rng = np.random.default_rng(1300)
    for make in (random_observable, random_instrument):
        for other in (random_observable, random_instrument):
            with pytest.raises(DimensionError):
                obs._product(make(2, rng), other(3, rng))

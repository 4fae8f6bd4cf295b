import numpy as np
import pytest

from seqmeas import effects, matcore, operations as ops
from seqmeas.effects import Effect, State, atomic_projection, complement, prob, unit_effect
from seqmeas.errors import (
    DimensionError,
    NotOrthogonal,
    NotPerp,
    NotProjection,
    NotSubunital,
    WeightError,
)

HALF = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def mixed(dim=2):
    return State(np.eye(dim, dtype=complex) / dim)


def e1_state():
    return State(P0)


def test_operation_rejects_excess():
    with pytest.raises(NotSubunital):
        ops.Operation(np.stack([np.eye(2, dtype=complex), np.eye(2, dtype=complex)]))


def test_derived_quantities_are_computed_once(monkeypatch):
    rng = np.random.default_rng(30)
    a, b, c = (effects.random_effect(3, rng) for _ in range(3))
    calls = []
    real_sqrt = matcore.sqrt_psd

    def counting_sqrt(m):
        calls.append(m)
        return real_sqrt(m)

    monkeypatch.setattr(matcore, "sqrt_psd", counting_sqrt)
    effects.seq_product(a, b)
    effects.seq_product(a, c)
    lu = ops.luders(a)
    assert len(calls) == 1
    assert ops.hat(lu) is lu.induced
    with pytest.raises(ValueError):
        a.root[0, 0] = 0.0
    with pytest.raises(NotSubunital):
        ops.kraus_single(2 * np.eye(2))
    with pytest.raises(NotPerp):
        ops.add(ops.identity_channel(2), ops.identity_channel(2))


def test_apply_identity_and_luders():
    rng = np.random.default_rng(0)
    rho = effects.random_state(2, rng)
    out = ops.apply(ops.identity_channel(2), rho)
    assert matcore.max_abs(out - rho.op) <= 1e-12
    # Lueders of diag(1,0) on I/2 is diag(.5, 0)
    out = ops.apply(ops.luders(Effect(P0)), mixed())
    assert matcore.max_abs(out - np.diag([0.5, 0.0])) <= 1e-12
    # dephasing kills the off-diagonal of [[.5,.5],[.5,.5]]
    deph = ops.sharp_operation([P0, P1])
    out = ops.apply(deph, State(HALF))
    assert matcore.max_abs(out - np.diag([0.5, 0.5])) <= 1e-12


def test_apply_trace_nonincreasing():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        op = ops.random_operation(dim, rng)
        rho = effects.random_state(dim, rng)
        out = ops.apply(op, rho)
        assert matcore.is_psd(out)
        assert np.trace(out).real <= 1.0 + 1e-10


def test_hat_examples():
    rng = np.random.default_rng(2)
    chan = ops.random_channel(2, rng)
    assert matcore.max_abs(ops.hat(chan).op - np.eye(2)) <= 1e-9
    a = effects.random_effect(2, rng)
    assert matcore.max_abs(ops.hat(ops.luders(a)).op - a.op) <= 1e-10
    alpha = effects.random_state(2, rng)
    assert matcore.max_abs(ops.hat(ops.trivial(a, alpha)).op - a.op) <= 1e-9


def test_hat_reproduces_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        op = ops.random_operation(dim, rng)
        h = ops.hat(op)
        rho = effects.random_state(dim, rng)
        assert abs(prob(rho, h) - np.trace(ops.apply(op, rho)).real) <= 1e-10


def test_is_channel():
    assert ops.is_channel(ops.identity_channel(2))
    half = Effect(np.eye(2, dtype=complex) / 2)
    assert not ops.is_channel(ops.luders(half))
    a = Effect(HALF / 2)
    joint = ops.add(ops.luders(a), ops.luders(complement(a)))
    assert ops.is_channel(joint)


def test_compose_action_and_kraus():
    rng = np.random.default_rng(4)
    i = ops.random_operation(2, rng)
    j = ops.random_operation(2, rng)
    comp = ops.compose(i, j)
    rho = effects.random_state(2, rng)
    assert matcore.max_abs(ops.apply(comp, rho) - ops.apply(j, ops.apply(i, rho))) <= 1e-10
    assert ops.action_equal(ops.compose(i, ops.identity_channel(2)), i)
    # single-Kraus composition is the product BA
    a_mat = rng.standard_normal((2, 2))
    a_mat /= 2 * np.linalg.norm(a_mat)
    b_mat = rng.standard_normal((2, 2))
    b_mat /= 2 * np.linalg.norm(b_mat)
    comp2 = ops.compose(ops.kraus_single(a_mat), ops.kraus_single(b_mat))
    assert comp2.n_kraus == 1
    assert matcore.max_abs(comp2.kraus[0] - b_mat @ a_mat) <= 1e-12


def test_compose_trivial_pair():
    # composing trivial(a, alpha) then trivial(a, beta) gives tr(rho a) tr(alpha a) beta
    rng = np.random.default_rng(5)
    a = effects.random_effect(2, rng)
    alpha = effects.random_state(2, rng)
    beta = effects.random_state(2, rng)
    comp = ops.compose(ops.trivial(a, alpha), ops.trivial(a, beta))
    scaled = Effect(np.trace(alpha.op @ a.op).real * a.op)
    assert ops.action_equal(comp, ops.trivial(scaled, beta))


def test_add_and_scale():
    rng = np.random.default_rng(6)
    op = ops.random_operation(2, rng)
    assert ops.action_equal(ops.add(op, ops.zero_operation(2)), op)
    zero = ops.scale(op, 0.0)
    assert matcore.max_abs(ops.apply(zero, mixed())) <= 1e-15
    a = effects.random_effect(2, rng)
    assert ops.is_channel(ops.add(ops.luders(a), ops.luders(complement(a))))
    with pytest.raises(NotPerp):
        ops.add(ops.identity_channel(2), ops.identity_channel(2))
    # hat is additive and homogeneous
    i, j = ops.scale(op, 0.5), ops.scale(ops.random_operation(2, rng), 0.5)
    lhs = ops.hat(ops.add(i, j)).op
    assert matcore.max_abs(lhs - (ops.hat(i).op + ops.hat(j).op)) <= 1e-12
    assert matcore.max_abs(ops.hat(ops.scale(op, 0.3)).op - 0.3 * ops.hat(op).op) <= 1e-12


def test_equiv():
    rng = np.random.default_rng(7)
    op = ops.random_operation(2, rng)
    assert ops.equiv(op, op)
    a = effects.random_effect(2, rng)
    alpha = effects.random_state(2, rng)
    assert ops.equiv(ops.luders(a), ops.trivial(a, alpha))
    b = effects.random_effect(2, rng)
    if matcore.max_abs(a.op - b.op) > 1e-6:
        assert not ops.equiv(ops.luders(a), ops.luders(b))


def test_luders_and_kraus_single():
    assert ops.action_equal(ops.luders(unit_effect(2)), ops.identity_channel(2))
    out = ops.apply(ops.luders(Effect(P0)), State(HALF))
    assert matcore.max_abs(out - np.diag([0.5, 0.0])) <= 1e-12
    rng = np.random.default_rng(8)
    a_mat = 0.6 * matcore.random_unitary(2, rng)
    k = ops.kraus_single(a_mat)
    assert matcore.max_abs(ops.hat(k).op - matcore.dagger(a_mat) @ a_mat) <= 1e-12
    with pytest.raises(NotSubunital):
        ops.kraus_single(2.0 * np.eye(2))


def test_semi_trivial_single_pair_kraus():
    # one pair (diag(1,0), |e1><e1|): the construction yields exactly {|e1><e1|}
    op = ops.trivial(Effect(P0), e1_state())
    assert op.n_kraus == 1
    assert matcore.max_abs(op.kraus[0] - P0) <= 1e-12
    rho = State(np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex))
    out = ops.apply(op, rho)
    assert matcore.max_abs(out - 0.3 * P0) <= 1e-12


def test_semi_trivial_projection_pairs_are_atomic():
    # pairs (P_psi, P_psi) over an ONB reproduce the atomic operation
    rng = np.random.default_rng(9)
    u = matcore.random_unitary(3, rng)
    pairs = [(atomic_projection(u[:, k]), State(np.outer(u[:, k], u[:, k].conj()))) for k in range(3)]
    st = ops.semi_trivial(pairs)
    atomic = ops.atomic_operation([u[:, k] for k in range(3)])
    assert ops.action_equal(st, atomic)


def test_semi_trivial_matches_direct_formula():
    rng = np.random.default_rng(10)
    for _ in range(10):
        dim = 3
        raw = [matcore.random_effect(dim, rng) for _ in range(3)]
        total = sum(raw) + 1e-3 * np.eye(dim)
        inv_root = np.linalg.inv(matcore.sqrt_psd(total))
        pairs = [
            (Effect(inv_root @ m @ inv_root), effects.random_state(dim, rng)) for m in raw
        ]
        op = ops.semi_trivial(pairs)
        rho = effects.random_state(dim, rng)
        direct = sum(np.trace(rho.op @ a.op).real * alpha.op for a, alpha in pairs)
        assert matcore.max_abs(ops.apply(op, rho) - direct) <= 1e-9
        hat_direct = sum(a.op for a, _ in pairs)
        assert matcore.max_abs(ops.hat(op).op - hat_direct) <= 1e-9


def test_semi_trivial_rejects_oversized_effect_sum():
    rng = np.random.default_rng(21)
    alpha = effects.random_state(2, rng)
    ident = unit_effect(2)
    with pytest.raises(NotSubunital):
        ops.semi_trivial([(ident, alpha), (ident, alpha)])


def test_scale_rejects_bad_factor():
    rng = np.random.default_rng(22)
    op = ops.random_operation(2, rng)
    with pytest.raises(WeightError):
        ops.scale(op, 1.5)
    with pytest.raises(WeightError):
        ops.scale(op, -0.1)


def test_trivial_examples():
    rng = np.random.default_rng(11)
    alpha = effects.random_state(2, rng)
    const = ops.trivial(unit_effect(2), alpha)
    rho = effects.random_state(2, rng)
    assert matcore.max_abs(ops.apply(const, rho) - alpha.op) <= 1e-10
    a = effects.random_effect(2, rng)
    assert matcore.max_abs(ops.hat(ops.trivial(a, alpha)).op - a.op) <= 1e-9
    out = ops.apply(ops.trivial(Effect(P0), mixed()), State(np.diag([0.3, 0.7]).astype(complex)))
    assert matcore.max_abs(out - 0.3 * np.eye(2) / 2) <= 1e-12


def test_sharp_operation_validation():
    assert ops.is_channel(ops.sharp_operation([np.eye(2, dtype=complex)]))
    deph = ops.sharp_operation([P0, P1])
    assert ops.is_channel(deph)
    lone = ops.sharp_operation([P0])
    assert matcore.max_abs(ops.hat(lone).op - P0) <= 1e-12
    assert not ops.is_channel(lone)
    with pytest.raises(NotProjection):
        ops.sharp_operation([HALF / 2])
    with pytest.raises(NotOrthogonal):
        ops.sharp_operation([P0, HALF])


def test_complement_luders():
    rng = np.random.default_rng(12)
    chan = ops.random_channel(2, rng)
    comp = ops.complement_luders(chan)
    assert matcore.max_abs(ops.apply(comp, mixed())) <= 1e-9
    a = effects.random_effect(2, rng)
    assert ops.action_equal(ops.complement_luders(ops.luders(a)), ops.luders(complement(a)))
    op = ops.random_operation(2, rng)
    comp = ops.complement_luders(op)
    assert ops.is_channel(ops.add(op, comp))
    assert ops.is_complement(comp, op)


def test_is_complement_examples():
    rng = np.random.default_rng(13)
    a = effects.random_effect(2, rng)
    alpha = effects.random_state(2, rng)
    assert ops.is_complement(ops.trivial(complement(a), alpha), ops.trivial(a, alpha))
    half = Effect(np.eye(2, dtype=complex) / 2)
    i = ops.luders(half)
    assert ops.is_complement(i, i)


def test_effect_then_op():
    rng = np.random.default_rng(14)
    i = ops.random_operation(2, rng)
    assert ops.action_equal(ops.effect_then_op(unit_effect(2), i), i)
    a = effects.random_effect(2, rng)
    assert ops.action_equal(ops.effect_then_op(a, ops.identity_channel(2)), ops.luders(a))
    # hat of the mixed product is the sequential product of hats
    h = ops.hat(ops.effect_then_op(a, i))
    want = effects.seq_product(a, ops.hat(i))
    assert matcore.max_abs(h.op - want.op) <= 1e-9
    # a о trivial(b, alpha) is trivial with effect a о b
    b = effects.random_effect(2, rng)
    alpha = effects.random_state(2, rng)
    lhs = ops.effect_then_op(a, ops.trivial(b, alpha))
    rhs = ops.trivial(effects.seq_product(a, b), alpha)
    assert ops.action_equal(lhs, rhs)


def test_op_then_effect():
    rng = np.random.default_rng(15)
    a = effects.random_effect(2, rng)
    got = ops.op_then_effect(ops.identity_channel(2), a)
    assert matcore.max_abs(got.op - a.op) <= 1e-12
    # trivial case: tr(alpha a) b
    b = effects.random_effect(2, rng)
    alpha = effects.random_state(2, rng)
    got = ops.op_then_effect(ops.trivial(b, alpha), a)
    want = np.trace(alpha.op @ a.op).real * b.op
    assert matcore.max_abs(got.op - want) <= 1e-9
    # duality with apply
    op = ops.random_operation(2, rng)
    rho = effects.random_state(2, rng)
    lhs = np.trace(rho.op @ ops.op_then_effect(op, a).op).real
    rhs = np.trace(ops.apply(op, rho) @ a.op).real
    assert abs(lhs - rhs) <= 1e-10


def test_op_then_effect_dephasing_fixture():
    # the ex-10 fixture: images of two non-perp effects sum to I
    deph = ops.sharp_operation([P0, P1])
    d = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    a = Effect(d / 2)
    img = ops.op_then_effect(deph, a)
    assert matcore.max_abs(img.op + img.op - np.eye(2)) <= 1e-12


def test_kraus_remix_invariance():
    rng = np.random.default_rng(16)
    for dim in (2, 3, 4):
        for _ in range(10):
            op = ops.random_operation(dim, rng)
            m = op.n_kraus + int(rng.integers(0, 3))
            w = matcore.random_unitary(max(m, 2), rng) if m > 1 else np.ones((1, 1), dtype=complex)
            remixed = ops.remix_kraus(op, w)
            assert matcore.max_abs(ops.hat(remixed).op - ops.hat(op).op) <= 1e-9
            a = effects.random_effect(dim, rng)
            lhs = ops.op_then_effect(remixed, a)
            rhs = ops.op_then_effect(op, a)
            assert matcore.max_abs(lhs.op - rhs.op) <= 1e-9
            assert ops.action_equal(remixed, op)


def test_operation_order():
    rng = np.random.default_rng(17)
    i = ops.scale(ops.random_operation(2, rng), 0.5)
    k = ops.scale(ops.random_operation(2, rng), 0.5)
    j = ops.add(i, k)
    assert ops.operation_leq(i, j, rng)
    assert matcore.loewner_leq(ops.hat(i).op, ops.hat(j).op)


def test_bayes_failure_constant_channel():
    # Example-1-style construction: conditioning through a constant channel
    rng = np.random.default_rng(18)
    found = 0.0
    for _ in range(50):
        a = effects.random_effect(2, rng)
        alpha = effects.random_state(2, rng)
        chan = ops.add(ops.trivial(a, alpha), ops.trivial(complement(a), alpha))
        rho = effects.random_state(2, rng)
        assert matcore.max_abs(ops.apply(chan, rho) - alpha.op) <= 1e-9
        lhs = np.trace(rho.op @ a.op).real
        rhs = np.trace(alpha.op @ a.op).real
        found = max(found, abs(lhs - rhs))
    assert found > 0.1


def test_bayes_failure_sharp_luders():
    # Example-2-style construction: J after the dephasing-by-a channel
    rng = np.random.default_rng(19)
    found = 0.0
    for _ in range(50):
        u = matcore.random_unitary(2, rng)
        a = np.outer(u[:, 0], u[:, 0].conj())
        b = effects.random_effect(2, rng)
        rho = effects.random_state(2, rng)
        mixed_b = a @ b.op @ a + (np.eye(2) - a) @ b.op @ (np.eye(2) - a)
        chan = ops.add(ops.kraus_single(a), ops.kraus_single(np.eye(2) - a))
        j = ops.luders(b)
        lhs = np.trace(ops.apply(j, ops.apply(chan, rho.op))).real
        assert abs(lhs - np.trace(rho.op @ mixed_b).real) <= 1e-10
        found = max(found, matcore.max_abs(b.op - mixed_b))
    assert found > 0.01


def test_bayes_second_rule_luders():
    # tr[J(I(rho))] = tr(rho a o b) for a Lueders pair, equal to the flip iff ab = ba
    rng = np.random.default_rng(20)
    for _ in range(20):
        a = effects.random_effect(2, rng)
        b = effects.random_effect(2, rng)
        rho = effects.random_state(2, rng)
        li, lj = ops.luders(a), ops.luders(b)
        lhs = np.trace(ops.apply(lj, ops.apply(li, rho.op))).real
        assert abs(lhs - prob(rho, effects.seq_product(a, b))) <= 1e-10
        rhs = np.trace(ops.apply(li, ops.apply(lj, rho.op))).real
        assert abs(rhs - prob(rho, effects.seq_product(b, a))) <= 1e-10


def test_dim_mismatch_raises():
    with pytest.raises(DimensionError):
        ops.compose(ops.identity_channel(2), ops.identity_channel(3))
    with pytest.raises(DimensionError):
        ops.op_then_effect(ops.identity_channel(2), unit_effect(3))

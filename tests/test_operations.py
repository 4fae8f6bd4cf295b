import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmeas import effects, instruments, matcore, observables, operations as ops
from seqmeas.effects import Effect, State, atomic_projection, complement, prob, unit_effect
from seqmeas.errors import (
    DimensionError,
    NotEffect,
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


@pytest.mark.parametrize("build, family", [
    (ops.Operation, lambda m: m[None]),
    (ops.Operation, lambda m: m),
    (lambda m: ops.Operation(m, {"kind": "kraus", "operators": m.copy()}), lambda m: m[None]),
    (ops.kraus_single, lambda m: m),
], ids=["operation", "operation-single", "operation-recipe", "kraus-single"])
def test_operations_keep_their_own_copy_of_the_callers_family(build, family):
    caller = family(0.5 * np.eye(2, dtype=complex))
    op = build(caller)
    assert caller.flags.writeable and not np.shares_memory(op.kraus, caller)
    caller[..., 0, 0] = 0.9
    assert np.array_equal(op.kraus, 0.5 * np.eye(2)[None])
    assert np.array_equal(op.induced.op, 0.25 * np.eye(2))


def test_operation_rejects_excess():
    with pytest.raises(NotSubunital):
        ops.Operation(np.stack([np.eye(2, dtype=complex), np.eye(2, dtype=complex)]))


def test_derived_quantities_are_computed_once(monkeypatch):
    rng = np.random.default_rng(30)
    # built from matrices, so no root is seeded and the first use solves it
    a, b, c = (Effect(matcore.random_effect(3, rng)) for _ in range(3))
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


@pytest.mark.parametrize("build", [
    lambda: ops.sharp_operation([]),
    lambda: ops.atomic_operation([]),
    lambda: ops.sharp_operation([P0, np.diag([0.0, 1.0, 0.0])]),
    lambda: instruments.sharp_instrument([]),
    lambda: instruments.sharp_instrument([[]]),
    lambda: instruments.sharp_instrument([[P0], []]),
], ids=["sharp-empty", "atomic-empty", "sharp-mixed-dims", "instrument-empty",
        "instrument-empty-family", "instrument-one-empty-family"])
def test_sharp_constructors_reject_empty_or_mixed_families(build):
    with pytest.raises(DimensionError):
        build()


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
            assert matcore.max_abs(remixed.superop - op.superop) <= 1e-12


def test_operation_order():
    rng = np.random.default_rng(17)
    i = ops.scale(ops.random_operation(2, rng), 0.5)
    k = ops.scale(ops.random_operation(2, rng), 0.5)
    j = ops.add(i, k)
    assert ops.operation_leq(i, j, rng)
    assert matcore.loewner_leq(ops.hat(i).op, ops.hat(j).op)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_operation_order_certifies_cp_differences(dim, monkeypatch):
    rng = np.random.default_rng(23)
    i = ops.scale(ops.random_operation(dim, rng), 0.5)
    j = ops.add(i, ops.scale(ops.random_operation(dim, rng), 0.5))
    state = rng.bit_generator.state
    real_first_outside = matcore._first_outside
    stacks = []

    def recording_first_outside(h, unit=False, tol=matcore.PSD_TOL):
        stacks.append(h)
        return real_first_outside(h, unit, tol)

    monkeypatch.setattr(matcore, "_first_outside", recording_first_outside)
    assert ops.operation_leq(i, j, rng)
    assert stacks == [] and rng.bit_generator.state == state
    # The reversed pair is not certified; its random probe gaps, one stack, refute
    # it, and the basis probe gaps are not computed.
    assert not ops.operation_leq(j, i, rng)
    assert [len(h) for h in stacks] == [ops.SAMPLE_N]


def _one_stack_leq(i, j, rng):
    """The probe side of ``operation_leq`` as it was first stacked: every random and
    basis gap computed, then checked in one ``_first_outside`` call."""
    gap = ops._gram(j.kraus) - ops._gram(i.kraus)
    if matcore.psd_certified((gap + matcore.dagger(gap)) / 2):
        return True
    probes = list(matcore._random_states(i.dim, rng, ops.SAMPLE_N))
    basis = np.eye(i.dim, dtype=complex)
    for k, e_k in enumerate(basis):
        probes.append(np.outer(e_k, e_k.conj()))
        for e_l in basis[k + 1:]:
            for v in (e_k + e_l, e_k + 1j * e_l):
                v = v / np.linalg.norm(v)
                probes.append(np.outer(v, v.conj()))
    gaps = np.array([ops.apply(j, rho) - ops.apply(i, rho) for rho in probes])
    return matcore._first_outside(matcore._as_hermitian_stack(gaps, 1e-9)) is None


def _order_pairs():
    """200 seeded pairs at d = 2-5: unrelated operations, a scaled operation against
    its sum with another (certified one way), and an operation against itself
    scaled by 1 - 1e-10 or 1 - 1e-9 (either way, near the probes' tolerance)."""
    for k in range(200):
        dim = 2 + k % 4
        rng = np.random.default_rng(k)
        i = ops.random_operation(dim, rng)
        if k % 4 == 0:
            j = ops.random_operation(dim, rng)
        elif k % 4 == 1:
            i, j = ops.scale(i, 0.5), ops.add(ops.scale(i, 0.5),
                                              ops.scale(ops.random_operation(dim, rng), 0.5))
        else:
            j = ops.scale(i, 1 - (1e-10 if k % 4 == 2 else 1e-9) * rng.uniform(0.5, 4))
        yield k, i, j


def test_operation_order_probes_random_states_first(monkeypatch):
    # verdicts, and every Jacobi call in order, are those of the one-stack check
    solves, applies, checks = [], [], []
    real_bounds, real_apply, real_first = (matcore.spectral_bounds, ops.apply,
                                           matcore._first_outside)
    monkeypatch.setattr(matcore, "spectral_bounds",
                        lambda m: solves.append(np.array(m)) or real_bounds(m))
    monkeypatch.setattr(ops, "apply", lambda op, rho: applies.append(1) or real_apply(op, rho))
    monkeypatch.setattr(matcore, "_first_outside",
                        lambda h, *args: checks.append(len(h)) or real_first(h, *args))
    outcomes = set()
    for k, i, j in _order_pairs():
        for a, b in ((i, j), (j, i)):
            del solves[:], applies[:], checks[:]
            want = _one_stack_leq(a, b, np.random.default_rng(k))
            want_solves = [m.tobytes() for m in solves]
            del solves[:], applies[:], checks[:]
            got = ops.operation_leq(a, b, np.random.default_rng(k))
            assert got == want and [m.tobytes() for m in solves] == want_solves
            if not got and checks == [ops.SAMPLE_N]:
                assert len(applies) <= 2 * ops.SAMPLE_N  # refuted by a random probe
            outcomes.add((got, tuple(checks)))
    # the sweep reaches every path: certified, refuted by a random or a basis
    # probe, and uncertified pairs that hold
    assert {(got, len(checks)) for got, checks in outcomes} == {
        (True, 0), (False, 1), (False, 2), (True, 2)}


def _gram_superop(kraus):
    """Superoperator from the Gram matrix of an uncompressed family."""
    n, d, _ = kraus.shape
    flat = kraus.reshape(n, d * d)
    gram = flat.T @ flat.conj()
    return gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@pytest.mark.parametrize("dim", range(2, 9))
def test_long_families_are_compressed_to_the_same_map(dim):
    rng = np.random.default_rng(24 + dim)
    for n in (dim * dim, dim * dim + 1, 4 * dim * dim, 64 * dim * dim):
        fam = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        fam = fam @ matcore.inv_sqrt_pd(ops._hat_matrix(fam))  # a channel
        op = ops.Operation(fam)
        assert op.n_kraus == min(n, dim * dim)
        assert matcore.max_abs(op.superop - _gram_superop(fam)) <= 1e-12
        assert ops.is_channel(op)


@st.composite
def long_families(draw):
    """A Ginibre family of d² + 1 to 3 d² operators at d = 2..8, its entries
    scaled by 1e-3, 1 or 1e3."""
    dim = draw(st.integers(2, 8))
    n = draw(st.integers(dim * dim + 1, 3 * dim * dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return scale * (rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim)))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(long_families())
def test_compression_keeps_the_superoperator(family):
    n, dim, _ = family.shape
    want = _gram_superop(family)
    short = ops._bounded(family)
    assert short.shape == (dim * dim, dim, dim)
    assert matcore.max_abs(_gram_superop(short) - want) <= 1e-13 * matcore.max_abs(want)
    # and the operation built from the family, normalized to a channel, keeps it too
    inv_root = matcore.inv_sqrt_pd(matcore._hermitian_part(ops._hat_matrix(family)))
    op = ops.Operation(family @ inv_root)
    assert op.n_kraus == dim * dim
    assert matcore.max_abs(op.superop - _gram_superop(family @ inv_root)) <= 1e-12


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.integers(0, 4))
def test_remix_keeps_the_induced_effect_and_the_superoperator(dim, seed, weight, extra):
    # a family of 1 to d² operators, remixed by a Haar unitary of n to n + 4 rows,
    # so past d² operators the remix is compressed again
    rng = np.random.default_rng(seed)
    op = ops.scale(ops.random_channel(dim, rng, int(rng.integers(1, dim * dim + 1))), weight)
    m = op.n_kraus + extra
    mixing = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    remixed = ops.remix_kraus(op, mixing)
    assert remixed.n_kraus == min(op.n_kraus + extra, dim * dim)
    assert matcore.max_abs(ops.hat(remixed).op - ops.hat(op).op) <= 1e-12
    assert matcore.max_abs(remixed.superop - op.superop) <= 1e-12


def test_kraus_families_stay_bounded_along_chains():
    rng = np.random.default_rng(25)
    chan = ops.random_channel(3, rng, n_kraus=3)
    chain = chan
    for _ in range(6):
        chain = ops.compose(chain, chan)
        assert chain.n_kraus <= 9
    rho = effects.random_state(3, rng)
    want = rho.op
    for _ in range(7):
        want = ops.apply(chan, want)
    assert matcore.max_abs(ops.apply(chain, rho) - want) <= 1e-12
    i = instruments.random_instrument(3, rng)
    prod = instruments.inst_seq_product(instruments.inst_seq_product(i, i), i)
    total = instruments.bar(prod)
    assert total.n_kraus <= 9
    assert all(o.n_kraus <= 9 for o in prod.ops)
    assert ops.action_equal(total, ops.compose(ops.compose(instruments.bar(i),
                                                           instruments.bar(i)),
                                               instruments.bar(i)), tol=1e-12)


def _matrix_unit_distance(i, j):
    """Reference: the largest max-norm gap of the two maps over matrix units."""
    worst = 0.0
    for k in range(i.dim):
        for l in range(i.dim):
            unit = np.zeros((i.dim, i.dim), dtype=complex)
            unit[k, l] = 1.0
            worst = max(worst, matcore.max_abs(ops.apply(i, unit) - ops.apply(j, unit)))
    return worst


def test_action_distance_matches_matrix_unit_reference():
    rng = np.random.default_rng(26)
    for dim in (2, 3, 5, 8):
        for _ in range(5):
            i = ops.random_operation(dim, rng)
            w = matcore.random_unitary(max(i.n_kraus + 2, 2), rng)
            for j in (ops.remix_kraus(i, w), ops.random_operation(dim, rng)):
                want = _matrix_unit_distance(i, j)
                assert abs(ops.action_distance(i, j) - want) <= 1e-15
    with pytest.raises(DimensionError):
        ops.action_distance(ops.identity_channel(2), ops.identity_channel(3))


def _closed_form_superop(pairs):
    """sum_i vec(alpha_i) vec(a_i^T)^T: the superoperator of rho -> sum_i tr(rho a_i) alpha_i."""
    return sum(np.outer(alpha.op.reshape(-1), a.op.T.reshape(-1)) for a, alpha in pairs)


def _projection(u, cols):
    return Effect(u[:, cols] @ u[:, cols].conj().T)


def _mixed_on(u, cols):
    """The maximally mixed state on the span of the given columns of u."""
    return State(u[:, cols] @ u[:, cols].conj().T / len(cols))


@pytest.mark.parametrize("dim", range(2, 9))
def test_semi_trivial_superop_matches_the_closed_form(dim):
    rng = np.random.default_rng(270 + dim)
    u = matcore.random_unitary(dim, rng)
    povm = observables.random_observable(dim, rng, 3).effects
    states = effects.random_states(dim, rng, 3)
    rest = complement(_projection(u, [0])).op
    cases = [
        [(effects.random_effect(dim, rng), effects.random_state(dim, rng))],
        list(zip(povm, states)),
        [(_projection(u, [0]), _mixed_on(u, [1])),
         (Effect(rest @ (0.5 * effects.random_effect(dim, rng).op) @ rest),
          _mixed_on(u, [0, 1]))],
        [(effects.zero_effect(dim), states[0]), (_projection(u, [1]), states[1])],
    ]
    for pairs in cases:
        ops_ = [ops.semi_trivial(pairs)] + ([ops.trivial(*pairs[0])] if len(pairs) == 1 else [])
        for op in ops_:
            assert matcore.max_abs(op.superop - _closed_form_superop(pairs)) <= 1e-12
            assert matcore.max_abs(op.induced.op - sum(a.op for a, _ in pairs)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_semi_trivial_family_size_is_the_product_of_ranks(dim):
    # a rank-r projection with a rank-s state gives r * s operators
    u = matcore.random_unitary(dim, np.random.default_rng(280 + dim))
    for r in range(1, dim + 1):
        for s in (1, dim - r + 1):
            a, alpha = _projection(u, list(range(r))), _mixed_on(u, list(range(dim - s, dim)))
            assert ops.trivial(a, alpha).n_kraus == r * s
            if r < dim:
                rest = _projection(u, list(range(r, dim)))
                pairs = [(a, alpha), (rest, _mixed_on(u, [0]))]
                assert ops.semi_trivial(pairs).n_kraus == r * s + dim - r


def test_trivial_accepts_pairs_at_the_psd_tol_edge():
    # an effect with top eigenvalue 1 + 0.99 PSD_TOL and a state with an
    # eigenvalue -0.99 PSD_TOL, both accepted: the state's factor leaves the
    # negative part out, and unless it is scaled back to unit trace the induced
    # effect rises past 1 + PSD_TOL
    rng = np.random.default_rng(41)
    for dim in range(2, 9):
        for _ in range(5):
            values = rng.uniform(0.0, 1.0, size=dim)
            values[-1] = 1.0 + 0.99 * matcore.PSD_TOL
            u = matcore.random_unitary(dim, rng)
            a = Effect((u * values) @ u.conj().T)
            weights = rng.uniform(0.1, 1.0, size=dim)
            weights /= weights.sum()
            weights[:2] += np.array([-1.0, 1.0]) * (weights[0] + 0.99 * matcore.PSD_TOL)
            w = matcore.random_unitary(dim, rng)
            alpha = State((w * weights) @ w.conj().T)
            for op in (ops.trivial(a, alpha), ops.semi_trivial([(a, alpha)])):
                assert matcore.max_abs(op.induced.op - a.op) <= 1e-12
                # the output state is alpha without its negative part, renormalized
                gap = matcore.max_abs(op.superop - _closed_form_superop([(a, alpha)]))
                assert gap <= 2 * matcore.PSD_TOL


def test_zero_effect_gives_the_one_zero_operator():
    for dim in (2, 5, 8):
        alpha = effects.random_state(dim, np.random.default_rng(dim))
        for op in (ops.trivial(effects.zero_effect(dim), alpha),
                   ops.semi_trivial([(effects.zero_effect(dim), alpha)] * 2)):
            assert op.kraus.shape == (1, dim, dim) and not op.kraus.any()


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


def _subunital_families(dim, lengths, rng):
    """Kraus families of the given lengths whose joint sum A†A is below I."""
    fams = [rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
            for n in lengths]
    inv_root = matcore.inv_sqrt_pd(sum(ops._hat_matrix(f) for f in fams) + np.eye(dim))
    return [np.einsum("nij,jk->nik", f, inv_root) for f in fams]


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_operations_equal_the_scalar_constructor(dim):
    # repeated and mixed shapes, shuffled, some longer than dim²: the members come
    # back in input order, grouped by shape and bounded per group
    rng = np.random.default_rng(900 + dim)
    lengths = [1, 2, 2, dim * dim, dim * dim + 3, dim * dim + 3, 3 * dim * dim, 1, 2]
    rng.shuffle(lengths)
    fams = _subunital_families(dim, lengths, rng)
    recipes = [{"kind": "x", "member": k} if k % 3 else None for k in range(len(fams))]
    stacked = ops._operations([f.copy() for f in fams], recipes)
    for got, fam in zip(stacked, fams):
        want = ops.Operation(fam.copy())
        assert np.array_equal(got.kraus, want.kraus)
        assert np.array_equal(got.induced.op, want.induced.op)
        assert ops.hat(got) is got.induced and got.n_kraus <= dim * dim
        with pytest.raises(ValueError):
            got.kraus[0, 0, 0] = 0.0
    assert [o.recipe for o in stacked] == recipes


def _einsum_compose_kraus(i, j):
    """The Kraus products of ``compose`` as first written, kept as a reference."""
    return np.einsum("jab,ibc->jiac", j, i).reshape(-1, i.shape[1], i.shape[1])


@pytest.mark.parametrize("dim", range(2, 9))
def test_compose_kraus_matches_the_einsum_reference(dim):
    rng = np.random.default_rng(1000 + dim)
    for ni, nj in ((1, 1), (1, 3), (2, 5), (dim * dim, dim)):
        i = rng.standard_normal((ni, dim, dim)) + 1j * rng.standard_normal((ni, dim, dim))
        j = rng.standard_normal((nj, dim, dim)) + 1j * rng.standard_normal((nj, dim, dim))
        want = _einsum_compose_kraus(i, j)
        got = ops._compose_kraus(i, j)
        assert got.shape == want.shape
        assert matcore.max_abs(got - want) <= 1e-15 * max(1.0, matcore.max_abs(want))


def test_stacked_validation_rejects_as_the_scalar_one():
    rng = np.random.default_rng(1100)
    good = _subunital_families(3, (2, 2), rng)
    with pytest.raises(NotSubunital):
        ops._operations(good + [np.stack([np.eye(3), np.eye(3)])])
    with pytest.raises(NotEffect):
        effects._computed(Effect, np.array([good[0][0] @ good[0][0].conj().T, 2 * np.eye(3)]))
    bad = good[1].copy()
    bad[0, 1, 1] = np.nan
    for call in (lambda: ops._operations(good + [bad]),  # non-finite member
                 lambda: ops._operations(good + _subunital_families(2, (1,), rng)),  # dims
                 lambda: effects._computed(Effect, np.eye(9, dtype=complex)[None]),  # dim
                 # ragged, non-Hermitian and empty input is the caller's, which only
                 # the constructor reads: the library computes none of them
                 lambda: Effect([[1.0, 0.0], [0.0]]),
                 lambda: Effect(np.triu(np.ones((3, 3)))),
                 lambda: Effect(np.zeros((0, 0)))):
        with pytest.raises(DimensionError):
            call()


# The Kraus contractions as BLAS matrix products, against their einsum forms.

def _family(rng, n, dim):
    return rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))


def _close(got, want):
    return matcore.max_abs(got - want) <= 1e-14 * max(1.0, matcore.max_abs(want))


@pytest.mark.parametrize("dim", range(2, 9))
def test_kraus_kernels_match_their_einsum_forms(dim):
    rng = np.random.default_rng(1200 + dim)
    for n in (1, 3, dim * dim, dim * dim + 3):
        fam = _family(rng, n, dim)
        hat = ops._hat_matrix(fam)
        assert _close(hat, np.einsum("nij,nik->jk", fam.conj(), fam))
        a = matcore.random_hermitian(dim, rng)
        assert _close(ops._sandwich(fam, a), np.einsum("nji,jk,nkl->il", fam.conj(), a, fam))
        op = ops.Operation(_subunital_families(dim, (n,), rng)[0])
        m = _family(rng, 1, dim)[0]  # apply is linear: any matrix, not only states
        want = np.einsum("nij,jk,nlk->il", op.kraus, m, op.kraus.conj())
        assert _close(ops.apply(op, m), want)


@pytest.mark.parametrize("dim", range(2, 9))
def test_huge_families_are_not_subunital_rather_than_not_hermitian(dim):
    # a hat with entries of 1e4-1e10 is Hermitian to rounding only as one GEMM
    # computes it, far beyond HERM_TOL; symmetrized, it is rejected as what it is
    rng = np.random.default_rng(1300 + dim)
    for scale in (1e2, 1e3, 1e4, 1e5):
        fam = scale * _family(rng, 3, dim)
        with pytest.raises(NotSubunital):
            ops.Operation(fam)
        with pytest.raises(NotSubunital):
            ops._operations([fam])


def _instrument(dim, lengths, rng):
    """An instrument with one member per family length, the families normalized to sum
    to a channel."""
    fams = [_family(rng, n, dim) for n in lengths]
    inv_root = matcore.inv_sqrt_pd(sum(ops._hat_matrix(f) for f in fams))
    return instruments.Instrument(tuple(f"x{k}" for k in range(len(fams))),
                                  tuple(ops.Operation(f @ inv_root) for f in fams))


@pytest.mark.parametrize("dim", range(2, 9))
def test_product_members_are_the_composed_operations(dim):
    rng = np.random.default_rng(1500 + dim)
    # the pairs fall into several size groups, some longer than dim² once composed
    i = _instrument(dim, (1, dim, 2, dim * dim), rng)
    j = _instrument(dim, (3, 1, dim * dim), rng)
    product = instruments.inst_seq_product(i, j)
    for got, (u, v) in zip(product.ops, [(u, v) for u in i.ops for v in j.ops]):
        want = ops.compose(u, v)
        assert np.array_equal(got.kraus, want.kraus)
        assert np.array_equal(got.induced.op, want.induced.op)
    # random operations are Lueders filters composed with channels the same way
    n = matcore.STACK_BREAK_EVEN
    drawn = ops.random_operations(dim, np.random.default_rng(dim), n)
    rng = np.random.default_rng(dim)
    filters, channels = effects.random_effects(dim, rng, n), ops.random_channels(dim, rng, n)
    for got, e, c in zip(drawn, filters, channels):
        want = ops.compose(ops.luders(e), c)
        assert np.array_equal(got.kraus, want.kraus)
        assert np.array_equal(got.induced.op, want.induced.op)


# The induced effect goes from ``_hat_matrix`` straight to ``effects._computed``,
# which symmetrizes it once; that is sound only if what it stores is what the
# caller-input reader would make of it, exactly Hermitian.

def _families(dim, n, scale, rng, lead=()):
    """Ginibre Kraus families (lead..., n, dim, dim) with entries of size ``scale``."""
    x = rng.standard_normal((*lead, n, 2, dim, dim))
    return scale * (x[..., 0, :, :] + 1j * x[..., 1, :, :])


@pytest.mark.parametrize("dim", range(2, 9))
def test_hat_matrix_is_exactly_hermitian(dim):
    rng = np.random.default_rng(2100 + dim)
    for n in (1, 3, dim * dim, dim * dim + 3):
        for scale in (1e-3, 1.0, 1e5):
            for lead in ((), (4,)):
                hats = ops._hat_matrix(_families(dim, n, scale, rng, lead)).reshape(-1, dim, dim)
                # scaled by their traces into [0, I], the hats are effects
                raw = hats / np.trace(hats, axis1=1, axis2=2).real[:, None, None]
                stored = np.array([e.op for e in effects._computed(Effect, raw)])
                assert np.array_equal(stored, matcore._adjoint(stored))
                assert stored.tobytes() == matcore._hermitian_part(raw).tobytes()
                # so the reader's symmetrization, which the entry skips, is a no-op
                again = matcore._as_hermitian_stack(stored)
                assert again.tobytes() == stored.tobytes()


def test_stacked_induced_effects_equal_the_scalar_ones_bit_for_bit():
    rng = np.random.default_rng(2110)
    families = [np.array(ops.random_channel(3, rng, k).kraus) / 2 for k in (1, 3, 1, 2, 3)]
    stacked = ops._operations(families)
    for family, member in zip(families, stacked):
        alone = ops.Operation(family)
        assert member.induced.op.tobytes() == alone.induced.op.tobytes()
        assert member.induced.op.tobytes() == Effect(ops._hat_matrix(family)).op.tobytes()
        assert not member.induced.op.flags.writeable and not alone.induced.op.flags.writeable


@pytest.mark.parametrize("build", [
    lambda f: ops.Operation(f),
    lambda f: ops._operations([f, f[:1] * 1e-170]),
    lambda f: ops._operations([f[:1] * 1e-170, f[:2]]),
    lambda f: instruments.kraus_instrument([f[0]]),
    lambda f: ops.Operation(np.concatenate([f] * 3)),
], ids=["operation", "stacked", "stacked-second-group", "kraus-instrument", "compressed"])
def test_overflowing_hat_is_a_dimension_error_without_warnings(build):
    # entries near 1e160 square past the largest float: the hat is not finite,
    # and the reader of the Jacobi fallback rejects it, as it did the hat itself
    family = np.full((2, 2, 2), 1e160 + 1e160j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="non-finite"):
            build(family)


@pytest.mark.parametrize("dim", range(2, 9))
def test_bounded_is_numpys_qr_r_bit_for_bit(dim):
    rng = np.random.default_rng(2120 + dim)
    for lead in ((), (3,)):
        for n in (dim * dim + 1, 2 * dim * dim + 3):
            for scale in (1e-3, 1.0, 1e150, 1e300):
                family = _families(dim, n, scale, rng, lead)
                family.setflags(write=False)
                before = family.copy()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = ops._bounded(family)
                want = np.linalg.qr(family.reshape(*lead, n, dim * dim), mode="r")
                assert got.shape == (*lead, dim * dim, dim, dim)
                assert got.tobytes() == want.tobytes()
                assert family.tobytes() == before.tobytes()
    short = _families(dim, dim * dim, 1.0, rng)
    assert ops._bounded(short) is short

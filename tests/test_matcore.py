import numpy as np
import pytest

from seqmeas import effects, instruments, matcore, observables, operations
from seqmeas.errors import DimensionError, NotPositive, SamplingError

HALF = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_eig_diagonal_is_exact():
    spec = matcore.eig_hermitian(np.diag([0.0, 1.0]).astype(complex))
    assert np.array_equal(spec.eigenvalues, [0.0, 1.0])
    assert np.array_equal(spec.eigenvectors, np.eye(2))


def test_eig_projection_eigenvalues():
    # characteristic polynomial of [[.5,.5],[.5,.5]] is l(l-1) = 0
    spec = matcore.eig_hermitian(HALF)
    assert np.allclose(spec.eigenvalues, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_eig_reconstruction_and_gram(dim):
    rng = np.random.default_rng(1234 + dim)
    for _ in range(20):
        m = matcore.random_hermitian(dim, rng)
        spec = matcore.eig_hermitian(m)
        assert matcore.max_abs(spec.reconstruct() - m) <= 1e-9
        gram = matcore.dagger(spec.eigenvectors) @ spec.eigenvectors
        assert matcore.max_abs(gram - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-15)


def test_eig_residual_vectors():
    rng = np.random.default_rng(7)
    m = matcore.random_hermitian(5, rng)
    spec = matcore.eig_hermitian(m)
    for k in range(5):
        v = spec.eigenvectors[:, k]
        assert np.linalg.norm(m @ v - spec.eigenvalues[k] * v) <= 1e-9


def test_eig_rejects_non_hermitian():
    with pytest.raises(DimensionError):
        matcore.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_psd_diagonal():
    r = matcore.sqrt_psd(np.diag([1.0, 0.25]).astype(complex))
    assert np.allclose(r, np.diag([1.0, 0.5]), atol=1e-12)


def test_sqrt_psd_identity():
    assert np.allclose(matcore.sqrt_psd(matcore.identity(3)), np.eye(3), atol=1e-12)


def test_sqrt_psd_projection_is_itself():
    assert matcore.max_abs(matcore.sqrt_psd(HALF) - HALF) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_sqrt_psd_squares_back(dim):
    rng = np.random.default_rng(99 + dim)
    for _ in range(20):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ matcore.dagger(g) / dim
        r = matcore.sqrt_psd(m)
        assert matcore.is_psd(r)
        assert matcore.max_abs(r @ r - m) <= 1e-9


def test_sqrt_psd_clamps_roundoff_negatives():
    m = np.diag([1.0, -0.5 * matcore.PSD_TOL]).astype(complex)
    r = matcore.sqrt_psd(m)
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-9)


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPositive):
        matcore.sqrt_psd(np.diag([1.0, -1e-6]).astype(complex))


def test_inv_sqrt_pd():
    r = matcore.inv_sqrt_pd(np.diag([4.0, 0.25]).astype(complex))
    assert np.allclose(r, np.diag([0.5, 2.0]), atol=1e-12)
    # at or below the floor the caller must redraw
    assert matcore.inv_sqrt_pd(HALF) is None
    assert matcore.inv_sqrt_pd(np.diag([1.0, 1e-6]).astype(complex)) is None


def test_loewner_trivial_cases():
    ident = matcore.identity(2)
    assert matcore.loewner_leq(np.diag([0.3, 0.3]).astype(complex), ident)
    # incomparable projections
    assert not matcore.loewner_leq(np.diag([1.0, 0.0]).astype(complex),
                                   np.diag([0.0, 1.0]).astype(complex))
    # I - [[.5,.5],[.5,.5]] has eigenvalues {0, 1}
    assert matcore.loewner_leq(HALF, ident)


def test_loewner_dim_mismatch():
    with pytest.raises(DimensionError):
        matcore.loewner_leq(matcore.identity(2), matcore.identity(3))


def test_loewner_order_properties():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        a = matcore.random_effect(dim, rng)
        b = matcore.random_effect(dim, rng)
        c = matcore.random_effect(dim, rng)
        assert matcore.loewner_leq(a, a)
        if matcore.loewner_leq(a, b) and matcore.loewner_leq(b, c):
            assert matcore.loewner_leq(a, c, tol=3 * matcore.PSD_TOL)
        if matcore.loewner_leq(a, b) and matcore.loewner_leq(b, a):
            assert matcore.max_abs(a - b) <= 1e-8


def test_random_state_is_normalized():
    rng = np.random.default_rng(1)
    rho = matcore.random_state(2, rng)
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert matcore.is_psd(rho)


def test_random_effect_spectrum_in_unit_interval():
    rng = np.random.default_rng(7)
    e = matcore.random_effect(3, rng)
    assert matcore.loewner_leq(np.zeros((3, 3)), e)
    assert matcore.loewner_leq(e, matcore.identity(3))


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(3)
    u = matcore.random_unitary(4, rng)
    assert matcore.max_abs(matcore.dagger(u) @ u - np.eye(4)) <= 1e-10


def test_random_generators_reject_bad_dim():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        matcore.random_state(1, rng)
    with pytest.raises(DimensionError):
        matcore.random_unitary(9, rng)


@pytest.mark.parametrize("generator", [operations.random_channel, observables.random_observable,
                                       instruments.random_instrument,
                                       instruments.random_kraus_instrument])
def test_normalizing_generators_stop_after_bounded_draws(generator, monkeypatch):
    # A Gram sum that never normalizes must end in SamplingError, not a hang.
    monkeypatch.setattr(matcore, "inv_sqrt_pd", lambda m: None)
    with pytest.raises(SamplingError, match="positive definite"):
        generator(2, np.random.default_rng(0))


def _members(obj) -> list[np.ndarray]:
    """The matrices an object is made of: its op, its Kraus family, or its members'."""
    if isinstance(obj, (observables.Observable, instruments.Instrument)):
        return [m for member in obj._members for m in _members(member)]
    return [obj.kraus if isinstance(obj, operations.Operation) else obj.op]


@pytest.mark.parametrize("stacked, single", [
    (effects.random_effects, effects.random_effect),
    (effects.random_states, effects.random_state),
    (observables.random_observables, observables.random_observable),
    (operations.random_channels, operations.random_channel),
    (instruments.random_instruments, instruments.random_instrument),
    (instruments.random_kraus_instruments, instruments.random_kraus_instrument),
])
@pytest.mark.parametrize("n", [3, 12])
def test_stacked_generators_draw_what_single_calls_draw(stacked, single, n):
    # one stacked draw of n, or n single draws: the same draws, so the same
    # matrices, bit for bit below break-even; from break-even on, the stacked
    # normalizers round differently from the scalar ones
    for dim in (2, 3):
        many = stacked(dim, np.random.default_rng(dim), n)
        rng = np.random.default_rng(dim)
        ones = [single(dim, rng) for _ in range(n)]
        assert len(many) == n
        for x, y in zip(many, ones):
            pairs = list(zip(_members(x), _members(y), strict=True))
            if n < matcore.STACK_BREAK_EVEN:
                assert all(np.array_equal(a, b) for a, b in pairs)
            else:
                assert all(matcore.max_abs(a - b) <= 1e-12 for a, b in pairs)


def test_stacked_operations_are_lueders_filters_before_stacked_channels():
    # n effects, then n channels: member k is effect_then_op(effect k, channel k)
    ops = operations.random_operations(3, np.random.default_rng(5), 12)
    rng = np.random.default_rng(5)
    filters = effects.random_effects(3, rng, 12)
    for op, e, c in zip(ops, filters, operations.random_channels(3, rng, 12), strict=True):
        assert np.array_equal(op.kraus, operations.effect_then_op(e, c).kraus)
        assert np.array_equal(op.induced.op, operations.effect_then_op(e, c).induced.op)


def test_stacked_generators_take_one_size_per_draw():
    povms = observables.random_observables(2, np.random.default_rng(0), 3, n_outcomes=[2, 4, 3])
    assert [len(p.outcomes) for p in povms] == [2, 4, 3]
    with pytest.raises(DimensionError, match="one size per draw"):
        observables.random_observables(2, np.random.default_rng(0), 3, n_outcomes=[2, 3])
    with pytest.raises(DimensionError, match="n_kraus"):
        operations.random_channels(2, np.random.default_rng(0), 2, n_kraus=[1, 0])
    for n in (0, -1, 2.0, None):
        with pytest.raises(DimensionError, match="number of draws"):
            effects.random_states(2, np.random.default_rng(0), n)


def test_identity_is_fresh_and_the_cached_one_read_only():
    # measures compare their member sum against one shared identity per dim
    fresh = matcore.identity(3)
    assert fresh.flags.writeable and fresh is not matcore.identity(3)
    fresh[0, 0] = 2.0
    assert np.array_equal(matcore.identity(3), np.eye(3))
    shared = matcore._identity(3)
    assert shared is matcore._identity(3) and not shared.flags.writeable
    assert np.array_equal(shared, np.eye(3)) and shared.dtype == complex

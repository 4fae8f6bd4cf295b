"""Effects and states: order, complement, orthosum, sequential product,
sharp/atomic predicates and (conditional) probabilities.

An effect is an operator a with 0 <= a <= I in the Loewner order; a state is a
positive operator with unit trace. The sequential product a o b = a^{1/2} b a^{1/2}
is the effect of measuring a first and b second.

Objects are validated once, at construction, and carry what they derive: an
effect its root a^{1/2} (``Effect.root``), computed on first use and kept. A
state's eigendecomposition (``State.spectrum``) is computed on first use too;
nothing in the library reads it.

The stacked generators (``random_effects`` and those of observables,
operations and instruments) draw many effects at once and seed their roots:
they write each root, frozen, into the effect's ``__dict__``, where the cached
property finds it. A drawn effect u diag(values) u† has its root read off the
drawn eigendecomposition itself, at any number of effects, with no solve; the
effects of a random observable have theirs from ``matcore._solve_stack``, which
alone decides between scalar and stacked solves (``STACK_BREAK_EVEN``). A
seeded root is read-only, like a computed one, and agrees with what the first
use would compute to rounding. The effects of a projective observable, of the
sure observable (``identity_observable``) and ``atomic_projection`` are seeded
with no solve, since a projection's root is the projection itself (|v><v| / |v|
for a rank-one one). Random states are validated as one stack (``_states``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import matcore
from .errors import ConditioningOnNull, DimensionError, NotEffect, NotPerp, NotState, WeightError
from .matcore import EQ_TOL, PSD_TOL, _frozen, max_abs

COND_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Effect:
    """Operator a with spectrum in [0, 1] (within PSD_TOL).

    The stored matrix is the Hermitian symmetrization of the input. Violations
    of the unit interval beyond PSD_TOL are rejected, not clamped; silent
    clamping would mask law-check failures downstream. Membership is certified
    by one Cholesky call on both sides, a and I - a (``_certified_in_unit``);
    only an input it does not certify is diagonalized, and Jacobi's bounds
    decide it, so the verdict is always Jacobi's.

    The constructor serves a caller's matrix. The induced effect of an
    operation is exactly Hermitian as ``operations._hat_matrix`` makes it, so
    it is certified by ``_hermitian_effects`` with the same checks and
    verdicts, without a second symmetrization.
    """

    op: np.ndarray

    def __post_init__(self):
        m = matcore.as_hermitian(self.op)
        matcore.check_dim(m.shape[0])
        if not _certified_in_unit(m):
            _check_unit_interval(m)
        object.__setattr__(self, "op", _frozen(m))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @cached_property
    def root(self) -> np.ndarray:
        """The positive square root a^{1/2} (read-only)."""
        return _frozen(matcore.sqrt_psd(self.op))


def _check_unit_interval(m: np.ndarray) -> None:
    """Jacobi's verdict on 0 <= m <= I, for a Hermitian m the certificate declined."""
    lo, hi = matcore.spectral_bounds(m)
    if lo < -PSD_TOL or hi > 1.0 + PSD_TOL:
        raise NotEffect(f"spectrum [{lo:.6g}, {hi:.6g}] escapes [0, 1]")


_SIDES = _frozen(np.array([1.0, -1.0])[:, None, None])


@cache
def _unit_offsets(dim: int) -> np.ndarray:
    """[s I, (1 + s) I], s = PSD_TOL / 2 (read-only): m * _SIDES + these = both shifted sides."""
    shift = matcore._half_tol_identity(dim, PSD_TOL)
    return _frozen(np.stack([shift, matcore.identity(dim) + shift]))


def _certified_in_unit(m: np.ndarray) -> np.ndarray:
    """The certificate of 0 <= m <= I for a Hermitian m, or one per matrix of a
    stack: both shifted sides in one ``matcore._cholesky_completes`` call, sound as
    ``matcore._psd_certified_stack`` is. Its norm guard is implied: both sides
    complete only when every diagonal entry of each is in (0, 1 + PSD_TOL)."""
    sides = m[..., None, :, :] * _SIDES + _unit_offsets(m.shape[-1])
    completes = matcore._cholesky_completes(sides)
    return completes[..., 0] & completes[..., 1]


def _effects(mats) -> tuple[Effect, ...]:
    """``Effect(m)`` for every matrix of a stack, validated as one stack: the stack
    is read and symmetrized as ``Effect`` reads one matrix
    (``matcore._as_hermitian_stack``: finite square matrices, Hermitian within
    HERM_TOL), then certified by ``_hermitian_effects``. Each stored matrix is
    bit for bit the one ``Effect`` stores; the members share one read-only
    array.
    """
    return _hermitian_effects(matcore._as_hermitian_stack(mats))


def _hermitian_effects(m: np.ndarray) -> tuple[Effect, ...]:
    """The effects of a stack (n, d, d) of matrices the library has already made
    exactly Hermitian, certified with nothing read or symmetrized again: the
    checks of ``Effect`` after its symmetrization, a supported dim and 0 <= m <=
    I by one Cholesky call on both sides of every member
    (``_certified_in_unit``), Jacobi deciding every member it declines. The
    stack is frozen and shared by its members.

    ``_effects`` reaches it after reading a caller's stack; elsewhere only
    ``operations`` calls it, on the induced effects its ``_hat_matrix`` makes.
    """
    matcore.check_dim(m.shape[-1])
    for k, certified in enumerate(_certified_in_unit(m).tolist()):
        if not certified:
            _check_unit_interval(m[k])
    return tuple(_validated(Effect, op=x) for x in _frozen(m))


def _validated(cls, **fields):
    """An instance of a frozen dataclass from fields already validated, without
    running its constructor's checks again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class State:
    """Positive operator rho with tr(rho) = 1."""

    op: np.ndarray

    def __post_init__(self):
        m = matcore.as_hermitian(self.op)
        matcore.check_dim(m.shape[0])
        _check_state(m, matcore.psd_certified(m), np.trace(m).real)
        object.__setattr__(self, "op", _frozen(m))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @cached_property
    def spectrum(self) -> matcore.Spectrum:
        """Eigendecomposition of rho, with read-only arrays."""
        spec = matcore.eig_hermitian(self.op)
        return matcore.Spectrum(_frozen(spec.eigenvalues), _frozen(spec.eigenvectors))


def _check_state(m: np.ndarray, certified: bool, trace: float) -> None:
    """The checks of ``State`` on a Hermitian m with its certificate verdict and
    trace: positive semidefinite (Jacobi decides when not certified), then unit
    trace."""
    if not (certified or matcore.spectral_bounds(m)[0] >= -PSD_TOL):
        raise NotState("state is not positive semidefinite")
    if abs(trace - 1.0) > 1e-10:
        raise NotState(f"tr(rho) = {trace!r} != 1")


def _states(mats) -> tuple[State, ...]:
    """``State(m)`` for every matrix of a stack, validated as one stack.

    The checks are those of ``State``: finite square Hermitian matrices of a
    supported dim, certified positive by one Cholesky call for the stack
    (``matcore._psd_certified_stack``), with unit traces checked at once. Only
    a member the certificate declines, or whose trace is off, is checked alone,
    Jacobi deciding; the first failing member raises ``State``'s ``NotState``.
    Each stored matrix is bit for bit the one ``State`` stores; the members
    share one read-only array.
    """
    m = _frozen(matcore._as_hermitian_stack(mats))
    matcore.check_dim(m.shape[1])
    certified = matcore._psd_certified_stack(m)
    traces = np.trace(m, axis1=1, axis2=2).real
    for k in np.flatnonzero(~certified | (np.abs(traces - 1.0) > 1e-10)):
        _check_state(m[k], certified[k], traces[k])
    return tuple(_validated(State, op=x) for x in m)


def _check_type(obj, cls, error, what: str | None = None) -> None:
    """Raise ``error`` for a caller's non-``cls`` where a ``cls`` is required (a bare
    matrix is not validated as an effect, a state or an operation); ``what``
    names the requirement when the class name does not."""
    if not isinstance(obj, cls):
        if what is None:
            what = ("an " if cls.__name__[0] in "AEIOU" else "a ") + cls.__name__
        raise error(f"expected {what}, got {type(obj).__name__}")


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((dim, dim), dtype=complex))


def unit_effect(dim: int) -> Effect:
    return Effect(matcore.identity(dim))


def complement(a: Effect) -> Effect:
    """The effect a' = I - a."""
    _check_type(a, Effect, NotEffect)
    return Effect(matcore.identity(a.dim) - a.op)


def perp(a: Effect, b: Effect) -> bool:
    """True iff a + b is still an effect, i.e. a + b <= I."""
    _check_type(a, Effect, NotEffect)
    _check_type(b, Effect, NotEffect)
    matcore.check_same_dim(a.op, b.op)
    return matcore.loewner_leq(a.op + b.op, matcore.identity(a.dim))


def orthosum(a: Effect, b: Effect) -> Effect:
    """Parallel sum a + b; requires perp(a, b)."""
    if not perp(a, b):
        raise NotPerp("a + b exceeds the identity")
    return Effect(a.op + b.op)


def seq_product(a: Effect, b: Effect) -> Effect:
    """Sequential product a o b = a^{1/2} b a^{1/2} (measure a, then b)."""
    _check_type(a, Effect, NotEffect)
    _check_type(b, Effect, NotEffect)
    matcore.check_same_dim(a.op, b.op)
    return Effect(a.root @ b.op @ a.root)


def convex_combine(effects: list[Effect], weights) -> Effect:
    try:
        weights = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise WeightError(f"weights are not real numbers: {exc}") from None
    if weights.ndim != 1 or len(effects) != weights.size:
        raise WeightError("one weight per effect required")
    if np.any(weights < 0):
        raise WeightError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise WeightError(f"weights sum to {weights.sum()!r}, not 1")
    for e in effects:
        _check_type(e, Effect, NotEffect)
    if len({e.dim for e in effects}) > 1:
        raise DimensionError("effects of different dimensions cannot be combined")
    out = sum(w * e.op for w, e in zip(weights, effects))
    return Effect(out)


def is_sharp(a: Effect, tol: float = EQ_TOL) -> bool:
    """Sharp effects are projections: a^2 = a."""
    _check_type(a, Effect, NotEffect)
    return max_abs(a.op @ a.op - a.op) <= tol


def is_atomic(a: Effect, tol: float = EQ_TOL) -> bool:
    """Atomic effects are one-dimensional projections."""
    return is_sharp(a, tol) and abs(np.trace(a.op).real - 1.0) <= 1e-9


def prob(rho: State, a: Effect) -> float:
    """P_rho(a) = tr(rho a), clamped into [0, 1]."""
    _check_type(rho, State, NotState)
    _check_type(a, Effect, NotEffect)
    matcore.check_same_dim(rho.op, a.op)
    value = np.trace(rho.op @ a.op).real
    return min(1.0, max(0.0, value))


def cond_prob(rho: State, b: Effect, given: Effect) -> float:
    """P_rho(b | a) = P_rho(a o b) / P_rho(a).

    Raises ConditioningOnNull when P_rho(a) <= COND_FLOOR rather than
    propagating a 0/0 NaN.
    """
    a = given
    denom = prob(rho, a)
    if denom <= COND_FLOOR:
        raise ConditioningOnNull(f"P_rho(a) = {denom!r} below {COND_FLOOR:.0e}")
    return prob(rho, seq_product(a, b)) / denom


def atomic_projection(vector: np.ndarray) -> Effect:
    """Rank-one projection |v><v| for a unit vector v. Its root |v><v| / |v| is
    filled in with no solve."""
    v = matcore._read(vector, "vector", (1,))
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise NotEffect(f"vector norm {norm!r} != 1")
    a = Effect(_ket_bra(v))
    return _seeded((a,), [a.op / norm])[0]


def _ket_bra(vector) -> np.ndarray:
    """|v><v| for a vector read by ``matcore._read``: the one rank-one builder."""
    v = matcore._read(vector, "vector", (1,))
    return np.outer(v, v.conj())


def _seeded(effs: tuple[Effect, ...], roots) -> tuple[Effect, ...]:
    """``effs``, each with its cached ``root`` filled in with its root, frozen."""
    for e, root in zip(effs, roots):
        e.__dict__["root"] = _frozen(root)
    return effs


def _with_roots(effs: tuple[Effect, ...]) -> tuple[Effect, ...]:
    """``effs``, their roots filled from ``matcore._solve_stack``: scalar solves
    below its break-even, one stacked solve from there on."""
    return _seeded(effs, matcore._solve_stack("root", [e.op for e in effs]))


def random_effects(dim: int, rng: np.random.Generator, n: int) -> tuple[Effect, ...]:
    """n random effects, drawn as n ``random_effect`` calls would draw them, each
    with the root read off its drawn eigendecomposition, with no solve at any n."""
    ops, roots = matcore._random_effects(dim, rng, n)
    return _seeded(_effects(ops), roots)


def random_effect(dim: int, rng: np.random.Generator) -> Effect:
    return random_effects(dim, rng, 1)[0]


def random_states(dim: int, rng: np.random.Generator, n: int) -> tuple[State, ...]:
    """n random states, drawn as n ``random_state`` calls would draw them and
    validated as one stack (``_states``)."""
    return _states(matcore._random_states(dim, rng, n))


def random_state(dim: int, rng: np.random.Generator) -> State:
    return random_states(dim, rng, 1)[0]

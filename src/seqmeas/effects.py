"""Effects and states: order, complement, orthosum, sequential product,
sharp/atomic predicates and (conditional) probabilities.

An effect is an operator a with 0 <= a <= I in the Loewner order; a state is a
positive operator with unit trace. The sequential product a o b = a^{1/2} b a^{1/2}
is the effect of measuring a first and b second.

Objects are validated once, at construction, and carry what they derive: an
effect its root a^{1/2} (``Effect.root``), computed on first use and kept. A
state's eigendecomposition (``State.spectrum``) is computed on first use too;
nothing in the library reads it.

Each type has one check, ``_check_effects`` (a supported dim, 0 <= a <= I) and
``_check_states`` (a supported dim, rho >= 0, unit trace), run on a Hermitian
stack, a single matrix being a stack of one. Membership is decided by
``matcore._first_outside``; the first failing member of a stack raises what
the constructor raises on it.

A matrix enters by one of two doors. ``Effect`` and ``State`` read caller
input (``matcore._read`` and the HERM_TOL gap test of ``as_hermitian``).
Every effect and state the library computes from validated operands (products,
complements, sums and mixes, ``operations.op_then_effect``, induced effects,
the members of observable products and parts, drawn effects and states) is
finite and Hermitian to rounding by construction, so it goes unread to
``_computed``: a matrix or a stack, symmetrized once by
``matcore._hermitian_part`` and checked, storing bit for bit what the
constructor stores of that symmetrization, or failing alike.

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
for a rank-one one). Random states are validated as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import ConditioningOnNull, DimensionError, NotEffect, NotPerp, NotState, WeightError
from .matcore import EQ_TOL, _frozen, max_abs

COND_FLOOR = 1e-12


def _check_effects(m: np.ndarray) -> None:
    """The checks of an effect on each member of a Hermitian stack (n, d, d), or of
    one matrix as a stack of one: a supported dim, then 0 <= m <= I
    (``matcore._first_outside``); the first member outside raises ``NotEffect``
    with its spectrum."""
    matcore.check_dim(m.shape[-1])
    outside = matcore._first_outside(m, True)
    if outside is not None:
        _, lo, hi = outside
        raise NotEffect(f"spectrum [{lo:.6g}, {hi:.6g}] escapes [0, 1]")


def _check_states(m: np.ndarray) -> None:
    """The checks of a state on each member of a Hermitian stack (n, d, d), or of
    one matrix as a stack of one: a supported dim, then, member by member,
    positive semidefinite (``matcore._first_outside``) and unit trace. The first
    failing member raises ``NotState``, as not positive when it fails both; so
    the cone is decided only up to the first member whose trace is off."""
    dim = matcore.check_dim(m.shape[-1])
    traces = [float(m.trace().real)] if m.ndim == 2 else m.trace(axis1=1, axis2=2).real.tolist()
    off = [k for k, trace in enumerate(traces) if abs(trace - 1.0) > 1e-10]
    if matcore._first_outside(m.reshape(-1, dim, dim)[:off[0] + 1] if off else m) is not None:
        raise NotState("state is not positive semidefinite")
    if off:
        raise NotState(f"tr(rho) = {traces[off[0]]!r} != 1")


@dataclass(frozen=True, eq=False)
class _Checked:
    """An operator checked once, at construction: the caller's matrix is read and
    symmetrized (``matcore.as_hermitian``), then checked as a stack of one by
    the class's ``_check``, the check ``_computed`` runs on what the library
    computes. The stored matrix is the symmetrization, read-only."""

    op: np.ndarray

    def __post_init__(self):
        m = _frozen(matcore.as_hermitian(self.op))
        self._check(m)
        object.__setattr__(self, "op", m)

    @property
    def dim(self) -> int:
        return self.op.shape[0]


@dataclass(frozen=True, eq=False)
class Effect(_Checked):
    """Operator a with spectrum in [0, 1] (within PSD_TOL).

    The stored matrix is the Hermitian symmetrization of the input. Violations
    of the unit interval beyond PSD_TOL are rejected, not clamped; silent
    clamping would mask law-check failures downstream.
    """

    _check = staticmethod(_check_effects)

    @cached_property
    def root(self) -> np.ndarray:
        """The positive square root a^{1/2} (read-only)."""
        return _frozen(matcore.sqrt_psd(self.op))


@dataclass(frozen=True, eq=False)
class State(_Checked):
    """Positive operator rho with tr(rho) = 1."""

    _check = staticmethod(_check_states)

    @cached_property
    def spectrum(self) -> matcore.Spectrum:
        """Eigendecomposition of rho, with read-only arrays."""
        spec = matcore.eig_hermitian(self.op)
        return matcore.Spectrum(_frozen(spec.eigenvalues), _frozen(spec.eigenvectors))


def _computed(cls, m: np.ndarray):
    """The one entry for what the library computes from validated operands: the
    ``cls`` (``Effect`` or ``State``) of a complex matrix (d, d), or a tuple of
    them for a stack (n, d, d), finite and Hermitian to rounding by
    construction, so not read as caller input. Symmetrized once
    (``matcore._hermitian_part``) and checked by the class's ``_check``, it stores
    bit for bit what ``cls`` stores of the symmetrization, or fails alike; the
    members of a stack share one read-only array."""
    m = _frozen(matcore._hermitian_part(m))
    cls._check(m)
    if m.ndim == 2:
        return _validated(cls, op=m)
    return tuple([_validated(cls, op=x) for x in m])


def _validated(cls, **fields):
    """An instance of a frozen dataclass from fields already validated, without
    running its constructor's checks again."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _check_type(obj, cls, error, what: str | None = None) -> None:
    """Raise ``error`` for a caller's non-``cls`` where a ``cls`` is required (a bare
    matrix is not validated as an effect, a state or an operation); ``what``
    names the requirement when the class name does not."""
    if not isinstance(obj, cls):
        if what is None:
            what = ("an " if cls.__name__[0] in "AEIOU" else "a ") + cls.__name__
        raise error(f"expected {what}, got {type(obj).__name__}")


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((matcore.check_dim(dim), dim), dtype=complex))


def unit_effect(dim: int) -> Effect:
    return Effect(matcore.identity(dim))


def complement(a: Effect) -> Effect:
    """The effect a' = I - a."""
    _check_type(a, Effect, NotEffect)
    return _computed(Effect, matcore.identity(a.dim) - a.op)


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
    return _computed(Effect, a.op + b.op)


def seq_product(a: Effect, b: Effect) -> Effect:
    """Sequential product a o b = a^{1/2} b a^{1/2} (measure a, then b)."""
    _check_type(a, Effect, NotEffect)
    _check_type(b, Effect, NotEffect)
    matcore.check_same_dim(a.op, b.op)
    return _computed(Effect, a.root @ b.op @ a.root)


def convex_combine(effects: list[Effect], weights) -> Effect:
    """The mix sum_k w_k e_k of effects of one dim, for finite nonnegative weights
    summing to 1; a weight that is not (NaN included) is a ``WeightError``,
    raised before any arithmetic. The effects are read once, from any iterable."""
    effects = matcore._sequence(effects, "effects")
    try:
        weights = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise WeightError(f"weights are not real numbers: {exc}") from None
    if weights.ndim != 1 or len(effects) != weights.size:
        raise WeightError("one weight per effect required")
    if np.count_nonzero(np.isfinite(weights)) < weights.size:
        raise WeightError("weights must be finite")
    if np.any(weights < 0):
        raise WeightError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise WeightError(f"weights sum to {float(weights.sum())!r}, not 1")
    for e in effects:
        _check_type(e, Effect, NotEffect)
    if len({e.dim for e in effects}) > 1:
        raise DimensionError("effects of different dimensions cannot be combined")
    return _computed(Effect, sum(w * e.op for w, e in zip(weights, effects)))


def is_sharp(a: Effect, tol: float = EQ_TOL) -> bool:
    """Sharp effects are projections: a^2 = a."""
    _check_type(a, Effect, NotEffect)
    return max_abs(a.op @ a.op - a.op) <= tol


def is_atomic(a: Effect, tol: float = EQ_TOL) -> bool:
    """Atomic effects are one-dimensional projections."""
    return is_sharp(a, tol) and abs(np.trace(a.op).real - 1.0) <= 1e-9


def _probability(x) -> float:
    """x clamped into [0, 1], as a Python float: the one rule every probability the
    library returns goes through, since rounding can carry one past either end
    by an ulp or more."""
    return min(1.0, max(0.0, float(x)))


def prob(rho: State, a: Effect) -> float:
    """P_rho(a) = tr(rho a), clamped into [0, 1], as a Python float."""
    _check_type(rho, State, NotState)
    _check_type(a, Effect, NotEffect)
    matcore.check_same_dim(rho.op, a.op)
    return _probability(np.trace(rho.op @ a.op).real)


def cond_prob(rho: State, b: Effect, given: Effect) -> float:
    """P_rho(b | a) = P_rho(a o b) / P_rho(a), clamped into [0, 1].

    Raises ConditioningOnNull when P_rho(a) <= COND_FLOOR rather than
    propagating a 0/0 NaN.
    """
    a = given
    denom = prob(rho, a)
    if denom <= COND_FLOOR:
        raise ConditioningOnNull(f"P_rho(a) = {denom!r} below {COND_FLOOR:.0e}")
    return _probability(prob(rho, seq_product(a, b)) / denom)


def atomic_projection(vector: np.ndarray) -> Effect:
    """Rank-one projection |v><v| for a unit vector v. Its root |v><v| / |v| is
    filled in with no solve."""
    v = matcore._read(vector, "vector", (1,))
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise NotEffect(f"vector norm {float(norm)!r} != 1")
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
    return _seeded(_computed(Effect, ops), roots)


def random_effect(dim: int, rng: np.random.Generator) -> Effect:
    return random_effects(dim, rng, 1)[0]


def random_states(dim: int, rng: np.random.Generator, n: int) -> tuple[State, ...]:
    """n random states, drawn as n ``random_state`` calls would draw them and
    validated as one stack."""
    return _computed(State, matcore._random_states(dim, rng, n))


def random_state(dim: int, rng: np.random.Generator) -> State:
    return random_states(dim, rng, 1)[0]

"""Effects and states: order, complement, orthosum, sequential product,
sharp/atomic predicates and (conditional) probabilities.

An effect is an operator a with 0 <= a <= I in the Loewner order; a state is a
positive operator with unit trace. The sequential product a o b = a^{1/2} b a^{1/2}
is the effect of measuring a first and b second.

Objects are validated once, at construction, and carry what they derive: an
effect its root a^{1/2} (``Effect.root``), a state its eigendecomposition
(``State.spectrum``), each computed on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import ConditioningOnNull, NotEffect, NotPerp, NotState, WeightError
from .matcore import EQ_TOL, PSD_TOL, max_abs

COND_FLOOR = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Effect:
    """Operator a with spectrum in [0, 1] (within PSD_TOL).

    The stored matrix is the Hermitian symmetrization of the input. Violations
    of the unit interval beyond PSD_TOL are rejected, not clamped; silent
    clamping would mask law-check failures downstream.
    """

    op: np.ndarray

    def __post_init__(self):
        m = matcore.as_hermitian(self.op)
        matcore.check_dim(m.shape[0])
        lo, hi = matcore.spectral_bounds(m)
        if lo < -PSD_TOL or hi > 1.0 + PSD_TOL:
            raise NotEffect(f"spectrum [{lo:.6g}, {hi:.6g}] escapes [0, 1]")
        object.__setattr__(self, "op", _frozen(m))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @cached_property
    def root(self) -> np.ndarray:
        """The positive square root a^{1/2} (read-only)."""
        return _frozen(matcore.sqrt_psd(self.op))


@dataclass(frozen=True, eq=False)
class State:
    """Positive operator rho with tr(rho) = 1."""

    op: np.ndarray

    def __post_init__(self):
        m = matcore.as_hermitian(self.op)
        matcore.check_dim(m.shape[0])
        if not matcore.is_psd(m):
            raise NotState("state is not positive semidefinite")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-10:
            raise NotState(f"tr(rho) = {tr!r} != 1")
        object.__setattr__(self, "op", _frozen(m))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @cached_property
    def spectrum(self) -> matcore.Spectrum:
        """Eigendecomposition of rho, with read-only arrays."""
        spec = matcore.eig_hermitian(self.op)
        return matcore.Spectrum(_frozen(spec.eigenvalues), _frozen(spec.eigenvectors))


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((dim, dim), dtype=complex))


def unit_effect(dim: int) -> Effect:
    return Effect(matcore.identity(dim))


def complement(a: Effect) -> Effect:
    """The effect a' = I - a."""
    return Effect(matcore.identity(a.dim) - a.op)


def perp(a: Effect, b: Effect) -> bool:
    """True iff a + b is still an effect, i.e. a + b <= I."""
    matcore.check_same_dim(a.op, b.op)
    return matcore.loewner_leq(a.op + b.op, matcore.identity(a.dim))


def orthosum(a: Effect, b: Effect) -> Effect:
    """Parallel sum a + b; requires perp(a, b)."""
    if not perp(a, b):
        raise NotPerp("a + b exceeds the identity")
    return Effect(a.op + b.op)


def seq_product(a: Effect, b: Effect) -> Effect:
    """Sequential product a o b = a^{1/2} b a^{1/2} (measure a, then b)."""
    matcore.check_same_dim(a.op, b.op)
    return Effect(a.root @ b.op @ a.root)


def convex_combine(effects: list[Effect], weights) -> Effect:
    weights = np.asarray(weights, dtype=float)
    if len(effects) != weights.size:
        raise WeightError("one weight per effect required")
    if np.any(weights < 0):
        raise WeightError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise WeightError(f"weights sum to {weights.sum()!r}, not 1")
    out = sum(w * e.op for w, e in zip(weights, effects))
    return Effect(out)


def is_sharp(a: Effect, tol: float = EQ_TOL) -> bool:
    """Sharp effects are projections: a^2 = a."""
    return max_abs(a.op @ a.op - a.op) <= tol


def is_atomic(a: Effect, tol: float = EQ_TOL) -> bool:
    """Atomic effects are one-dimensional projections."""
    return is_sharp(a, tol) and abs(np.trace(a.op).real - 1.0) <= 1e-9


def prob(rho: State, a: Effect) -> float:
    """P_rho(a) = tr(rho a), clamped into [0, 1]."""
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
    """Rank-one projection |v><v| for a unit vector v."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise NotEffect(f"vector norm {norm!r} != 1")
    return Effect(np.outer(v, v.conj()))


def random_effect(dim: int, rng: np.random.Generator) -> Effect:
    return Effect(matcore.random_effect(dim, rng))


def random_state(dim: int, rng: np.random.Generator) -> State:
    return State(matcore.random_state(dim, rng))

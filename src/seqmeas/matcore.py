"""Dense complex linear-algebra kernel.

Everything downstream (effects, operations, observables, instruments) is built
on plain complex ``numpy`` arrays of shape (dim, dim) with 2 <= dim <= 8.
This module owns the Hermitian eigensolver (cyclic Jacobi rotations, no
external eigenvalue routine), the positive square root, the Loewner order and
the seeded random generators used by the law checks.

Two tolerance constants govern all approximate comparisons:

* ``PSD_TOL``  -- cone membership: an eigenvalue >= -PSD_TOL counts as >= 0.
* ``EQ_TOL``   -- operator equality in the max (entrywise) norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EigenConvergenceError, NotPositive

HERM_TOL = 1e-12
PSD_TOL = 1e-10
EQ_TOL = 1e-9

MIN_DIM = 2
MAX_DIM = 8

# Jacobi iteration controls: stop once the off-diagonal Frobenius mass is
# below this threshold, give up after this many full sweeps.
JACOBI_OFF_THRESHOLD = 1e-13
JACOBI_MAX_SWEEPS = 100


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    """Max norm: largest entrywise modulus."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def check_dim(dim: int) -> int:
    if not MIN_DIM <= dim <= MAX_DIM:
        raise DimensionError(f"dimension {dim} outside supported range [{MIN_DIM}, {MAX_DIM}]")
    return dim


def check_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.shape[0]


def as_square(m) -> np.ndarray:
    """Validate a square matrix with finite entries.

    Non-finite entries are rejected before any arithmetic, so none reaches a
    comparison as NaN or raises a numpy warning.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("matrix has non-finite (inf or nan) entries")
    return arr


def as_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Validate near-Hermiticity and return the symmetrization (M + M†)/2."""
    arr = as_square(m)
    gap = max_abs(arr - dagger(arr))
    if gap > tol:
        raise DimensionError(f"matrix is not Hermitian: |M - M†| = {gap:.3e} > {tol:.1e}")
    return (arr + dagger(arr)) / 2


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column k of ``eigenvectors`` is the
    unit eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def _jacobi_rotation(a: list[list[complex]], v: list[list[complex]] | None,
                     p: int, q: int, dim: int) -> None:
    """Zero a[p][q] by a unitary similarity, accumulating the rotation into v.

    Pure-scalar arithmetic: at dim <= 8 the per-call overhead of numpy
    operations dwarfs the flops, so rows are updated entry by entry.
    """
    apq = a[p][q]
    mod = abs(apq)
    if mod < 1e-300:
        a[p][q] = 0.0
        a[q][p] = 0.0
        return
    phase = apq / mod
    tau = (a[q][q].real - a[p][p].real) / (2.0 * mod)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    # R is the identity outside rows/cols p,q with block
    #   [[c, s], [-s*conj(phase), c*conj(phase)]];
    # update A <- R† A R and V <- V R.
    s_phase = s * phase
    c_phase = c * phase
    s_conj = s_phase.conjugate()
    c_conj = c_phase.conjugate()
    row_p = a[p]
    row_q = a[q]
    for k in range(dim):
        rp = row_p[k]
        rq = row_q[k]
        row_p[k] = c * rp - s_phase * rq
        row_q[k] = s * rp + c_phase * rq
    for row in a:
        cp = row[p]
        cq = row[q]
        row[p] = c * cp - s_conj * cq
        row[q] = s * cp + c_conj * cq
    a[p][q] = 0.0
    a[q][p] = 0.0
    a[p][p] = complex(a[p][p].real)
    a[q][q] = complex(a[q][q].real)
    if v is not None:
        for row in v:
            cp = row[p]
            cq = row[q]
            row[p] = c * cp - s_conj * cq
            row[q] = s * cp + c_conj * cq


def _jacobi(m, want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    a_mat = as_hermitian(m)
    dim = a_mat.shape[0]
    a = [[complex(a_mat[i, j]) for j in range(dim)] for i in range(dim)]
    v = [[1.0 + 0.0j if i == j else 0.0j for j in range(dim)] for i in range(dim)] \
        if want_vectors else None
    skip = JACOBI_OFF_THRESHOLD / (dim * dim)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(
            2.0 * sum(abs(a[p][q]) ** 2 for p in range(dim - 1) for q in range(p + 1, dim))
        )
        if off <= JACOBI_OFF_THRESHOLD:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                if abs(a[p][q]) > skip:
                    _jacobi_rotation(a, v, p, q, dim)
    else:
        raise EigenConvergenceError(
            f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps"
        )
    values = np.array([a[k][k].real for k in range(dim)])
    order = np.argsort(values, kind="stable")
    vectors = None
    if v is not None:
        vectors = np.array(v, dtype=complex)[:, order]
    return values[order], vectors


def eig_hermitian(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations."""
    values, vectors = _jacobi(m, want_vectors=True)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)


def eigenvalues_hermitian(m) -> np.ndarray:
    """Eigenvalues only (skips accumulating the rotations)."""
    values, _ = _jacobi(m, want_vectors=False)
    return values


def spectral_bounds(m) -> tuple[float, float]:
    """(min, max) eigenvalue of a Hermitian matrix."""
    values = eigenvalues_hermitian(m)
    return float(values[0]), float(values[-1])


def inv_sqrt_pd(m) -> np.ndarray | None:
    """M^{-1/2} of a positive definite Hermitian matrix from one diagonalization.

    Returns None when the smallest eigenvalue is <= 1e-6, so that a sampler
    can redraw instead of normalizing by a near-singular matrix.
    """
    spec = eig_hermitian(m)
    if spec.eigenvalues[0] <= 1e-6:
        return None
    v = spec.eigenvectors
    return (v / np.sqrt(spec.eigenvalues)) @ dagger(v)


def is_psd(m, tol: float = PSD_TOL) -> bool:
    return spectral_bounds(m)[0] >= -tol


def sqrt_psd(m, tol: float = PSD_TOL) -> np.ndarray:
    """Unique positive square root of a PSD Hermitian matrix.

    Anything below -tol is an error. Eigenvalues within tol of zero are
    round-off debris from products such as a^{1/2} rho a^{1/2} and count as
    exact zeros: without this, sqrt amplifies an eigenvalue error eps into a
    sqrt(eps) error in the root, which poisons downstream cone checks.
    """
    spec = eig_hermitian(m)
    values = spec.eigenvalues
    if values[0] < -tol:
        raise NotPositive(f"matrix has eigenvalue {values[0]:.3e} < -{tol:.1e}")
    roots = np.where(values < tol, 0.0, np.sqrt(np.clip(values, 0.0, None)))
    v = spec.eigenvectors
    return as_hermitian((v * roots) @ dagger(v), tol=1e-9)


def loewner_leq(a, b, tol: float = PSD_TOL) -> bool:
    """Loewner order: a <= b iff b - a is PSD (min eigenvalue >= -tol)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_same_dim(a, b)
    return is_psd(as_hermitian(b - a, tol=1e-9), tol=tol)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix: normalized Ginibre G G†."""
    check_dim(dim)
    g = _ginibre(dim, rng)
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    return (rho + dagger(rho)) / 2


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random effect: unitary conjugation of a uniform[0,1] diagonal."""
    check_dim(dim)
    u = random_unitary(dim, rng)
    values = rng.uniform(0.0, 1.0, size=dim)
    e = (u * values) @ dagger(u)
    return (e + dagger(e)) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a Ginibre matrix with the phase fix."""
    check_dim(dim)
    q, r = np.linalg.qr(_ginibre(dim, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre(dim, rng)
    return (g + dagger(g)) / 2


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

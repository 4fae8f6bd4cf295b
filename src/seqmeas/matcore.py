"""Dense complex linear-algebra kernel.

Everything downstream (effects, operations, observables, instruments) is built
on plain complex ``numpy`` arrays of shape (dim, dim) with 2 <= dim <= 8.
This module owns the one reader of caller input (``_read``: every matrix,
stack of matrices or vector a caller passes becomes a finite complex array
there, or a ``DimensionError``; ``as_hermitian`` adds the Hermitian check and
the symmetrization), the Hermitian eigensolver (cyclic Jacobi
rotations, no external eigenvalue routine), the positive square root, a
pivoted Cholesky factor B†B = M of a PSD matrix (``_psd_factor``, eigen-free
unless M has an eigenvalue below -FACTOR_PIVOT_TOL), the Loewner order and
the seeded random generators used by the law checks.

Two tolerance constants govern all approximate comparisons:

* ``PSD_TOL``  -- cone membership: an eigenvalue >= -PSD_TOL counts as >= 0.
* ``EQ_TOL``   -- operator equality in the max (entrywise) norm.

Cone membership ("smallest eigenvalue >= -tol", or a spectrum in [-tol, 1 +
tol] for an effect) is decided in one place, ``_first_outside``, for a stack
of Hermitian matrices; a single matrix is a stack of one. Every verdict of the
package goes through it: the effect and state checks, ``psd_hermitian`` (and
so ``is_psd``, ``loewner_leq`` and ``effects.perp``) and the probes of
``operations.operation_leq``. It decides in two steps. One Cholesky
factorization of M + (tol/2) I for the whole stack (``_psd_certified_stack``:
LAPACK's ``zpotrf`` through numpy's gufunc; ``_certified_in_unit`` factors both
sides of an effect in the same call) accepts almost every member without
computing an eigenvalue; Jacobi decides each member it declines, in stack
order, up to the first member outside, whose index and bounds the caller
reports. The certificate accepts only matrices Jacobi accepts too: the tol/2
shift leaves a margin of half the tolerance, and below the norm guard (no
diagonal entry above 1e13 * tol, i.e. 1e3 at PSD_TOL, less past 8 x 8; a
positive matrix has its largest entries there) the rounding error of the
factorization stays well inside that margin. So every verdict is Jacobi's.

Every matrix enters by the door of its origin, and every symmetrization is one
formula, (M + M†)·½, which leaves a matrix already exactly Hermitian unchanged.
Caller input is read once, where it enters, by ``_read`` (``as_hermitian``
adds the HERM_TOL gap test before it symmetrizes): the public ``Effect``,
``State`` and ``Operation`` constructors, the structured ones that take
matrices or vectors, ``apply``, ``is_psd``, ``loewner_leq`` (which tests the
difference of the two matrices it reads at 1e-9) and the JSON reader. A matrix
the library computes from validated operands passes no reader, gap test or
public constructor: every effect and state, the constants, induced and drawn
ones included, is symmetrized once (``_hermitian_part``) and checked by one
entry (``effects._computed``), a Kraus family is certified as it is
(``operations._built``, ``_operations``, ``_composed``), and the root rule
(``_psd_roots``), ``effects.perp``, the probe gaps of
``operations.operation_leq`` (read off its Choi gap) and the numerator of
``instruments.cond_prob`` (read off an induced effect) decide on the matrices
they hold; ``operations.apply`` runs only on a caller's state. The public
functions the library still reuses read what it passes them as they read
caller input, each for a reason: the Jacobi kernels (``eig_hermitian``,
``sqrt_psd`` and the others built on it, and the stacked
``_eig_hermitian_stack``), since the benchmark tracer counts them by name;
``serialize.matrix_to_json``, the one writer of a matrix; and the sharp
constructors on the rank-one projections of the atomic ones, since their stack
reader is what rejects a ragged, empty or mixed-dim list of vectors. An AST
scan in ``tests/test_solver.py`` pins every door and counts every library call
of a public reading door.

The reader's own arithmetic, the gap M - M† and the sum M + M† of
``_symmetrized`` and the difference of ``loewner_leq``, runs with numpy's
overflow raised: a finite matrix near the largest float whose arithmetic
overflows is a ``DimensionError``, not a RuntimeWarning.

From numpy's gufunc module (``numpy.linalg._umath_linalg``)
the package calls two LAPACK routines directly, the Cholesky of the
certificate (``cholesky_lo``) and the Householder QR of the Kraus compression
(``qr_r_raw``, in ``operations``), and no eigen-routine.

A stack of matrices drawn at once (the random inputs of many law trials) is
diagonalized by the stacked Jacobi kernel, ``_eig_hermitian_stack``: the same
cyclic sweeps, thresholds and sweep cap as ``eig_hermitian``, each rotation
applied with numpy to every member that still needs it. A member rotates only
while its own off-diagonal mass is above JACOBI_OFF_THRESHOLD, and only where
its own entry is above the skip threshold, so members never affect one another.
Jacobi squares the off-diagonal entries, so a finite matrix with an entry above
about 1.3e154 cannot be diagonalized: both solvers reject it with the same
``DimensionError``, and give bit for bit their results on every matrix whose
squares stay finite.

Each solver rule is one formula over a stack of eigendecompositions: the root
rule (``_psd_roots``) and the inverse-root rule (``_pd_inv_roots``).
``sqrt_psd`` and ``inv_sqrt_pd`` apply them to their scalar Jacobi spectrum, as
a stack of one. ``_solve_stack`` is the one entry point for a stack, and the
one reader of STACK_BREAK_EVEN: at d <= 3 a scalar solve is mostly per-call
overhead, which the stack pays once, so below STACK_BREAK_EVEN members it
returns the scalar kernels' results and from there on it runs the stacked
Jacobi through the same formulas. The stacked and scalar spectra agree to
rounding, not bit for bit (numpy and Python round complex products
differently).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, EigenConvergenceError, NotPositive, SamplingError

HERM_TOL = 1e-12
PSD_TOL = 1e-10
EQ_TOL = 1e-9

MIN_DIM = 2
MAX_DIM = 8

# Cholesky certificate norm guard: when a diagonal entry exceeds this multiple
# of tol (times 72 / (n (n + 1)) past n = 8), the factorization's rounding
# error could approach the tol/2 margin, so the certificate declines.
CERT_NORM_PER_TOL = 1e13

# Jacobi iteration controls: stop once the off-diagonal Frobenius mass is
# below this threshold, give up after this many full sweeps.
JACOBI_OFF_THRESHOLD = 1e-13
JACOBI_MAX_SWEEPS = 100

# The off-diagonal mass squares each entry, which overflows past about 1.3e154;
# both Jacobi solvers then reject the matrix with this message.
_SQUARE_OVERFLOW = "matrix is too large for Jacobi: the square of an entry overflows"

# A residual pivot at or below this ends the pivoted Cholesky factor
# (``_psd_factor``), far below PSD_TOL and every tolerance compared at.
FACTOR_PIVOT_TOL = 1e-14

# Stacks below this many members are solved by the scalar solver: a stacked
# Jacobi pass costs more than that many scalar solves below it (measured
# break-even 4-12 members at d = 2-5).
STACK_BREAK_EVEN = 8

# Draws a random generator makes before it gives up on a Gram sum that stays
# near-singular; a Ginibre draw is near-singular with probability close to 0.
_MAX_NORMALIZING_DRAWS = 100


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    """Max norm: largest entrywise modulus."""
    a = np.abs(m)
    return float(a.max()) if a.size else 0.0


def identity(dim: int) -> np.ndarray:
    return np.eye(check_dim(dim), dtype=complex)


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """I, read-only (cached, so shared by every caller that only reads it)."""
    return _frozen(identity(dim))


def check_dim(dim: int) -> int:
    """``dim``, an integer in [MIN_DIM, MAX_DIM], else ``DimensionError``: checked
    before any numpy call of every public function that takes one. A Python int
    is tested first, since the ``Integral`` check of other types is slower."""
    if not (isinstance(dim, (int, numbers.Integral)) and MIN_DIM <= dim <= MAX_DIM):
        raise DimensionError(f"dimension {dim!r} outside supported range [{MIN_DIM}, {MAX_DIM}]")
    return dim


def check_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.shape[0]


def _check_same_operand_dim(x, y) -> None:
    """Two domain objects (effects, operations, measures) must share one ``dim``."""
    if x.dim != y.dim:
        raise DimensionError(f"dim mismatch: {x.dim} vs {y.dim}")


def _read(m, what: str = "matrix", ranks: tuple[int, ...] = (2,)) -> np.ndarray:
    """The one reader of caller matrices: a nonempty finite complex array of an
    allowed rank, square in its last two axes (a vector, of rank 1, is exempt).
    Non-finite entries are rejected before any arithmetic, so none reaches a
    comparison as NaN. Every failure is a ``DimensionError`` naming ``what``."""
    try:
        arr = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{what} is not a complex array: {exc}") from None
    shape = arr.shape
    if len(shape) not in ranks or not arr.size or (len(shape) > 1 and shape[-1] != shape[-2]):
        rank = " or ".join(map(str, ranks))
        raise DimensionError(f"{what} must be a nonempty array of rank {rank} (matrices "
                             f"square); got shape {shape}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise DimensionError(f"{what} has non-finite (inf or nan) entries")
    return arr


def _sequence(items, what: str) -> tuple:
    """``items`` read once into a tuple; a string or a non-iterable is not a sequence."""
    if isinstance(items, str) or not isinstance(items, Iterable):
        raise DimensionError(f"{what} must be a sequence, got {items!r}")
    return tuple(items)


def as_square(m) -> np.ndarray:
    """Validate a square matrix with finite entries (``_read`` of one matrix)."""
    return _read(m)


def as_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Validate near-Hermiticity and return the symmetrization (M + M†)/2."""
    return _symmetrized(_read(m), tol)


def _as_hermitian_stack(mats, tol: float = HERM_TOL, what: str = "stack of matrices"):
    """``as_hermitian`` of every matrix of a stack at once, as one (n, d, d) array.
    The checks and the symmetrization are entrywise, so every member is bit for
    bit what ``as_hermitian`` returns for it."""
    return _symmetrized(_read(mats, what, (3,)), tol)


@np.errstate(over="raise")
def _symmetrized(arr: np.ndarray, tol: float, minus: np.ndarray | None = None) -> np.ndarray:
    """The gap test and the symmetrization of a finite matrix or stack, or of the
    difference ``arr - minus`` of two: (M + M†)·½ when |M - M†| <= tol, else
    ``DimensionError``. Its arithmetic runs with numpy's overflow raised, so a
    difference, gap or sum past the largest float (entries near ±1.7e308) is a
    ``DimensionError`` too, not a RuntimeWarning; a result that does not
    overflow keeps its bits. This reader runs on every caller matrix, so it takes
    the decorator form of ``np.errstate``, about half the cost of its ``with``
    form, and counts the gaps above tol instead of reducing them to their
    maximum, which only the error message reads."""
    try:
        if minus is not None:
            arr = arr - minus
        adj = arr.conj().swapaxes(-1, -2)
        gaps, sym = np.abs(arr - adj), (arr + adj) * 0.5
    except FloatingPointError:
        raise DimensionError("matrix is too large: its arithmetic overflows a float") from None
    if np.count_nonzero(gaps > tol):
        raise DimensionError(f"matrix is not Hermitian: |M - M†| = {gaps.max():.3e} > {tol:.1e}")
    return sym


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


def _jacobi_rotation(a: list[list[complex]], v: list[list[complex]],
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
    for row in v:
        cp = row[p]
        cq = row[q]
        row[p] = c * cp - s_conj * cq
        row[q] = s * cp + c_conj * cq


def eig_hermitian(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations. An
    entry whose square overflows a float is a ``DimensionError``."""
    a = as_hermitian(m).tolist()
    dim = len(a)
    v = [[1.0 + 0.0j if i == j else 0.0j for j in range(dim)] for i in range(dim)]
    skip = JACOBI_OFF_THRESHOLD / (dim * dim)
    try:
        for _ in range(JACOBI_MAX_SWEEPS):
            off = math.sqrt(2.0 * sum(abs(a[p][q]) ** 2
                                      for p in range(dim - 1) for q in range(p + 1, dim)))
            if off <= JACOBI_OFF_THRESHOLD:
                break
            for p in range(dim - 1):
                for q in range(p + 1, dim):
                    if abs(a[p][q]) > skip:
                        _jacobi_rotation(a, v, p, q, dim)
        else:
            raise EigenConvergenceError(f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
    except OverflowError:
        raise DimensionError(_SQUARE_OVERFLOW) from None
    values = np.array([a[k][k].real for k in range(dim)])
    order = np.argsort(values, kind="stable")
    return Spectrum(eigenvalues=values[order],
                    eigenvectors=np.array(v, dtype=complex)[:, order])


def eigenvalues_hermitian(m) -> np.ndarray:
    """Eigenvalues only, ascending."""
    return eig_hermitian(m).eigenvalues


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
    return _pd_inv_roots(spec.eigenvalues[None], spec.eigenvectors[None])[0]


def _jacobi_rotation_stack(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """``_jacobi_rotation`` of every member of the (n, d, d) stacks a and v at once,
    in place. Every member must have |a_pq| above the skip threshold."""
    apq = a[:, p, q]
    mod = np.abs(apq)
    phase = apq / mod
    tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * mod)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(tau, 1.0))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = (t * c)[:, None]
    c = c[:, None]
    s_phase = s * phase[:, None]
    c_phase = c * phase[:, None]
    rp = a[:, p, :].copy()
    rq = a[:, q, :].copy()
    a[:, p, :] = c * rp - s_phase * rq
    a[:, q, :] = s * rp + c_phase * rq
    for m in (a, v):
        cp = m[:, :, p].copy()
        cq = m[:, :, q].copy()
        m[:, :, p] = c * cp - s_phase.conj() * cq
        m[:, :, q] = s * cp + c_phase.conj() * cq
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real


def _eig_hermitian_stack(ms) -> tuple[np.ndarray, np.ndarray]:
    """``eig_hermitian`` of every member of an (n, d, d) stack: eigenvalues (n, d),
    ascending per member, and eigenvectors (n, d, d), one per column.

    Cyclic Jacobi with the scalar solver's sweep order, thresholds and sweep cap.
    A sweep rotates only the members whose off-diagonal mass is still above
    JACOBI_OFF_THRESHOLD, and each (p, q) rotation only those of them whose
    |a_pq| is above the skip threshold. Overflows are silenced, as Python's
    float arithmetic does not flag them, and a square that overflows is the
    scalar solver's ``DimensionError``.
    """
    a = _as_hermitian_stack(ms)
    n, dim, _ = a.shape
    v = np.repeat(np.eye(dim, dtype=complex)[None], n, axis=0)
    skip = JACOBI_OFF_THRESHOLD / (dim * dim)
    rows, cols = _upper_pairs(dim)
    with np.errstate(over="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            squares = np.abs(a[:, rows, cols]) ** 2
            if np.isinf(squares).any():
                raise DimensionError(_SQUARE_OVERFLOW)
            live = np.sqrt(2.0 * squares.sum(axis=1)) > JACOBI_OFF_THRESHOLD
            if not live.any():
                break
            for p, q in zip(rows.tolist(), cols.tolist()):
                turn = live & (np.abs(a[:, p, q]) > skip)
                if turn.all():
                    _jacobi_rotation_stack(a, v, p, q)
                elif turn.any():
                    members = np.flatnonzero(turn)
                    turn_a, turn_v = a[members], v[members]
                    _jacobi_rotation_stack(turn_a, turn_v, p, q)
                    a[members], v[members] = turn_a, turn_v
        else:
            raise EigenConvergenceError(f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
    values = a.diagonal(axis1=1, axis2=2).real
    order = np.argsort(values, axis=1, kind="stable")
    member = np.arange(n)[:, None]
    return values[member, order], v.swapaxes(1, 2)[member, order].swapaxes(1, 2)


@functools.cache
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (p, q) with p < q in the scalar solver's sweep order, as read-only index
    arrays (cached, so shared by every caller)."""
    return tuple(map(_frozen, np.triu_indices(dim, 1)))


def _adjoint(v: np.ndarray) -> np.ndarray:
    return v.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)·½ of a matrix or of each member of a stack: the one symmetrization
    of a matrix the library computed, exactly Hermitian, and idempotent on one
    that already is."""
    return (m + _adjoint(m)) * 0.5


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place."""
    arr.setflags(write=False)
    return arr


def _psd_roots(values: np.ndarray, vectors: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """The root rule, over a stack of eigendecompositions (values (n, d), in any
    order, and vectors (n, d, d)): the roots v diag(values^1/2) v†, symmetrized
    once (``_hermitian_part``), at any norm. An eigenvalue below -tol raises
    ``NotPositive``; one below tol counts as 0."""
    low = values.min()
    if low < -tol:
        raise NotPositive(f"matrix has eigenvalue {low:.3e} < -{tol:.1e}")
    roots = np.where(values < tol, 0.0, np.sqrt(np.clip(values, 0.0, None)))
    return _hermitian_part((vectors * roots[:, None, :]) @ _adjoint(vectors))


def _pd_inv_roots(values: np.ndarray, vectors: np.ndarray) -> list[np.ndarray | None]:
    """The inverse-root rule, over a stack of eigendecompositions with ascending
    values: the inverse roots v diag(values^-1/2) v†, None for a member whose
    smallest eigenvalue is <= 1e-6."""
    ok = values[:, 0] > 1e-6
    safe = np.where(ok[:, None], values, 1.0)
    inv_roots = (vectors / np.sqrt(safe)[:, None, :]) @ _adjoint(vectors)
    return [m if good else None for m, good in zip(inv_roots, ok.tolist())]


# Each kind of ``_solve_stack``: its scalar kernel, by name, and its rule.
_SOLVER_KINDS = {"root": ("sqrt_psd", _psd_roots), "inv_root": ("inv_sqrt_pd", _pd_inv_roots)}


def _solve_stack(kind: str, mats) -> list:
    """The one entry point of the stacked solver: the ``kind`` of every matrix of a
    stack, one per member: "root" (``sqrt_psd``) or "inv_root" (``inv_sqrt_pd``,
    None for a near-singular member). Below STACK_BREAK_EVEN members, where
    scalar solves are faster, these are the scalar kernel's results, the kernel
    looked up by name on each call (so a wrapped kernel sees every solve); from
    there on, the stacked Jacobi's spectra go through the same rule."""
    scalar, rule = _SOLVER_KINDS[kind]
    if len(mats) < STACK_BREAK_EVEN:
        return [globals()[scalar](m) for m in mats]
    return list(rule(*_eig_hermitian_stack(np.asarray(mats))))


def psd_certified(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """``_psd_certified_stack`` of one matrix (False: not certified, so ask Jacobi)."""
    return bool(_psd_certified_stack(m, tol))


def _psd_certified_stack(ms: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Sufficient test for "smallest eigenvalue >= -tol" of each Hermitian M (as
    ``as_hermitian`` returns it) of a stack of any leading shape: True where the
    Cholesky factorization of M + (tol/2) I completes (``_cholesky_completes``)
    and no diagonal entry of M exceeds the norm guard.

    Soundness: a completed factorization L L† = M + (tol/2) I + E has
    |E|_2 <= g * tr(M + (tol/2) I) with g about (n + 1) * 1.1e-16 for n x n
    matrices (Higham, Accuracy and Stability of Numerical Algorithms, thm 10.3),
    so the smallest eigenvalue of M is >= -tol/2 - g * n * max_i M_ii. The bound
    holds for any order of the Cholesky sums, LAPACK's blocked form included
    (ibid. sec. 10.1). The norm guard M_ii <= CERT_NORM_PER_TOL * tol *
    min(1, 72 / (n (n + 1))) keeps that last term below 1.1e-3 * 72 * tol, under
    a tenth of tol at every n (the scale factor is 1 up to n = 8; the d^2 x d^2
    Choi gaps of ``operations.operation_leq`` reach n = 64), and Jacobi's own
    rounding at such norms is smaller still, so a True here is a True from
    Jacobi too.
    """
    n = ms.shape[-1]
    limit = CERT_NORM_PER_TOL * tol * min(1.0, 72.0 / (n * (n + 1)))
    guarded = ms.diagonal(axis1=-2, axis2=-1).real.max(axis=-1) <= limit
    return guarded & _cholesky_completes(ms + _half_tol_identity(n, tol))


@functools.cache
def _half_tol_identity(dim: int, tol: float) -> np.ndarray:
    """(tol/2) I, read-only (cached, so shared by every caller)."""
    return _frozen((tol / 2.0) * np.eye(dim, dtype=complex))


def _cholesky_completes(a: np.ndarray) -> np.ndarray:
    """True for each matrix of a stack (any leading shape) whose Cholesky
    factorization finds every pivot positive: one call of LAPACK's ``zpotrf``
    through numpy's gufunc, which reads lower triangles only. A member whose
    factorization fails gets a NaN factor and the others are left alone, so the
    last diagonal entry of each factor is its verdict; the invalid-value flag
    of a failure is silenced for that reason only."""
    with np.errstate(invalid="ignore"):
        low = _umath_linalg.cholesky_lo(a)
    return ~np.isnan(low[..., -1, -1])


_SIDES = _frozen(np.array([1.0, -1.0])[:, None, None])


@functools.cache
def _unit_offsets(dim: int, tol: float) -> np.ndarray:
    """[s I, (1 + s) I], s = tol / 2 (read-only): m * _SIDES + these = both shifted sides."""
    shift = _half_tol_identity(dim, tol)
    return _frozen(np.stack([shift, np.eye(dim, dtype=complex) + shift]))


def _certified_in_unit(m: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """The certificate of 0 <= m <= I for each Hermitian m of a stack: both shifted
    sides, m and I - m, in one ``_cholesky_completes`` call, sound as
    ``_psd_certified_stack`` is. Its norm guard is implied: both sides complete
    only when every diagonal entry of each is in (0, 1 + tol), below that
    certificate's guard for tol >= 1e-13 (effects use PSD_TOL)."""
    completes = _cholesky_completes(m[..., None, :, :] * _SIDES + _unit_offsets(m.shape[-1], tol))
    return completes[..., 0] & completes[..., 1]


def _first_outside(h: np.ndarray, unit: bool = False, tol: float = PSD_TOL):
    """The one decision of cone membership: whether each Hermitian member of h
    has its spectrum in [-tol, inf), or in [-tol, 1 + tol] when ``unit``. h is
    a stack (n, d, d) or, as a stack of one, a single matrix (d, d), which
    spares numpy's per-call cost of a leading axis. None when every member is
    inside; else (k, lo, hi), the first member k outside and its Jacobi bounds,
    for the caller to report.

    One certificate call for the whole stack (``_psd_certified_stack``, or
    ``_certified_in_unit`` for both sides); Jacobi (``spectral_bounds``) on each
    member it declines, in stack order, up to the first member outside. The
    certificate accepts only what Jacobi accepts, so every verdict is Jacobi's.
    """
    certified = _certified_in_unit(h, tol) if unit else _psd_certified_stack(h, tol)
    for k, ok in enumerate([bool(certified)] if h.ndim == 2 else certified.tolist()):
        if not ok:
            lo, hi = spectral_bounds(h.reshape(-1, *h.shape[-2:])[k])
            if lo < -tol or (unit and hi > 1.0 + tol):
                return k, lo, hi
    return None


def is_psd(m, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue of the Hermitian m is >= -tol."""
    return psd_hermitian(as_hermitian(m), tol)


def psd_hermitian(h: np.ndarray, tol: float = PSD_TOL) -> bool:
    """``is_psd`` for a matrix already exactly Hermitian (symmetrized, or a sum of
    symmetrized ones): ``_first_outside`` of a stack of one."""
    return _first_outside(h, False, tol) is None


def sqrt_psd(m, tol: float = PSD_TOL) -> np.ndarray:
    """Unique positive square root of a PSD Hermitian matrix.

    Anything below -tol is an error. Eigenvalues within tol of zero are
    round-off debris from products such as a^{1/2} rho a^{1/2} and count as
    exact zeros: without this, sqrt amplifies an eigenvalue error eps into a
    sqrt(eps) error in the root, which poisons downstream cone checks.
    """
    spec = eig_hermitian(m)
    return _psd_roots(spec.eigenvalues[None], spec.eigenvectors[None], tol)[0]


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """Rows B, r x d, with B†B = m for an effect or state m, r its numerical rank:
    Cholesky with complete pivoting (Higham, "Analysis of the Cholesky
    decomposition of a semi-definite matrix", 1990; Golub & Van Loan, sec.
    4.2.8), stopped when no residual pivot exceeds FACTOR_PIVOT_TOL; a PSD
    residual has |r_ij|^2 <= r_ii r_jj, so what it leaves out is that small.
    A larger residual entry means an eigenvalue below -FACTOR_PIVOT_TOL (PSD_TOL
    accepts it); B†B would add the excess on coordinate axes, which can lift an
    effect's top eigenvalue past 1 + PSD_TOL, so such an m gets its root
    (``sqrt_psd``), which zeroes that eigenvalue in its own eigenbasis."""
    a = m.tolist()
    rest = list(range(len(a)))
    rows = []
    while rest:
        p = max(rest, key=lambda i: a[i][i].real)
        pivot = a[p][p].real
        if not pivot > FACTOR_PIVOT_TOL:
            break
        scale = 1.0 / math.sqrt(pivot)
        b = [x * scale if j in rest else 0j for j, x in enumerate(a[p])]
        rows.append(b)
        rest.remove(p)
        for i in rest:
            row_i, b_i = a[i], b[i].conjugate()
            for j in rest:
                row_i[j] -= b_i * b[j]
    if any(abs(a[i][j]) > FACTOR_PIVOT_TOL for i in rest for j in rest):
        return sqrt_psd(m)
    return np.array(rows, dtype=complex).reshape(len(rows), len(a))


def loewner_leq(a, b, tol: float = PSD_TOL) -> bool:
    """Loewner order: a <= b iff b - a is PSD (min eigenvalue >= -tol). The caller's
    a and b are read once; their difference must be Hermitian within 1e-9."""
    a, b = _read(a), _read(b)
    check_same_dim(a, b)
    return psd_hermitian(_symmetrized(b, 1e-9, a), tol)


def _check_draw(dim: int, rng) -> None:
    """The one check of a random draw's ``dim`` (``check_dim``) and ``rng`` (a numpy
    ``Generator``). Every draw passes it first: a Ginibre stack (``_ginibres``),
    a family size (``_counts``) or a unit vector (``random_unit_vector``)."""
    check_dim(dim)
    if not isinstance(rng, np.random.Generator):
        raise SamplingError(f"rng must be a numpy random Generator, got {type(rng).__name__}")


def _count(n: int | None, rng: np.random.Generator, lo: int, hi: int, what: str) -> int:
    """A family size for a random generator: ``n``, or a draw from [lo, hi) when None."""
    return int(rng.integers(lo, hi)) if n is None else _draws(n, what)


def _draws(n, what: str = "number of draws") -> int:
    """A positive integer count, such as the number of draws of a stacked generator."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise DimensionError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def _counts(dim: int, sizes, rng: np.random.Generator, lo: int, hi: int, what: str, n: int):
    """``_count`` for each of n draws of a dim, as an iterator: ``sizes`` is None
    (each size drawn when the iterator reaches it), one size for all, or a
    sequence of n."""
    _check_draw(dim, rng)
    n = _draws(n)
    if not isinstance(sizes, (list, tuple, np.ndarray)):
        sizes = [sizes] * n
    elif len(sizes) != n:
        raise DimensionError(f"{what} needs one size per draw, got {len(sizes)} for {n}")
    return (_count(k, rng, lo, hi, what) for k in sizes)


def _normalizing_draws(draw, gram, sizes):
    """One sample ``draw(k)`` per size k of ``sizes``, with the inverse root of
    ``gram(sample)``.

    Each size is taken from ``sizes`` just before its sample is drawn, so n
    members draw what n single draws would. The Gram sums of all samples are
    solved at once (``_solve_stack``), and a sample whose sum is near-singular
    (``inv_sqrt_pd`` declines it) is redrawn, alone, after the others are
    drawn. A member still declined after _MAX_NORMALIZING_DRAWS draws raises
    ``SamplingError``, so no generator hangs.
    """
    drawn = [(k, draw(k)) for k in sizes]
    sizes = [k for k, _ in drawn]
    samples = [sample for _, sample in drawn]
    inv_roots: list = [None] * len(samples)
    todo = list(range(len(samples)))
    for attempt in range(1, _MAX_NORMALIZING_DRAWS + 1):
        grams = [gram(samples[k]) for k in todo]
        for k, inv_root in zip(todo, _solve_stack("inv_root", grams)):
            inv_roots[k] = inv_root
        todo = [k for k in todo if inv_roots[k] is None]
        if not todo:
            return samples, inv_roots
        if attempt < _MAX_NORMALIZING_DRAWS:
            for k in todo:
                samples[k] = draw(sizes[k])
    raise SamplingError(f"no draw in {_MAX_NORMALIZING_DRAWS} had a positive definite Gram sum")


def _random_states(dim: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n random density matrices (normalized Ginibre G G†), as one stack."""
    g = _ginibres(dim, rng, _draws(n))
    rho = g @ _adjoint(g)
    return _hermitian_part(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix: normalized Ginibre G G†."""
    return _random_states(dim, rng, 1)[0]


def _random_effects(dim: int, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random effects u diag(values) u† (Haar u, uniform[0,1] values), drawn as
    n ``random_effect`` calls would draw them, as one stack, and their positive
    roots read off the same eigendecomposition by the root rule (``_psd_roots``),
    with no solve at any n."""
    draws = [(_ginibre(dim, rng), rng.uniform(0.0, 1.0, size=dim)) for _ in range(_draws(n))]
    u = _haar(np.stack([g for g, _ in draws]))
    values = np.stack([v for _, v in draws])
    e = (u * values[:, None, :]) @ _adjoint(u)
    return _hermitian_part(e), _psd_roots(values, u)


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random effect: unitary conjugation of a uniform[0,1] diagonal."""
    return _random_effects(dim, rng, 1)[0][0]


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a stack of Ginibre matrices: QR with the phase fix."""
    q, r = np.linalg.qr(g)
    d = r.diagonal(axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a Ginibre matrix with the phase fix."""
    return _haar(_ginibres(dim, rng, 1))[0]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _hermitian_part(_ginibre(dim, rng))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    _check_draw(dim, rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _ginibres(dim, rng, 1)[0]


def _ginibres(dim: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Ginibre matrices, each drawn as the real then the imaginary part, so the
    stack draws exactly what n ``_ginibre`` calls would."""
    _check_draw(dim, rng)
    x = rng.standard_normal((n, 2, dim, dim))
    return x[:, 0] + 1j * x[:, 1]

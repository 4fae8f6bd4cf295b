"""Operations as Kraus families.

An operation maps rho to sum_i A_i rho A_i† with sum_i A_i† A_i <= I; it is a
channel when that sum is exactly I. The induced effect (``hat``) is the unique
effect measured by the operation: tr(rho hat) = tr(op(rho)) for every state.

The ``Operation`` constructor is the one place that checks sum_i A_i† A_i <= I:
it builds the induced effect as its validation and carries it as
``Operation.induced``, so ``hat``, ``is_channel``, ``equiv`` and the instrument
sum read it instead of recomputing it. Structured constructors (``kraus_single``,
``semi_trivial``, ``add``) leave that check to it.

Operations are represented extensionally by their Kraus family, stored as one
(n, dim, dim) complex array. Equality of operations is equality of action on a
spanning basis, never equality of Kraus lists (the Kraus decomposition is far
from unique).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .effects import Effect, State
from .errors import (
    DimensionError,
    NotEffect,
    NotOrthogonal,
    NotPerp,
    NotProjection,
    NotSubunital,
    WeightError,
)
from .matcore import EQ_TOL, dagger, identity, max_abs

# Kraus operators with all entries below this are dropped by the structured
# constructors (they contribute nothing but bloat the family).
NEGLIGIBLE_KRAUS = 1e-14

# Sample size for the state-sampling side of the operation order test.
SAMPLE_N = 32


def _as_kraus_array(kraus) -> np.ndarray:
    arr = np.asarray(kraus, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"Kraus family must have shape (n, d, d), got {arr.shape}")
    if arr.shape[0] == 0:
        raise DimensionError("Kraus family must be nonempty")
    if not np.isfinite(arr).all():
        raise DimensionError("Kraus family has non-finite (inf or nan) entries")
    return arr


@dataclass(frozen=True, eq=False)
class Operation:
    """Completely positive trace-nonincreasing map given by Kraus operators.

    ``recipe`` records how a structured constructor built the family (used for
    JSON round-trips); it carries no semantics and never enters comparisons.
    """

    kraus: np.ndarray
    recipe: dict | None = field(default=None, compare=False)
    induced: Effect = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _as_kraus_array(self.kraus)
        try:
            induced = Effect(_hat_matrix(arr))
        except NotEffect as exc:
            raise NotSubunital(f"sum A†A is not below I: {exc}") from None
        arr.setflags(write=False)
        object.__setattr__(self, "kraus", arr)
        object.__setattr__(self, "induced", induced)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]


def _hat_matrix(kraus: np.ndarray) -> np.ndarray:
    s = np.einsum("nij,nik->jk", kraus.conj(), kraus)
    return (s + dagger(s)) / 2


def apply(op: Operation, rho: State | np.ndarray) -> np.ndarray:
    """Apply the operation: sum_i A_i rho A_i†.

    Accepts a State or a bare matrix; the Kraus sum is linear, so applying to
    arbitrary matrices (e.g. matrix units) is well defined and used by the
    action-equality tests. Returns the (generally subnormalized) output matrix.
    """
    mat = rho.op if isinstance(rho, State) else np.asarray(rho, dtype=complex)
    if mat.shape != (op.dim, op.dim):
        raise DimensionError(f"state shape {mat.shape} vs operation dim {op.dim}")
    return np.einsum("nij,jk,nlk->il", op.kraus, mat, op.kraus.conj())


def hat(op: Operation) -> Effect:
    """The induced effect sum_i A_i† A_i, as carried by the operation."""
    return op.induced


def is_channel(op: Operation, tol: float = EQ_TOL) -> bool:
    return max_abs(op.induced.op - identity(op.dim)) <= tol


def compose(i: Operation, j: Operation) -> Operation:
    """Sequential product: first i, then j, i.e. rho -> j(i(rho))."""
    if i.dim != j.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {j.dim}")
    prods = np.einsum("jab,ibc->jiac", j.kraus, i.kraus)
    return Operation(prods.reshape(-1, i.dim, i.dim))


def add(i: Operation, j: Operation) -> Operation:
    """Parallel sum; defined only when the induced effects still sum below I."""
    if i.dim != j.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {j.dim}")
    try:
        return Operation(np.concatenate([i.kraus, j.kraus]))
    except NotSubunital:
        raise NotPerp("hat(i) + hat(j) exceeds the identity") from None


def scale(i: Operation, lam: float) -> Operation:
    """Convex scaling: each Kraus operator is multiplied by sqrt(lam)."""
    if not 0.0 <= lam <= 1.0:
        raise WeightError(f"scale factor {lam!r} outside [0, 1]")
    if lam == 0.0:
        return zero_operation(i.dim)
    return Operation(np.sqrt(lam) * i.kraus)


def equiv(i: Operation, j: Operation, tol: float = EQ_TOL) -> bool:
    """Probabilistic indistinguishability: equal induced effects."""
    if i.dim != j.dim:
        return False
    return max_abs(i.induced.op - j.induced.op) <= tol


def action_equal(i: Operation, j: Operation, tol: float = EQ_TOL) -> bool:
    """Equality as maps, tested on the matrix-unit basis of L(H)."""
    if i.dim != j.dim:
        return False
    return action_distance(i, j) <= tol


def action_distance(i: Operation, j: Operation) -> float:
    """Largest max-norm gap between the two maps over the matrix-unit basis."""
    dim = i.dim
    worst = 0.0
    for k in range(dim):
        for l in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[k, l] = 1.0
            worst = max(worst, max_abs(apply(i, unit) - apply(j, unit)))
    return worst


def zero_operation(dim: int) -> Operation:
    return Operation(np.zeros((1, dim, dim), dtype=complex))


def identity_channel(dim: int) -> Operation:
    return Operation(identity(dim)[None, :, :])


def luders(a: Effect) -> Operation:
    """Lueders operation rho -> a^{1/2} rho a^{1/2}; measures a."""
    return Operation(a.root[None, :, :], recipe={"kind": "luders", "effect": a})


def kraus_single(a_mat: np.ndarray) -> Operation:
    """Single-operator Kraus operation rho -> A rho A†; requires A†A <= I."""
    return Operation(matcore.as_square(a_mat)[None, :, :])


def _semi_trivial_kraus(pairs: list[tuple[Effect, State]]) -> np.ndarray:
    if not pairs:
        raise WeightError("at least one (effect, state) pair required")
    dim = pairs[0][0].dim
    ops = []
    for a, alpha in pairs:
        if a.dim != dim or alpha.dim != dim:
            raise DimensionError("all pairs must share one dimension")
        spec = alpha.spectrum
        for j in range(dim):
            lam = spec.eigenvalues[j]
            if lam < NEGLIGIBLE_KRAUS:
                continue
            ket = np.sqrt(lam) * spec.eigenvectors[:, j]
            for k in range(dim):
                bra = (a.root @ spec.eigenvectors[:, k]).conj()
                ops.append(np.outer(ket, bra))
    kept = [m for m in ops if max_abs(m) > NEGLIGIBLE_KRAUS]
    if not kept:
        kept = [np.zeros((dim, dim), dtype=complex)]
    return np.stack(kept)


def semi_trivial(pairs: list[tuple[Effect, State]]) -> Operation:
    """Operation rho -> sum_i tr(rho a_i) alpha_i, as an explicit Kraus family.

    The family is built from the spectral representation of each alpha_i:
    with alpha_i = sum_j l_ij |phi_ij><phi_ij| the operators are
    l_ij^{1/2} |phi_ij><a_i^{1/2} phi_ik| over all i, j, k. Spectral terms with
    l_ij below NEGLIGIBLE_KRAUS are dropped. The induced effect is sum_i a_i.
    """
    return Operation(_semi_trivial_kraus(pairs),
                     recipe={"kind": "semi_trivial", "pairs": list(pairs)})


def trivial(a: Effect, alpha: State) -> Operation:
    """Operation rho -> tr(rho a) alpha."""
    return Operation(_semi_trivial_kraus([(a, alpha)]),
                     recipe={"kind": "trivial", "effect": a, "state": alpha})


def sharp_operation(projections: list[np.ndarray]) -> Operation:
    """Operation rho -> sum_i p_i rho p_i for mutually orthogonal projections."""
    mats = [matcore.as_hermitian(p, tol=1e-9) for p in projections]
    for p in mats:
        if max_abs(p @ p - p) > EQ_TOL:
            raise NotProjection("family member is not a projection")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(mats[i] @ mats[j]) > 1e-9:
                raise NotOrthogonal("projections are not mutually orthogonal")
    return Operation(np.stack(mats), recipe={"kind": "sharp", "projections": mats})


def atomic_operation(vectors: list[np.ndarray]) -> Operation:
    """Sharp operation whose projections are |v><v| over orthonormal vectors."""
    projs = [np.outer(v, np.conj(v)) for v in (np.asarray(w, dtype=complex) for w in vectors)]
    return sharp_operation(projs)


def complement_luders(i: Operation) -> Operation:
    """The unique Lueders complement: Lueders of I - hat(i)."""
    return luders(Effect(identity(i.dim) - i.induced.op))


def is_complement(j: Operation, i: Operation, tol: float = EQ_TOL) -> bool:
    """True iff j completes i to a channel, i.e. hat(j) = I - hat(i)."""
    if i.dim != j.dim:
        return False
    want = identity(i.dim) - i.induced.op
    return max_abs(j.induced.op - want) <= tol


def effect_then_op(a: Effect, i: Operation) -> Operation:
    """Mixed product: measure a (Lueders), then run i; rho -> i(a^{1/2} rho a^{1/2})."""
    if a.dim != i.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {i.dim}")
    return compose(luders(a), i)


def op_then_effect(i: Operation, a: Effect) -> Effect:
    """Mixed product: run i, then measure a; the effect sum_k B_k† a B_k.

    Independent of the chosen Kraus family: tr(rho result) = tr(i(rho) a).
    """
    if a.dim != i.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {a.dim}")
    out = np.einsum("nji,jk,nkl->il", i.kraus.conj(), a.op, i.kraus)
    return Effect(out)


def remix_kraus(op: Operation, unitary: np.ndarray) -> Operation:
    """Rewrite the Kraus family by a unitary mixing matrix.

    The family is zero-padded up to the mixing size m >= n and replaced by
    B_j = sum_i W_ji A_i; the represented map is unchanged.
    """
    w = np.asarray(unitary, dtype=complex)
    m = w.shape[0]
    if w.shape != (m, m) or m < op.n_kraus:
        raise DimensionError("mixing matrix must be m x m with m >= n_kraus")
    if max_abs(dagger(w) @ w - np.eye(m)) > 1e-10:
        raise NotOrthogonal("mixing matrix is not unitary")
    padded = np.zeros((m, op.dim, op.dim), dtype=complex)
    padded[: op.n_kraus] = op.kraus
    return Operation(np.einsum("ji,idk->jdk", w, padded))


def operation_leq(i: Operation, j: Operation, rng: np.random.Generator | None = None) -> bool:
    """Sampled necessary condition for the order i <= j: i(rho) <= j(rho) on probes.

    Probes SAMPLE_N seeded random states plus the d^2 pure states derived from
    the matrix-unit basis (e_k, (e_k+e_l)/sqrt2, (e_k+ie_l)/sqrt2), which span
    L(H). A False result refutes i <= j. A True result does not certify it: a
    linear map can be positive on a spanning set of states without being a
    positive map, so j - i may still fail on a state that was not probed.
    """
    if i.dim != j.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {j.dim}")
    dim = i.dim
    rng = rng or np.random.default_rng(0)
    probes = [matcore.random_state(dim, rng) for _ in range(SAMPLE_N)]
    for k in range(dim):
        e_k = np.zeros(dim, dtype=complex)
        e_k[k] = 1.0
        probes.append(np.outer(e_k, e_k.conj()))
        for l in range(k + 1, dim):
            e_l = np.zeros(dim, dtype=complex)
            e_l[l] = 1.0
            for v in (e_k + e_l, e_k + 1j * e_l):
                v = v / np.linalg.norm(v)
                probes.append(np.outer(v, v.conj()))
    return all(matcore.loewner_leq(apply(i, rho), apply(j, rho)) for rho in probes)


def random_channel(dim: int, rng: np.random.Generator, n_kraus: int | None = None) -> Operation:
    """Random channel: Ginibre family normalized so the Kraus sum is I."""
    n = n_kraus or int(rng.integers(1, 4))
    while True:
        fam = np.stack(
            [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
        )
        inv_root = matcore.inv_sqrt_pd(_hat_matrix(fam))
        if inv_root is not None:
            break
    return Operation(np.einsum("nij,jk->nik", fam, inv_root))


def random_operation(dim: int, rng: np.random.Generator) -> Operation:
    """Random operation with a generic induced effect (channel after a Lueders filter)."""
    e = Effect(matcore.random_effect(dim, rng))
    return effect_then_op(e, random_channel(dim, rng))

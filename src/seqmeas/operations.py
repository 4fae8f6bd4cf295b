"""Operations as Kraus families.

An operation maps rho to sum_i A_i rho A_i† with sum_i A_i† A_i <= I; it is a
channel when that sum is exactly I. The induced effect (``hat``) is the unique
effect measured by the operation: tr(rho hat) = tr(op(rho)) for every state.

Every operation is certified, sum_i A_i† A_i <= I, by one body: a family is
compressed (``_bounded``), its induced effect built as the validation and
certified in [0, I] (``_induced``), and carried as ``Operation.induced``, so
``hat``, ``is_channel``, ``equiv`` and the instrument sum read it instead of
recomputing it. The hats, as ``_hat_matrix`` computes them, go straight to
``effects._computed``, the one entry of every effect the library computes: one
symmetrization, then the checks and verdicts of ``Effect``, without the
caller-input reader; an effect outside [0, I] is ``NotSubunital``.

The ``Operation`` constructor reads a caller's family (``matcore._read``)
first, and keeps a copy of it. A family the library built from validated
operands is not read: ``_built`` runs the body on one (``compose``, ``add``,
``scale``, ``remix_kraus``, the structured constructors, a measure's total
channel), and ``_stacked_operations`` on many families of one dim at once,
with the same verdicts and bits, through ``_operations`` (drawn, merged or
structured families) and ``_composed`` (products of pairs of families): every
operation member of a measure the library makes, except those of a
conditioning, which ``compose`` builds one at a time.

Operations are represented by their Kraus family, stored as one (n, dim, dim)
complex array with n <= dim². The stacked rows vec(A_n) span at most dim²
dimensions, so a longer family (from ``compose``, ``add``, a semi-trivial
construction with many pairs, an instrument's ``bar`` or ``part``) is replaced
at construction by the R factor of its QR decomposition (one LAPACK call,
``_bounded``): R†R = X†X for the stacked rows X, so the Gram matrix sum_n
vec(A_n) vec(A_n)†, and with it the map, is unchanged (Choi, "Completely
positive linear maps on complex matrices", Linear Algebra Appl. 10, 1975).
Each operation also carries its superoperator (``Operation.superop``, the
dim² x dim² natural representation), computed on first use. Equality of
operations compares superoperators, never Kraus lists (the Kraus decomposition
is far from unique).

Trivial and semi-trivial operations are built from pivoted Cholesky factors
(``matcore._psd_factor``), with no root or spectrum: a rank-r effect with a
rank-s state gives r * s operators.

The three contractions of a family are BLAS matrix products over its stacked
rows (the (n d, d) matrix of A_1, ..., A_n on top of each other) or its
operators side by side (the (d, n d) matrix [A_1 | ... | A_n]), never an
einsum of three operands, which numpy runs as one nested loop: the induced
effect sum A† A (``_hat_matrix``) is one GEMM, the action sum A rho A†
(``apply``) and the post-operation effect sum B† a B (``_sandwich``) two each.
``_operations`` groups its families by shape (n, d), and ``_composed`` groups
its pairs by their two family sizes and builds each group's products with one
batched matmul; each group, stacked, then gets one batched QR (only when n >
d²) and one batched hat. Batched matmul and QR compute each member as the
scalar call does, so every member is bit for bit what ``Operation`` builds from
its family alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from . import matcore
from .effects import (
    Effect,
    State,
    _check_type,
    _computed,
    _ket_bra,
    _validated,
    complement,
    random_effects,
)
from .errors import (
    DimensionError,
    NotEffect,
    NotOperation,
    NotOrthogonal,
    NotPerp,
    NotProjection,
    NotState,
    NotSubunital,
    WeightError,
)
from .matcore import EQ_TOL, _frozen, dagger, identity, max_abs

# Sample size for the state-sampling side of the operation order test.
SAMPLE_N = 32


def _as_kraus_array(kraus) -> np.ndarray:
    """The family as one (n, d, d) array of its own; a single d x d operator is
    promoted. The operation keeps and freezes it, so it is a copy: the caller's
    array stays writable, and later writes to it never reach the operation."""
    arr = matcore._read(kraus, "Kraus family", (2, 3)).copy()
    return arr[None, :, :] if arr.ndim == 2 else arr


@dataclass(frozen=True, eq=False)
class Operation:
    """Completely positive trace-nonincreasing map given by Kraus operators.

    ``recipe`` records how a structured constructor built the family: its
    ``"kind"`` and the constructor's arguments, keyed by the field names of
    that kind (``_RECIPE_KINDS``), so the JSON form is written from it and read
    back through the same constructor. It never enters comparisons. A recipe
    passed in here must rebuild the same map (``_checked_recipe``); the
    structured constructors set theirs afterwards (``_built``), unchecked.

    The family is read as caller input and copied, so the caller's array is
    never frozen or aliased; it is compressed to at most dim² operators
    (``_bounded``), and its induced effect sum A†A (``_hat_matrix``) is
    symmetrized once and certified in [0, I] as a stack of one by
    ``effects._computed``; an effect outside [0, I] raises ``NotSubunital``.
    """

    kraus: np.ndarray
    recipe: dict | None = field(default=None, compare=False)
    induced: Effect = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kraus, induced = _certified(_as_kraus_array(self.kraus))
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "induced", induced)
        if self.recipe is not None:
            object.__setattr__(self, "recipe", _checked_recipe(self))

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    @cached_property
    def superop(self) -> np.ndarray:
        """Natural representation S = sum_n A_n (x) conj(A_n) (read-only).

        vec(op(rho)) = S vec(rho) for row-major vec, so column (k, l) of S is
        the image of the matrix unit E_kl.
        """
        d = self.dim
        s = _gram(self.kraus).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        return _frozen(s)


# Each recipe kind: its constructor (looked up per call, so a rebound module
# attribute is honoured) and its fields in argument order, as JSON writes them.
_RECIPE_KINDS = {
    "kraus": ("Operation", ("operators",)),
    "luders": ("luders", ("effect",)),
    "trivial": ("trivial", ("effect", "state")),
    "semi_trivial": ("semi_trivial", ("pairs",)),
    "sharp": ("sharp_operation", ("projections",)),
}


def _certified(kraus: np.ndarray) -> tuple[np.ndarray, Effect]:
    """What an ``Operation`` stores of a family (n, d, d) once read: the family,
    compressed (``_bounded``) and frozen, and its certified induced effect."""
    arr = _bounded(kraus)
    (induced,) = _induced([arr])
    return _frozen(arr), induced


def _built(kraus: np.ndarray, recipe: dict | None = None) -> Operation:
    """The operation of a complex Kraus family (n, d, d) the library built from
    validated operands, with the building constructor's ``recipe``, if any:
    ``Operation``'s body after its reader, so bit for bit ``Operation(kraus)``,
    or failing alike."""
    kraus, induced = _certified(kraus)
    return _validated(Operation, kraus=kraus, recipe=recipe, induced=induced)


def _checked_recipe(op: Operation) -> dict | None:
    """The recipe a caller passed with ``op``'s family: a kind of _RECIPE_KINDS
    with its fields, whose constructor rebuilds the same map (superoperators
    within EQ_TOL), else ``NotOperation``. The rebuilt operation's own recipe is
    kept (none for "kraus", the family's own form), so later changes to the
    caller's dict cannot reach the JSON."""
    recipe = op.recipe
    try:
        constructor, names = _RECIPE_KINDS[recipe["kind"]]
        args = [recipe[name] for name in names]
    except (KeyError, TypeError):
        raise NotOperation(f"recipe is not one of the kinds {list(_RECIPE_KINDS)} "
                           "with its fields") from None
    built = globals()[constructor](*args)
    if action_distance(built, op) > EQ_TOL:
        raise NotOperation(f"{recipe['kind']!r} recipe builds another map than the family")
    return built.recipe


def _operations(families, recipes=None) -> tuple[Operation, ...]:
    """``_built(f, r)`` for every complex family f (n, d, d) and recipe r, validated
    as one stack. The families are the library's or already read
    (``kraus_instrument``, ``sharp_instrument``), grouped by shape (n, d) and
    stacked per group (``_stacked_operations``). Families of different dims
    raise the ``DimensionError`` a measure of them would.
    """
    arrs = list(families)
    if len({arr.shape[-1] for arr in arrs}) > 1:
        raise DimensionError("all members must share one dimension")
    return _stacked_operations([(members, np.array([arrs[k] for k in members]))
                                for members in _grouped(arr.shape for arr in arrs)], recipes)


def _stacked_operations(groups, recipes=None) -> tuple[Operation, ...]:
    """The operations of groups (positions of m members, their families as one
    stack (m, n, d, d)), in position order. Each group gets one batched
    ``_bounded`` and one batched ``_hat_matrix``, the kernels ``Operation`` runs,
    so every ``kraus`` and ``induced.op`` is bit for bit that of ``Operation(f)``;
    the induced effects of all groups are certified at once (``_induced``).
    The stacks must be the caller's own: they are frozen and shared by their
    members. No group at all is a ``DimensionError``, as an empty measure is."""
    if not groups:
        raise DimensionError("need at least one Kraus family")
    stacks = [_frozen(_bounded(stack)) for _, stack in groups]
    positions = [k for members, _ in groups for k in members]
    kraus = [None] * len(positions)
    for k, arr in zip(positions, (arr for stack in stacks for arr in stack)):
        kraus[k] = arr
    induced = _induced(stacks, None if len(stacks) == 1 else np.argsort(positions))
    recipes = recipes or [None] * len(positions)
    return tuple(_validated(Operation, kraus=arr, recipe=recipe, induced=effect)
                 for arr, recipe, effect in zip(kraus, recipes, induced))


def _grouped(keys) -> list[list[int]]:
    """The positions of equal keys, one list per distinct key in first-appearance
    order, each list ascending."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _induced(families, order=None) -> tuple[Effect, ...]:
    """The induced effects of a list of families (n, d, d) and stacks of families
    (m, n, d, d): their hats (``_hat_matrix``), one after another and then
    taken in ``order`` when one is given, go as one stack straight to
    ``effects._computed``, which symmetrizes them once and certifies them
    with nothing read. An effect outside [0, I] is reported as sum A†A above
    I. A family so large that its hat overflows has a non-finite
    hat, which the certificate declines and Jacobi's reader rejects as
    ``DimensionError``, as it rejects any non-finite matrix; the overflow and
    the invalid values it spreads are silenced for that reason only. A finite hat
    with an entry past about 1.3e154 is a ``DimensionError`` too, from Jacobi."""
    with np.errstate(over="ignore", invalid="ignore"):
        hats = [_hat_matrix(f).reshape(-1, *f.shape[-2:]) for f in families]
        hats = hats[0] if order is None else np.concatenate(hats)[order]
        try:
            return _computed(Effect, hats)
        except NotEffect as exc:
            raise NotSubunital(f"sum A†A is not below I: {exc}") from None


def _bounded(kraus: np.ndarray) -> np.ndarray:
    """The same map with at most dim² operators, for a family (n, d, d) or each
    family of a stack (m, n, d, d): R of the stacked vec rows X (n, d²), a
    Householder QR (Golub & Van Loan, Matrix Computations, sec. 5.2), so R†R =
    X†X. One call of LAPACK's ``zgeqrf`` through numpy's gufunc
    (``_umath_linalg.qr_r_raw``), batched over a stack, on a copy of the rows,
    which it overwrites with R above the diagonal; R is the upper triangle of
    its leading d² rows, bit for bit what ``np.linalg.qr(X, mode="r")``
    returns, without that wrapper's type resolution and error-state setup. A
    QR of finite rows raises no floating-point error."""
    *lead, n, d, _ = kraus.shape
    if n <= d * d:
        return kraus
    rows = kraus.reshape(*lead, n, d * d).copy()
    _umath_linalg.qr_r_raw(rows, signature="D->D")
    return np.triu(rows[..., : d * d, :]).reshape(*lead, d * d, d, d)


def _gram(kraus: np.ndarray) -> np.ndarray:
    """sum_n vec(A_n) vec(A_n)†: the Choi matrix, up to reordering, of the family."""
    n, d, _ = kraus.shape
    flat = kraus.reshape(n, d * d)
    return flat.T @ flat.conj()


def _hat_matrix(kraus: np.ndarray) -> np.ndarray:
    """sum_n A_n† A_n of a family (n, d, d), or of each family of a stack (m, n, d,
    d): one GEMM, X† X over the stacked rows X, as BLAS returns it. BLAS does
    not sum the terms of entries (j, k) and (k, j) in one order, so the product
    is Hermitian only to rounding, beyond ``HERM_TOL`` for a huge family; its
    one symmetrization is that of ``effects._computed``, which certifies it
    (``_induced``)."""
    *lead, n, d, _ = kraus.shape
    rows = kraus.reshape(*lead, n * d, d)
    return matcore._adjoint(rows) @ rows


def _side_by_side(kraus: np.ndarray) -> np.ndarray:
    """[A_1 | ... | A_n]: the operators of a family (n, d, d), or of each family of a
    stack (m, n, d, d), side by side as one (d, n d) matrix."""
    return kraus.swapaxes(-3, -2).reshape(*kraus.shape[:-3], kraus.shape[-1], -1)


def _check_operations(*ops) -> None:
    """Every argument is an ``Operation`` (a bare Kraus matrix is not one)."""
    for op in ops:
        _check_type(op, Operation, NotOperation)


def apply(op: Operation, rho: State | np.ndarray) -> np.ndarray:
    """Apply the operation: sum_i A_i rho A_i†.

    Accepts a State or a bare matrix; the Kraus sum is linear, so applying to
    arbitrary matrices (e.g. matrix units) is well defined and used by the
    action-equality tests. Returns the (generally subnormalized) output matrix.
    Two GEMMs (``ndarray.dot``, which calls BLAS with less overhead than ``@``
    on one pair of matrices): the stacked rows times rho give the A_i rho, and
    those side by side times the adjoint of the operators side by side give the
    sum.
    """
    _check_operations(op)
    mat = rho.op if isinstance(rho, State) else matcore.as_square(rho)
    if mat.shape != (op.dim, op.dim):
        raise DimensionError(f"state shape {mat.shape} vs operation dim {op.dim}")
    n, d, _ = op.kraus.shape
    fronts = op.kraus.reshape(n * d, d).dot(mat).reshape(n, d, d)
    return _side_by_side(fronts).dot(dagger(_side_by_side(op.kraus)))


def hat(op: Operation) -> Effect:
    """The induced effect sum_i A_i† A_i, as carried by the operation."""
    _check_operations(op)
    return op.induced


def is_channel(op: Operation, tol: float = EQ_TOL) -> bool:
    _check_operations(op)
    return max_abs(op.induced.op - identity(op.dim)) <= tol


def compose(i: Operation, j: Operation) -> Operation:
    """Sequential product: first i, then j, i.e. rho -> j(i(rho))."""
    _check_operations(i, j)
    matcore._check_same_operand_dim(i, j)
    return _built(_compose_kraus(i.kraus[None], j.kraus[None])[0])


def _compose_kraus(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The products B_m A_n over the Kraus families A of i and B of j, m outer: i (ni,
    d, d) and j (nj, d, d) give (nj ni, d, d), and stacks (s, ni, d, d) and (s,
    nj, d, d) give the s products, (s, nj ni, d, d).

    One GEMM, batched over the stack: the rows (m, a) of the stacked B times the
    columns (n, c) of the side-by-side A, then regrouped into (m, n) blocks.
    """
    *lead, nj, d, _ = j.shape
    prods = j.reshape(*lead, nj * d, d) @ _side_by_side(i)
    return prods.reshape(*lead, nj, d, -1, d).swapaxes(-3, -2).reshape(*lead, -1, d, d)


def _composed(pairs) -> tuple[Operation, ...]:
    """``compose`` of every pair (i, j) of Kraus families of validated operations of
    one dim, i first, validated as one stack: the pairs are grouped by their two
    family sizes, and each group is composed by one batched GEMM
    (``_compose_kraus``) into the stack ``_stacked_operations`` builds from.
    Products of validated families are finite, so they are not read again."""
    groups = []
    for members in _grouped((i.shape, j.shape) for i, j in pairs):
        firsts, thens = (np.array([pairs[k][side] for k in members]) for side in (0, 1))
        groups.append((members, _compose_kraus(firsts, thens)))
    return _stacked_operations(groups)


def add(i: Operation, j: Operation) -> Operation:
    """Parallel sum; defined only when the induced effects still sum below I."""
    _check_operations(i, j)
    matcore._check_same_operand_dim(i, j)
    try:
        return _built(_summed_kraus((i, j)))
    except NotSubunital:
        raise NotPerp("hat(i) + hat(j) exceeds the identity") from None


def _summed_kraus(ops) -> np.ndarray:
    """The Kraus family of the parallel sum of operations: their families concatenated."""
    return np.concatenate([o.kraus for o in ops])


def scale(i: Operation, lam: float) -> Operation:
    """Convex scaling: each Kraus operator is multiplied by sqrt(lam)."""
    _check_operations(i)
    if not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
        raise WeightError(f"scale factor {lam!r} is not a real number in [0, 1]")
    if lam == 0.0:
        return zero_operation(i.dim)
    return _built(np.sqrt(lam) * i.kraus)


def equiv(i: Operation, j: Operation, tol: float = EQ_TOL) -> bool:
    """Probabilistic indistinguishability: equal induced effects."""
    _check_operations(i, j)
    if i.dim != j.dim:
        return False
    return max_abs(i.induced.op - j.induced.op) <= tol


def action_equal(i: Operation, j: Operation, tol: float = EQ_TOL) -> bool:
    """Equality as maps: superoperators equal within tol."""
    _check_operations(i, j)
    if i.dim != j.dim:
        return False
    return action_distance(i, j) <= tol


def action_distance(i: Operation, j: Operation) -> float:
    """Largest entrywise gap between the superoperators.

    This is the largest max-norm gap between the two maps over the
    matrix-unit basis, since column (k, l) of ``superop`` is the image of E_kl.
    """
    _check_operations(i, j)
    matcore._check_same_operand_dim(i, j)
    return max_abs(i.superop - j.superop)


def zero_operation(dim: int) -> Operation:
    return Operation(np.zeros((1, dim, dim), dtype=complex))


def identity_channel(dim: int) -> Operation:
    return Operation(identity(dim)[None, :, :])


def luders(a: Effect) -> Operation:
    """Lueders operation rho -> a^{1/2} rho a^{1/2}; measures a."""
    return _built(*_luders_parts(a))


def _luders_parts(a: Effect) -> tuple[np.ndarray, dict]:
    """The Kraus family and recipe of ``luders(a)``, shared with the stacked
    ``instruments.luders_instrument``."""
    _check_type(a, Effect, NotEffect)
    return a.root[None, :, :], {"kind": "luders", "effect": a}


def kraus_single(a_mat: np.ndarray) -> Operation:
    """Single-operator Kraus operation rho -> A rho A†; requires A†A <= I. The
    operation keeps a copy of A, never the caller's array."""
    return _built(matcore.as_square(a_mat)[None, :, :].copy())


def _semi_trivial_kraus(pairs: list[tuple[Effect, State]]) -> np.ndarray:
    if not pairs:
        raise WeightError("at least one (effect, state) pair required")
    for a, alpha in pairs:
        _check_type(a, Effect, NotEffect)
        _check_type(alpha, State, NotState)
    dim = pairs[0][0].dim
    blocks = []
    for a, alpha in pairs:
        if a.dim != dim or alpha.dim != dim:
            raise DimensionError("all pairs must share one dimension")
        # alpha = sum_j c_j c_j† and a = sum_k b_k† b_k; operator (j, k) is the
        # column c_j times the row b_k. The columns are scaled to sum_j |c_j|^2 = 1,
        # the trace of alpha, so the induced effect is a even when the factor leaves
        # out a negative eigenvalue that PSD_TOL accepts.
        kets = matcore._psd_factor(alpha.op).conj()
        kets = kets / np.linalg.norm(kets)
        bras = matcore._psd_factor(a.op)
        blocks.append((kets[:, None, :, None] * bras[None, :, None, :]).reshape(-1, dim, dim))
    ops = np.concatenate(blocks)
    return ops if len(ops) else np.zeros((1, dim, dim), dtype=complex)


def semi_trivial(pairs: list[tuple[Effect, State]]) -> Operation:
    """Operation rho -> sum_i tr(rho a_i) alpha_i, as an explicit Kraus family.

    With pivoted Cholesky factors (``matcore._psd_factor``) a_i = sum_k
    b_ik† b_ik (rows b_ik) and alpha_i = sum_j c_ij c_ij† (columns c_ij,
    scaled to unit trace) the operators are c_ij b_ik over all i, j, k,
    rank(alpha_i) * rank(a_i) per pair; with none at all (zero effects) the
    family is the zero operator, and a family longer than dim² is compressed by
    ``Operation``. The induced effect is sum_i a_i.
    """
    return _built(_semi_trivial_kraus(pairs), {"kind": "semi_trivial", "pairs": list(pairs)})


def trivial(a: Effect, alpha: State) -> Operation:
    """Operation rho -> tr(rho a) alpha."""
    return _built(*_trivial_parts(a, alpha))


def _trivial_parts(a: Effect, alpha: State) -> tuple[np.ndarray, dict]:
    """The Kraus family and recipe of ``trivial(a, alpha)``, shared with the stacked
    semi-trivial instrument."""
    return _semi_trivial_kraus([(a, alpha)]), {"kind": "trivial", "effect": a, "state": alpha}


def _projection_list(projections) -> np.ndarray:
    """Validate a nonempty family of projections of one dim; return them symmetrized,
    as one (n, d, d) array."""
    mats = matcore._as_hermitian_stack(projections, 1e-9, "projection family")
    for p in mats:
        if max_abs(p @ p - p) > EQ_TOL:
            raise NotProjection("family member is not a projection")
    return mats


def sharp_operation(projections: list[np.ndarray]) -> Operation:
    """Operation rho -> sum_i p_i rho p_i for mutually orthogonal projections."""
    mats = _projection_list(projections)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(mats[i] @ mats[j]) > 1e-9:
                raise NotOrthogonal("projections are not mutually orthogonal")
    return _built(mats, {"kind": "sharp", "projections": mats})


def atomic_operation(vectors: list[np.ndarray]) -> Operation:
    """Sharp operation whose projections are |v><v| over orthonormal vectors."""
    return sharp_operation([_ket_bra(v) for v in vectors])


def complement_luders(i: Operation) -> Operation:
    """The unique Lueders complement: Lueders of I - hat(i)."""
    _check_operations(i)
    return luders(complement(i.induced))


def is_complement(j: Operation, i: Operation, tol: float = EQ_TOL) -> bool:
    """True iff j completes i to a channel, i.e. hat(j) = I - hat(i)."""
    _check_operations(i, j)
    if i.dim != j.dim:
        return False
    want = identity(i.dim) - i.induced.op
    return max_abs(j.induced.op - want) <= tol


def effect_then_op(a: Effect, i: Operation) -> Operation:
    """Mixed product: measure a (Lueders), then run i; rho -> i(a^{1/2} rho a^{1/2})."""
    return compose(luders(a), i)


def op_then_effect(i: Operation, a: Effect) -> Effect:
    """Mixed product: run i, then measure a; the effect sum_k B_k† a B_k.

    Independent of the chosen Kraus family: tr(rho result) = tr(i(rho) a).
    """
    _check_operations(i)
    _check_type(a, Effect, NotEffect)
    matcore._check_same_operand_dim(i, a)
    return _computed(Effect, _sandwich(i.kraus, a.op))


def _sandwich(kraus: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k B_k† a B_k over a Kraus family B: two GEMMs, as in ``apply``. The adjoint
    of the operators side by side times a gives the B_k† a stacked, and those
    side by side times the stacked rows give the sum."""
    n, d, _ = kraus.shape
    backs = dagger(_side_by_side(kraus)).dot(a).reshape(n, d, d)
    return _side_by_side(backs).dot(kraus.reshape(n * d, d))


def remix_kraus(op: Operation, unitary: np.ndarray) -> Operation:
    """Rewrite the Kraus family by a unitary mixing matrix.

    The family is zero-padded up to the mixing size m >= n and replaced by
    B_j = sum_i W_ji A_i; the represented map is unchanged.
    """
    _check_operations(op)
    w = matcore._read(unitary, "mixing matrix")
    m = w.shape[0]
    if m < op.n_kraus:
        raise DimensionError(f"mixing matrix is {m} x {m}, below n_kraus = {op.n_kraus}")
    if max_abs(dagger(w) @ w - np.eye(m)) > 1e-10:
        raise NotOrthogonal("mixing matrix is not unitary")
    padded = np.zeros((m, op.dim, op.dim), dtype=complex)
    padded[: op.n_kraus] = op.kraus
    return _built(np.einsum("ji,idk->jdk", w, padded))


def operation_leq(i: Operation, j: Operation, rng: np.random.Generator | None = None) -> bool:
    """The operation order i <= j: i(rho) <= j(rho) for every state rho.

    First a certificate: when the Gram (Choi) matrix of j's family minus that
    of i's passes ``matcore.psd_certified``, j - i is completely positive
    (Choi 1975), hence positive, and the result is True with no probe drawn.
    Both sides use PSD_TOL: a Choi matrix C with C + tol I >= 0 gives
    j(rho) - i(rho) >= -tol I on every state, the margin the probes allow.

    Otherwise probes decide: first SAMPLE_N seeded random states, then, when
    those all pass, the d^2 pure states derived from the matrix-unit basis
    (e_k, (e_k+e_l)/sqrt2, (e_k+ie_l)/sqrt2), which span L(H). The gaps j(rho)
    - i(rho) of each set are checked as one stack (``matcore._first_outside``),
    in probe order, so Jacobi runs only up to the first gap outside the cone,
    and the basis gaps are not computed when a random probe refutes the pair.
    A False result refutes i <= j. When the certificate declines and every
    probe passes, neither decides and the result is True uncertified: j - i
    may be positive without being completely positive, or fail on a state that
    was not probed.
    """
    _check_operations(i, j)
    matcore._check_same_operand_dim(i, j)
    gap = _gram(j.kraus) - _gram(i.kraus)
    if matcore.psd_certified(matcore._hermitian_part(gap)):
        return True
    randoms = matcore._random_states(i.dim, rng or np.random.default_rng(0), SAMPLE_N)
    for probes in (randoms, _basis_probes(i.dim)):
        gaps = np.array([apply(j, rho) - apply(i, rho) for rho in probes])
        if matcore._first_outside(matcore._as_hermitian_stack(gaps, 1e-9)) is not None:
            return False
    return True


@cache
def _basis_probes(dim: int) -> np.ndarray:
    """The basis probes of ``operation_leq`` in order, one read-only stack per dim."""
    probes = []
    basis = identity(dim)
    for k, e_k in enumerate(basis):
        probes.append(np.outer(e_k, e_k.conj()))
        for e_l in basis[k + 1:]:
            for v in (e_k + e_l, e_k + 1j * e_l):
                v = v / np.linalg.norm(v)
                probes.append(np.outer(v, v.conj()))
    return _frozen(np.array(probes))


def random_channels(dim: int, rng: np.random.Generator, n: int,
                    n_kraus=None) -> tuple[Operation, ...]:
    """n random channels, as n ``random_channel`` calls would draw them, their
    normalizers from one stacked solve and their members built as one stack.
    ``n_kraus`` is one family size for all, a sequence of n sizes, or None (each
    drawn from {1, 2, 3})."""
    sizes = matcore._counts(n_kraus, rng, 1, 4, "n_kraus", n)
    fams, inv_roots = matcore._normalizing_draws(
        lambda k: matcore._ginibres(dim, rng, k),
        lambda fam: matcore._hermitian_part(_hat_matrix(fam)), sizes)
    return _operations([np.einsum("nij,jk->nik", fam, inv_root)
                        for fam, inv_root in zip(fams, inv_roots)])


def random_channel(dim: int, rng: np.random.Generator, n_kraus: int | None = None) -> Operation:
    """Random channel: Ginibre family normalized so the Kraus sum is I."""
    return random_channels(dim, rng, 1, n_kraus)[0]


def random_operations(dim: int, rng: np.random.Generator, n: int) -> tuple[Operation, ...]:
    """n random operations ``effect_then_op(e, c)``: the n effects e are drawn
    first (``random_effects``), then the n channels c (``random_channels``), and
    the members are built as one stack. One operation draws what
    ``random_operation`` draws; n operations draw in another order than n
    calls, which alternate effect and channel."""
    effs = random_effects(dim, rng, n)
    chans = random_channels(dim, rng, n)
    return _composed([(e.root[None], c.kraus) for e, c in zip(effs, chans)])


def random_operation(dim: int, rng: np.random.Generator) -> Operation:
    """Random operation with a generic induced effect (channel after a Lueders filter)."""
    return random_operations(dim, rng, 1)[0]

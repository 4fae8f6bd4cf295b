"""Operations as Kraus families.

An operation maps rho to sum_i A_i rho A_i† with sum_i A_i† A_i <= I; it is a
channel when that sum is exactly I. The induced effect (``hat``) is the unique
effect measured by the operation: tr(rho hat) = tr(op(rho)) for every state.

Every operation is built by one body, ``_stacked_operations``, on stacks of
families, a single family being a stack of one: each stack is compressed
(``_bounded``), and the induced effects sum A†A of all members, as
``_hat_matrix`` computes them, are certified in [0, I] at once (``_induced``)
by ``effects._computed``, the one entry of every effect the library computes;
an effect outside is ``NotSubunital``. Each operation carries its induced
effect (``Operation.induced``), which ``hat``, ``is_channel``, ``equiv`` and
the instrument sum read instead of recomputing it.

A family reaches the body through one of two doors. The reader: ``Operation``
reads a caller's family (``matcore._read``) and builds a copy of it through
``_built``. The library: a family built from validated operands is not read,
and passes no public constructor. ``_built`` takes one (``compose`` and
``effect_then_op``, each one GEMM of ``_compose_kraus``, ``add``, ``scale``,
``remix_kraus``, the structured constructors and the constants
``zero_operation`` and ``identity_channel``, a measure's total channel),
``_operations`` groups many by shape (drawn, merged and structured families),
and ``_composed`` groups pairs of families by their two sizes and builds each
group's products with one batched GEMM (instrument products, drawn
operations). A conditioning builds its members one at a time, through
``compose``.

Two public functions here read what they are given as caller input, and the
library calls each for a reason only: ``apply`` on a caller's state (an
instrument's probabilities, the front of ``instruments.cond_prob``), and
``sharp_operation`` on the rank-one projections of ``atomic_operation``, since
its stack reader is what rejects a ragged, empty or mixed-dim list of vectors.
``operation_leq`` applies no probe: it reads the gaps off its Choi gap.

Operations are represented by their Kraus family, stored as one (n, dim, dim)
complex array with n <= dim². The stacked rows vec(A_n) span at most dim²
dimensions, so a longer family (from ``compose``, ``add``, a semi-trivial
construction with many pairs, an instrument's ``bar`` or ``part``) is replaced
at construction by the R factor of its QR decomposition (one LAPACK call,
``_bounded``): R†R = X†X for the stacked rows X, so the Gram matrix sum_n
vec(A_n) vec(A_n)†, and with it the map, is unchanged (Choi, "Completely
positive linear maps on complex matrices", Linear Algebra Appl. 10, 1975).
Each operation also carries its superoperator (``Operation.superop``, the
dim² x dim² natural representation), computed on first use; ``operation_leq``
reads its probe gaps off the same form of a Choi gap (``_natural``). Equality of
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
Batched matmul and QR compute each member of a stack as a call on it alone
does, so a member's bits do not depend on the stack it is built in.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import repeat

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

    The reader's door: the family is read as caller input and copied, so the
    caller's array is never frozen or aliased, and the copy is built by the one
    body of every operation (``_built``): compressed to at most dim² operators,
    its induced effect sum A†A certified in [0, I], else ``NotSubunital``.
    """

    kraus: np.ndarray
    recipe: dict | None = field(default=None, compare=False)
    induced: Effect = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        built = _built(_as_kraus_array(self.kraus))
        recipe = None if self.recipe is None else _checked_recipe(self.recipe, built)
        vars(self).update(kraus=built.kraus, induced=built.induced, recipe=recipe)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    @cached_property
    def superop(self) -> np.ndarray:
        """Natural representation S = sum_n A_n (x) conj(A_n) (read-only): ``_natural``
        of the family's Gram matrix.

        vec(op(rho)) = S vec(rho) for row-major vec, so column (k, l) of S is
        the image of the matrix unit E_kl.
        """
        return _frozen(_natural(_gram(self.kraus), self.dim))


# Each recipe kind: its constructor (looked up per call, so a rebound module
# attribute is honoured) and its fields in argument order, as JSON writes them.
_RECIPE_KINDS = {
    "kraus": ("Operation", ("operators",)),
    "luders": ("luders", ("effect",)),
    "trivial": ("trivial", ("effect", "state")),
    "semi_trivial": ("semi_trivial", ("pairs",)),
    "sharp": ("sharp_operation", ("projections",)),
}


def _built(kraus: np.ndarray, recipe: dict | None = None) -> Operation:
    """The operation of one complex Kraus family (n, d, d) of its own, read or built
    from validated operands, with its constructor's ``recipe``, if any: the
    body on the family as a stack of one (a view, so nothing is copied)."""
    return _stacked_operations([kraus[None]], None, [recipe])[0]


def _checked_recipe(recipe, op: Operation) -> dict | None:
    """The recipe a caller passed with ``op``'s family: a kind of _RECIPE_KINDS
    with its fields, whose constructor rebuilds the same map (superoperators
    within EQ_TOL), else ``NotOperation``. The rebuilt operation's own recipe is
    kept (none for "kraus", the family's own form), so later changes to the
    caller's dict cannot reach the JSON."""
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
    """The operations of complex families f (n, d, d), the library's own or already
    read, with their recipes, if any: the body on one stack, a copy, per shape
    (n, d). Families of different dims raise the ``DimensionError`` a measure
    of them would."""
    groups, order = _grouped(families, lambda arr: arr.shape)
    if len({group[0].shape[-1] for group in groups}) > 1:
        raise DimensionError("all members must share one dimension")
    return _stacked_operations([np.array(group) for group in groups], order, recipes)


def _stacked_operations(stacks, order=None, recipes=None) -> tuple[Operation, ...]:
    """The one body that builds operations: those of stacks of families (m, n, d,
    d), one stack after another, then taken in ``order`` (``_grouped``'s, None
    only for one stack), with their recipes, if any. Each stack gets one
    batched ``_bounded`` and ``_hat_matrix``; the induced effects of all are
    certified at once, in that order (``_induced``), so the first member that
    is no operation fails as alone. The stacks, the caller's own, are frozen
    and shared by their members. No stack at all is a ``DimensionError``."""
    if not stacks:
        raise DimensionError("need at least one Kraus family")
    stacks = [_frozen(_bounded(stack)) for stack in stacks]
    kraus = [stack[k] for stack in stacks for k in range(len(stack))]
    if order is not None:
        kraus = [kraus[k] for k in order]
    return tuple([_validated(Operation, kraus=arr, recipe=recipe, induced=effect)
                  for arr, recipe, effect in zip(kraus, recipes or repeat(None),
                                                 _induced(stacks, order))])


def _grouped(items, key) -> tuple[list[list], np.ndarray | None]:
    """The items grouped by ``key``, a list per distinct key in first-appearance
    order, and the order taking the lists, one after another, back to item
    order (None for one list)."""
    groups: dict = {}
    for k, item in enumerate(items):
        groups.setdefault(key(item), {})[k] = item
    order = None if len(groups) == 1 else np.argsort([k for g in groups.values() for k in g])
    return [list(g.values()) for g in groups.values()], order


def _induced(stacks, order=None) -> tuple[Effect, ...]:
    """The induced effects of a list of stacks of families (m, n, d, d): their hats
    (``_hat_matrix``), of the one stack, or of all stacks one after another and
    then taken in ``order``, go as one stack straight to ``effects._computed``, which
    symmetrizes them once and certifies them with nothing read. An effect
    outside [0, I] is reported as sum A†A above I. A family so large that its
    hat overflows has a non-finite hat, which the certificate declines and
    Jacobi's reader rejects as ``DimensionError``, as it rejects any non-finite
    matrix; the overflow and the invalid values it spreads are silenced for
    that reason only. A finite hat with an entry past about 1.3e154 is a
    ``DimensionError`` too, from Jacobi."""
    with np.errstate(over="ignore", invalid="ignore"):
        hats = [_hat_matrix(stack) for stack in stacks]
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
    its leading d² rows, taken as ``np.triu`` takes it with a mask cached per
    dim, so bit for bit what ``np.linalg.qr(X, mode="r")`` returns, without
    that wrapper's type resolution and error-state setup or ``np.triu``'s new
    mask per call. A QR of finite rows raises no floating-point error."""
    *lead, n, d, _ = kraus.shape
    if n <= d * d:
        return kraus
    rows = kraus.reshape(*lead, n, d * d).copy()
    _umath_linalg.qr_r_raw(rows, signature="D->D")
    return np.where(_below_diagonal(d * d), 0j, rows[..., : d * d, :]).reshape(*lead, d * d, d, d)


@cache
def _below_diagonal(n: int) -> np.ndarray:
    """The (n, n) mask of the entries below the diagonal, read-only (cached)."""
    return _frozen(np.tri(n, n, -1, dtype=bool))


def _gram(kraus: np.ndarray) -> np.ndarray:
    """sum_n vec(A_n) vec(A_n)†: the Choi matrix, up to reordering, of the family."""
    n, d, _ = kraus.shape
    flat = kraus.reshape(n, d * d)
    return flat.T @ flat.conj()


def _natural(gram: np.ndarray, d: int) -> np.ndarray:
    """The natural representation S (d² x d², vec(op(rho)) = S vec(rho) for row-major
    vec) of a Gram matrix ``_gram`` of dim d, or of a difference of two: entry ((i,
    j), (k, l)) moves to ((i, k), (j, l)). A permutation of entries, so exact and
    linear: the form of a Choi gap is the gap of the two forms, bit for bit."""
    return gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


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
    return _built(_compose_kraus(i.kraus, j.kraus))


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
    groups, order = _grouped(pairs, lambda pair: (pair[0].shape, pair[1].shape))
    return _stacked_operations([_compose_kraus(*map(np.array, zip(*g))) for g in groups], order)


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
    return _built(np.zeros((1, matcore.check_dim(dim), dim), dtype=complex))


def identity_channel(dim: int) -> Operation:
    return _built(identity(dim)[None, :, :])


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


def _semi_trivial_kraus(pairs: tuple[tuple[Effect, State], ...]) -> np.ndarray:
    """The Kraus family of ``semi_trivial`` of a tuple of pairs, each an ``Effect``
    and a ``State`` of one dim."""
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
    family is the zero operator, and a family longer than dim² is compressed.
    The induced effect is sum_i a_i. The pairs are read once, from any
    iterable, into the tuple the recipe keeps.
    """
    try:
        pairs = tuple((a, alpha) for a, alpha in matcore._sequence(pairs, "(effect, state) pairs"))
    except (TypeError, ValueError):
        raise DimensionError("expected (effect, state) pairs of two items each") from None
    return _built(_semi_trivial_kraus(pairs), {"kind": "semi_trivial", "pairs": pairs})


def trivial(a: Effect, alpha: State) -> Operation:
    """Operation rho -> tr(rho a) alpha."""
    return _built(*_trivial_parts(a, alpha))


def _trivial_parts(a: Effect, alpha: State) -> tuple[np.ndarray, dict]:
    """The Kraus family and recipe of ``trivial(a, alpha)``, shared with the stacked
    semi-trivial instrument."""
    return _semi_trivial_kraus(((a, alpha),)), {"kind": "trivial", "effect": a, "state": alpha}


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
    # the recipe keeps the array the operation's family views, so both are read-only
    mats = _frozen(_projection_list(projections))
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
    """Mixed product: measure a (Lueders), then run i; rho -> i(a^{1/2} rho a^{1/2}):
    the product of the root of a and i's family."""
    _check_type(a, Effect, NotEffect)
    _check_operations(i)
    matcore._check_same_operand_dim(a, i)
    return _built(_compose_kraus(a.root[None], i.kraus))


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing W†W is inf or NaN
        if not max_abs(dagger(w) @ w - np.eye(m)) <= 1e-10:
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
    - i(rho) of each set are read off the same Choi gap, in its natural form
    (``_natural``, the map j - i as ``superop`` holds a map), by one GEMM over
    the set, with no probe applied or read again. They are checked as one stack
    (``matcore._first_outside``), in probe order, so Jacobi runs only up to the
    first gap outside the cone, and the basis gaps are not computed when a
    random probe refutes the pair.
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
    action = _natural(gap, i.dim)
    randoms = matcore._random_states(i.dim, rng or np.random.default_rng(0), SAMPLE_N)
    for probes in (randoms, _basis_probes(i.dim)):
        if matcore._first_outside(matcore._hermitian_part(_acted(action, probes))) is not None:
            return False
    return True


def _acted(action: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The images of a stack of matrices (n, d, d) under the map of natural form
    ``action``: one GEMM, the rows vec(rho) times S^T."""
    return (rhos.reshape(len(rhos), -1) @ action.T).reshape(rhos.shape)


@cache
def _basis_probes(dim: int) -> np.ndarray:
    """The basis probes of ``operation_leq`` in order, one read-only stack per dim."""
    basis, vectors = identity(dim), []
    for k, e_k in enumerate(basis):
        pairs = [v for e_l in basis[k + 1:] for v in (e_k + e_l, e_k + 1j * e_l)]
        vectors += [e_k] + [v / np.linalg.norm(v) for v in pairs]
    return _frozen(np.array([np.outer(v, v.conj()) for v in vectors]))


def random_channels(dim: int, rng: np.random.Generator, n: int,
                    n_kraus=None) -> tuple[Operation, ...]:
    """n random channels, as n ``random_channel`` calls would draw them, their
    normalizers from one stacked solve and their members built as one stack.
    ``n_kraus`` is one family size for all, a sequence of n sizes, or None (each
    drawn from {1, 2, 3})."""
    fams, inv_roots = matcore._normalizing_draws(
        lambda k: matcore._ginibres(dim, rng, k),
        lambda fam: matcore._hermitian_part(_hat_matrix(fam)),
        matcore._counts(dim, n_kraus, rng, 1, 4, "n_kraus", n))
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

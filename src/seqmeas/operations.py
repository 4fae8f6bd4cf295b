"""Operations as Kraus families.

An operation maps rho to sum_i A_i rho A_i† with sum_i A_i† A_i <= I; it is a
channel when that sum is exactly I. The induced effect (``hat``) is the unique
effect measured by the operation: tr(rho hat) = tr(op(rho)) for every state.

Two entries check sum_i A_i† A_i <= I: the ``Operation`` constructor, which
builds single operations, and ``_operations``, which builds many operations of
one dim and validates their induced effects as one stack, with the same checks,
verdicts and bits. ``_operations`` builds the operation members of the
measures the library makes: the members of products and parts (the measures'
``_afters`` and ``_merges`` hooks), the Lueders front of an observable, and
the semi-trivial, Kraus, sharp and random instruments. The members of a
conditioning are still built one at a time, by ``compose``. Both
build the induced effect as the validation and carry it as
``Operation.induced``, so ``hat``, ``is_channel``, ``equiv`` and the instrument
sum read it instead of recomputing it. Structured constructors
(``kraus_single``, ``semi_trivial``, ``add``) leave that check to them.

Operations are represented by their Kraus family, stored as one (n, dim, dim)
complex array with n <= dim². The stacked rows vec(A_n) span at most dim²
dimensions, so a longer family (from ``compose``, ``add``, a semi-trivial
construction with many pairs, an instrument's ``bar`` or ``part``) is replaced
at construction by the R factor of its QR decomposition: R†R = X†X for the
stacked rows X, so the Gram matrix sum_n vec(A_n) vec(A_n)†, and with it the
map, is unchanged. Each operation also carries its superoperator
(``Operation.superop``, the dim² x dim² natural representation), computed on
first use. Equality of operations compares superoperators, never Kraus lists
(the Kraus decomposition is far from unique).

Trivial and semi-trivial operations are built from pivoted Cholesky factors
(``matcore._psd_factor``), with no root or spectrum: a rank-r effect with a
rank-s state gives r * s operators.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore
from .effects import (
    Effect,
    State,
    _check_type,
    _effects,
    _frozen,
    _ket_bra,
    _validated,
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
from .matcore import EQ_TOL, dagger, identity, max_abs

# Kraus operators with all entries below this contribute nothing to a map. No
# constructor makes one (semi-trivial ones have an entry above it).
NEGLIGIBLE_KRAUS = 1e-14

# Sample size for the state-sampling side of the operation order test.
SAMPLE_N = 32


def _as_kraus_array(kraus) -> np.ndarray:
    """The family as one (n, d, d) array; a single d x d operator is promoted."""
    arr = matcore._read(kraus, "Kraus family", (2, 3))
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
    """

    kraus: np.ndarray
    recipe: dict | None = field(default=None, compare=False)
    induced: Effect = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _bounded(_as_kraus_array(self.kraus))
        induced = _induced(Effect, _hat_matrix(arr))
        object.__setattr__(self, "kraus", _frozen(arr))
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


def _built(kraus, recipe: dict) -> Operation:
    """``Operation(kraus)`` carrying a structured constructor's own ``recipe``."""
    op = Operation(kraus)
    object.__setattr__(op, "recipe", recipe)
    return op


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
    """``_built(f, r)`` for every family f and recipe r, validated as one stack.

    Each family is normalized and bounded as ``Operation`` does it, and the
    induced effects of all of them are checked at once by ``effects._effects``,
    so each operation's ``kraus`` and ``induced.op`` are bit for bit those of
    ``Operation(f)``. Families of different dims raise the ``DimensionError`` a
    measure of them would.
    """
    arrs = [_bounded(_as_kraus_array(f)) for f in families]
    if len({arr.shape[1] for arr in arrs}) > 1:
        raise DimensionError("all members must share one dimension")
    induced = _induced(_effects, [_hat_matrix(arr) for arr in arrs])
    recipes = recipes or [None] * len(arrs)
    return tuple(_validated(Operation, kraus=_frozen(arr), recipe=recipe, induced=effect)
                 for arr, recipe, effect in zip(arrs, recipes, induced))


def _induced(validate, hats):
    """``validate(hats)``, reporting an effect outside [0, I] as sum A†A above I."""
    try:
        return validate(hats)
    except NotEffect as exc:
        raise NotSubunital(f"sum A†A is not below I: {exc}") from None


def _bounded(kraus: np.ndarray) -> np.ndarray:
    """The same map with at most dim² operators (R of the stacked vec rows)."""
    n, d, _ = kraus.shape
    if n <= d * d:
        return kraus
    return np.linalg.qr(kraus.reshape(n, d * d), mode="r").reshape(d * d, d, d)


def _gram(kraus: np.ndarray) -> np.ndarray:
    """sum_n vec(A_n) vec(A_n)†: the Choi matrix, up to reordering, of the family."""
    n, d, _ = kraus.shape
    flat = kraus.reshape(n, d * d)
    return flat.T @ flat.conj()


def _hat_matrix(kraus: np.ndarray) -> np.ndarray:
    """sum_n A_n† A_n. The einsum sums the terms of entries (j, k) and (k, j)
    in one order, so the result is Hermitian as computed and is symmetrized
    once, by the ``Effect`` or eigensolver that receives it."""
    return np.einsum("nij,nik->jk", kraus.conj(), kraus)


def _check_operations(*ops) -> None:
    """Every argument is an ``Operation`` (a bare Kraus matrix is not one)."""
    for op in ops:
        _check_type(op, Operation, NotOperation)


def apply(op: Operation, rho: State | np.ndarray) -> np.ndarray:
    """Apply the operation: sum_i A_i rho A_i†.

    Accepts a State or a bare matrix; the Kraus sum is linear, so applying to
    arbitrary matrices (e.g. matrix units) is well defined and used by the
    action-equality tests. Returns the (generally subnormalized) output matrix.
    """
    _check_operations(op)
    mat = rho.op if isinstance(rho, State) else matcore.as_square(rho)
    if mat.shape != (op.dim, op.dim):
        raise DimensionError(f"state shape {mat.shape} vs operation dim {op.dim}")
    return np.einsum("nij,jk,nlk->il", op.kraus, mat, op.kraus.conj())


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
    return Operation(_compose_kraus(i.kraus, j.kraus))


def _compose_kraus(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The products B_m A_n over the Kraus families A of i and B of j, m outer.

    One GEMM: the rows (m, a) of the stacked B times the columns (n, c) of the
    side-by-side A, then regrouped into (m, n) blocks.
    """
    (ni, d, _), nj = i.shape, j.shape[0]
    prods = j.reshape(nj * d, d) @ i.transpose(1, 0, 2).reshape(d, ni * d)
    return prods.reshape(nj, d, ni, d).transpose(0, 2, 1, 3).reshape(nj * ni, d, d)


def add(i: Operation, j: Operation) -> Operation:
    """Parallel sum; defined only when the induced effects still sum below I."""
    _check_operations(i, j)
    matcore._check_same_operand_dim(i, j)
    try:
        return Operation(_summed_kraus((i, j)))
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
    return Operation(np.sqrt(lam) * i.kraus)


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
    """The Kraus family and recipe of ``luders(a)``, shared with the stacked Lueders
    front of an observable."""
    _check_type(a, Effect, NotEffect)
    return a.root[None, :, :], {"kind": "luders", "effect": a}


def kraus_single(a_mat: np.ndarray) -> Operation:
    """Single-operator Kraus operation rho -> A rho A†; requires A†A <= I."""
    return Operation(matcore.as_square(a_mat)[None, :, :])


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
    return luders(Effect(identity(i.dim) - i.induced.op))


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
    return Effect(_sandwich(i.kraus, a.op))


def _sandwich(kraus: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k B_k† a B_k over a Kraus family B."""
    return np.einsum("nji,jk,nkl->il", kraus.conj(), a, kraus)


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
    return Operation(np.einsum("ji,idk->jdk", w, padded))


def operation_leq(i: Operation, j: Operation, rng: np.random.Generator | None = None) -> bool:
    """The operation order i <= j: i(rho) <= j(rho) for every state rho.

    First a certificate: when the Gram (Choi) matrix of j's family minus that
    of i's passes ``matcore.psd_certified``, j - i is completely positive
    (Choi 1975), hence positive, and the result is True with no probe drawn.
    Both sides use PSD_TOL: a Choi matrix C with C + tol I >= 0 gives
    j(rho) - i(rho) >= -tol I on every state, the margin the probes allow.

    Otherwise probes decide: SAMPLE_N seeded random states plus the d^2 pure
    states derived from the matrix-unit basis (e_k, (e_k+e_l)/sqrt2,
    (e_k+ie_l)/sqrt2), which span L(H). A False result refutes i <= j. When
    the certificate declines and every probe passes, neither decides and the
    result is True uncertified: j - i may be positive without being completely
    positive, or fail on a state that was not probed.
    """
    _check_operations(i, j)
    matcore._check_same_operand_dim(i, j)
    gap = _gram(j.kraus) - _gram(i.kraus)
    if matcore.psd_certified((gap + dagger(gap)) / 2):
        return True
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


def random_channels(dim: int, rng: np.random.Generator, n: int,
                    n_kraus=None) -> tuple[Operation, ...]:
    """n random channels, as n ``random_channel`` calls would draw them, their
    normalizers from one stacked solve and their members built as one stack.
    ``n_kraus`` is one family size for all, a sequence of n sizes, or None (each
    drawn from {1, 2, 3})."""
    sizes = matcore._counts(n_kraus, rng, 1, 4, "n_kraus", n)
    fams, inv_roots = matcore._normalizing_draws(
        lambda k: matcore._ginibres(dim, rng, k), _hat_matrix, sizes)
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
    return _operations([_compose_kraus(e.root[None], c.kraus) for e, c in zip(effs, chans)])


def random_operation(dim: int, rng: np.random.Generator) -> Operation:
    """Random operation with a generic induced effect (channel after a Lueders filter)."""
    return random_operations(dim, rng, 1)[0]

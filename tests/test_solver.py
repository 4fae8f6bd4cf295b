"""The Jacobi eigensolver against an independent oracle, the Cholesky
certificate against Jacobi, the stacked solver and the caches it fills against
the scalar solver, the root and inverse-root rules against their
two-dimensional formulas, the pivoted Cholesky factor against the matrix it
factors, the rules that the package calls no LAPACK eigen-routine, takes from
numpy's gufunc module only the Cholesky and QR routines it allows, and
contracts no more than two operands in one einsum, and the rules that only
``matcore._solve_stack`` reads the stack break-even, only ``operations``
and only library producers call the one entry of computed effects and states,
and only ``matcore._first_outside`` decides cone membership; that entry, on
stacks, against the constructors, member by member, and both Jacobi solvers
on matrices whose squares overflow.

``np.linalg.eigvalsh`` appears here only as a test oracle.
"""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import _umath_linalg

from seqmeas import effects, matcore, observables, operations
from seqmeas.effects import Effect, State, _computed
from seqmeas.errors import DimensionError, NotEffect, NotPositive, SeqmeasError
from seqmeas.matcore import PSD_TOL


def _with_spectrum(values, rng) -> np.ndarray:
    u = matcore.random_unitary(len(values), rng)
    return (u * np.asarray(values, dtype=float)) @ matcore.dagger(u)


def _degenerate_spectrum(kind: str, dim: int, rng) -> list[float]:
    if kind == "projection":
        rank = int(rng.integers(0, dim + 1))
        return [1.0] * rank + [0.0] * (dim - rank)
    if kind == "repeated":
        levels = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, dim)))
        return list(rng.choice(levels, size=dim))
    return [float(rng.uniform(-1.0, 1.0))] * dim  # "scalar": c * I


@st.composite
def hermitian_matrices(draw):
    """Hermitian matrices at d = 2..8: generic, or with a degenerate spectrum."""
    dim = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["generic", "projection", "repeated", "scalar"]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "generic":
        m = matcore.random_hermitian(dim, rng)
    else:
        m = _with_spectrum(_degenerate_spectrum(kind, dim, rng), rng)
    return matcore.as_hermitian(scale * m, tol=1e-6)


@settings(max_examples=200, deadline=None, database=None)
@given(hermitian_matrices())
def test_jacobi_eigenvalues_match_the_oracle(m):
    ours = matcore.eigenvalues_hermitian(m)
    oracle = np.linalg.eigvalsh(m)
    bound = 1e-12 * max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(ours - oracle)) <= bound


@pytest.mark.parametrize("spectrum", [
    [0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0, 1.0], [2.0] * 8,
    [0.25, 0.25, 0.75, 0.75, 0.75, 0.0, 0.0],
])
def test_jacobi_degenerate_spectra_match_the_oracle(spectrum):
    m = matcore.as_hermitian(_with_spectrum(spectrum, np.random.default_rng(len(spectrum))),
                             tol=1e-6)
    assert np.max(np.abs(matcore.eigenvalues_hermitian(m) - np.linalg.eigvalsh(m))) <= 1e-12


# Smallest eigenvalue placed at -tol times each factor: on, just inside and just
# outside the tolerance, at the tol/2 certificate shift and inside the cone.
BOUNDARY_FACTORS = (2.0, 1.001, 1.0, 0.999, 0.5, 0.4999, 1e-3, 0.0, -1e-3)


def _boundary_matrix(dim, lo, hi, rng):
    values = np.concatenate([[lo, hi], rng.uniform(max(lo, 0.0), hi, size=dim - 2)])
    return matcore.as_hermitian(_with_spectrum(values, rng), tol=1e-6 * max(1.0, hi))


@pytest.mark.parametrize("tol", [PSD_TOL, 1e-13])
@pytest.mark.parametrize("norm", [1.0, 1e2, 1e4, 1e6])
def test_certificate_implies_jacobi_accepts(norm, tol):
    rng = np.random.default_rng(2024)
    certified = 0
    for dim in range(2, 9):
        for factor in BOUNDARY_FACTORS:
            for _ in range(2):
                m = _boundary_matrix(dim, -tol * factor, norm, rng)
                if matcore.psd_certified(m, tol):
                    certified += 1
                    assert matcore.spectral_bounds(m)[0] >= -tol
                assert matcore.is_psd(m, tol) == (matcore.spectral_bounds(m)[0] >= -tol)
    # the certificate does real work below its norm guard, and none above it
    assert (certified > 0) == (norm <= 1e13 * tol)


@pytest.mark.parametrize("tol", [PSD_TOL, 1e-13])
@pytest.mark.parametrize("norm", [1.0, 1e2, 1e4, 1e6])
def test_stacked_certificate_implies_jacobi_accepts(norm, tol):
    rng = np.random.default_rng(2024)
    certified = 0
    for dim in range(2, 9):
        stack = np.stack([_boundary_matrix(dim, -tol * factor, norm, rng)
                          for factor in BOUNDARY_FACTORS for _ in range(2)])
        flags = matcore._psd_certified_stack(stack, tol)
        assert flags.shape == (len(stack),) and flags.dtype == bool
        for m, flag in zip(stack, flags):
            assert flag == matcore.psd_certified(m, tol)  # one call or one per member
            if flag:
                certified += 1
                assert matcore.spectral_bounds(m)[0] >= -tol
    # the certificate does real work below its norm guard, and none above it
    assert (certified > 0) == (norm <= 1e13 * tol)


@pytest.mark.parametrize("dim", range(2, 9))
def test_effect_accepts_exactly_when_jacobi_does(dim):
    rng = np.random.default_rng(dim)
    for lo_factor in BOUNDARY_FACTORS:
        for hi_factor in BOUNDARY_FACTORS:
            m = _boundary_matrix(dim, -PSD_TOL * lo_factor, 1.0 + PSD_TOL * hi_factor, rng)
            lo, hi = matcore.spectral_bounds(m)
            jacobi_accepts = lo >= -PSD_TOL and hi <= 1.0 + PSD_TOL
            for build in (Effect,
                          lambda m: _computed(Effect, np.array([np.eye(dim) / 2, m]))):
                try:
                    build(m)
                    accepted = True
                except NotEffect:
                    accepted = False
                assert accepted == jacobi_accepts


# The defects a member of a stack of ``effects._computed`` can carry, per class: an
# eigenvalue below -PSD_TOL, one above 1 + PSD_TOL, a trace off by more than
# 1e-10, or two of them at once.
DEFECTS = {Effect: ("below", "above", "both"), State: ("below", "trace", "both")}


def _member(cls, defect, dim, rng) -> np.ndarray:
    """A Hermitian matrix that ``cls`` accepts (defect None) or one with ``defect``,
    each past its tolerance by a factor from 2 to 1e6."""
    excess = 10.0 ** rng.uniform(0.3, 6.0)
    if cls is Effect:
        values = rng.uniform(0.0, 1.0, size=dim)
        if defect in ("below", "both"):
            values[0] = -PSD_TOL * excess
        if defect in ("above", "both"):
            values[-1] = 1.0 + PSD_TOL * excess
    else:
        values = rng.dirichlet(np.ones(dim))
        if defect in ("below", "both"):
            values[0] = -PSD_TOL * excess
            values[1:] *= (1.0 - values[0]) / values[1:].sum()
        if defect in ("trace", "both"):
            values *= 1.0 + rng.choice([-1.0, 1.0]) * 1e-10 * excess
    return _with_spectrum(values, rng)


@st.composite
def defective_stacks(draw):
    """A constructor and a stack of 1 to 6 matrices at d = 2..8 for it, none, one or
    two of them (possibly the same one) given a defect."""
    cls = draw(st.sampled_from([Effect, State]))
    dim, n = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    defects = [None] * n
    for k, defect in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.sampled_from(DEFECTS[cls])), max_size=2)):
        defects[k] = defect
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cls, defects, np.array([_member(cls, defect, dim, rng) for defect in defects])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(defective_stacks())
def test_stacked_builders_fail_as_the_scalar_constructors(case):
    cls, defects, mats = case
    try:
        alone = [cls(m) for m in mats]
    except SeqmeasError as exc:
        assert any(defects)
        with pytest.raises(SeqmeasError) as stacked:
            _computed(cls, mats)
        assert type(stacked.value) is type(exc) and str(stacked.value) == str(exc)
    else:
        assert not any(defects)
        members = _computed(cls, mats)
        assert [m.op.tobytes() for m in members] == [a.op.tobytes() for a in alone]


# Jacobi's off-diagonal mass squares every entry, which overflows past ~1.34e154.
OVERFLOW = "too large for Jacobi"


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_both_jacobi_solvers_reject_an_overflowing_square_and_agree_below(dim):
    h = matcore.random_hermitian(dim, np.random.default_rng(dim))
    h = h / matcore.max_abs(h)
    values = matcore.eigenvalues_hermitian(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e150, 1e153, 1.3e154):
            m = scale * h
            scalar = matcore.eigenvalues_hermitian(m)
            stacked, _ = matcore._eig_hermitian_stack(np.stack([m] * 8))
            assert np.abs(scalar / scale - values).max() <= 1e-14 * dim
            assert np.abs(stacked[0] / scale - values).max() <= 1e-14 * dim
        # entries whose squares are finite but sum past the largest float
        full = np.full((dim, dim), 0.9e154)
        stacked, _ = matcore._eig_hermitian_stack(np.stack([full] * 8))
        assert np.allclose(matcore.eigenvalues_hermitian(full)[-1] / 0.9e154, dim)
        assert np.allclose(stacked[:, -1] / 0.9e154, dim)
        for huge in (1.4e154 * np.ones((dim, dim)), 1e200 * h, 1e300 * h):
            with pytest.raises(DimensionError, match=OVERFLOW):
                matcore.eig_hermitian(huge)
            with pytest.raises(DimensionError, match=OVERFLOW):
                matcore._eig_hermitian_stack(np.stack([h, huge] * 4))


@pytest.mark.parametrize("build", [
    lambda: Effect(np.full((2, 2), 1e200)),
    lambda: State(np.full((2, 2), 1e200)),
    lambda: operations.Operation(np.full((1, 2, 2), 1e100)),
    lambda: matcore.loewner_leq(np.zeros((2, 2)), np.full((2, 2), 1e200)),
    lambda: matcore.sqrt_psd(np.full((2, 2), 1e200)),
    lambda: _computed(Effect, np.full((3, 5, 5), 1e200, dtype=complex)),
    lambda: _computed(State, np.full((3, 5, 5), 1e200, dtype=complex)),
], ids=["effect", "state", "operation", "loewner", "sqrt", "stacked-effects", "stacked-states"])
def test_huge_finite_matrix_is_a_package_error_without_warnings(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match=OVERFLOW):
            build()


def test_cholesky_gufunc_marks_each_failed_member_alone():
    """The contract ``matcore._cholesky_completes`` rests on: in a stack that mixes
    positive definite and other members, LAPACK's Cholesky gufunc returns NaN
    factors for the failed members only, and no RuntimeWarning escapes."""
    rng = np.random.default_rng(5)
    pd = [_with_spectrum(rng.uniform(0.1, 1.0, size=4), rng) for _ in range(3)]
    bad = [-np.eye(4), _with_spectrum([1.0, 0.5, 0.2, -1e-3], rng), np.zeros((4, 4))]
    stack = np.stack([pd[0], bad[0], pd[1], bad[1], bad[2], pd[2]]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            low = _umath_linalg.cholesky_lo(stack)
        flags = matcore._cholesky_completes(stack)
    failed = [False, True, False, True, True, False]
    assert [bool(np.isnan(f).all()) for f in low] == failed
    assert [bool(np.isfinite(f).all()) for f in low] == [not x for x in failed]
    assert flags.tolist() == [not x for x in failed]
    for m, f in zip(pd, low[[0, 2, 5]]):
        assert matcore.max_abs(f @ matcore.dagger(f) - m) <= 1e-14


def test_certificate_margin_norm_guard_and_hermitian_check():
    assert matcore.psd_certified(np.zeros((3, 3), dtype=complex))
    assert not matcore.psd_certified(np.diag([1.0, -PSD_TOL]).astype(complex))
    assert matcore.psd_certified(np.diag([1.0, -0.4 * PSD_TOL]).astype(complex))
    assert not matcore.psd_certified(1e4 * np.eye(2, dtype=complex))  # norm guard
    # the guard scales down past 8 x 8 (a 64 x 64 Choi gap at d = 8): about 17.3 here
    limit = 1e13 * PSD_TOL * 72 / (64 * 65)
    assert matcore.psd_certified(0.9 * limit * np.eye(64, dtype=complex))
    assert not matcore.psd_certified(100.0 * np.eye(64, dtype=complex))
    with pytest.raises(DimensionError):
        matcore.is_psd(np.array([[1.0, 5.0], [0.0, 1.0]]))


# numpy's gufunc module (``numpy.linalg._umath_linalg``, which the certificate
# imports for its Cholesky) holds the eigen-routines too, as eig, eigh_lo,
# eigh_up, eigvals, eigvalsh_lo and eigvalsh_up: caught under any alias.
LAPACK_EIGEN = re.compile(r"linalg\.eig|\beig(?:h|vals|valsh)?(?:_lo|_up)?\b")


def test_package_calls_no_lapack_eigen_routine():
    assert LAPACK_EIGEN.search("w = np.linalg.eigh(m)")
    assert LAPACK_EIGEN.search("from scipy.linalg import eigvalsh")
    for name in ("eig", "eigh_lo", "eigh_up", "eigvals", "eigvalsh_lo", "eigvalsh_up"):
        assert LAPACK_EIGEN.search(f"w = u.{name}(m)")
    assert not LAPACK_EIGEN.search("low = _umath_linalg.cholesky_lo(a)")
    assert not LAPACK_EIGEN.search("q, r = np.linalg.qr(g); matcore.eig_hermitian(m)")
    assert _package_lines(LAPACK_EIGEN) == []


def _package_lines(pattern: re.Pattern) -> list[str]:
    """Every source line of the package that the pattern matches, as path:line: text."""
    package = Path(matcore.__file__).parent
    return [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def _einsum_operands(source: str) -> list[int | None]:
    """The operand count of every ``einsum`` call in a source text, its subscripts
    not counted; None for a call whose operands are unpacked (not countable)."""
    counts = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum":
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            counts.append(None if starred else len(node.args) - 1)
    return counts


def test_package_contracts_at_most_two_operands_per_einsum():
    # numpy runs an einsum of three operands without ``optimize`` as one nested
    # loop; the Kraus contractions are BLAS matrix products instead
    assert _einsum_operands('out = np.einsum("nij,jk,nlk->il", k, m, k.conj())') == [3]
    assert _einsum_operands("from numpy import einsum\neinsum('ij,jk', a, b)") == [2]
    assert _einsum_operands("np.einsum('ij,jk', *pair) @ np.einsum('ii', a)") == [None, 1]
    package = Path(matcore.__file__).parent
    calls = {str(path.relative_to(package)): _einsum_operands(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    assert [(path, n) for path, counts in calls.items() for n in counts
            if n is None or n > 2] == []


COMPLEX_CONVERSION = re.compile(r"np\.asarray\(.*dtype=complex")


def test_only_matcore_converts_caller_matrices():
    """Caller matrices are read by ``matcore._read`` alone, so its checks cannot fork."""
    assert COMPLEX_CONVERSION.search("arr = np.asarray(m, dtype=complex)")
    assert not COMPLEX_CONVERSION.search("np.zeros((d, d), dtype=complex); np.asarray(w)")
    assert [hit for hit in _package_lines(COMPLEX_CONVERSION)
            if not hit.startswith("matcore.py:")] == []


# The stacked solver (``matcore._eig_hermitian_stack`` and the kernels built on it)
# against the scalar one, and the caches the stacked generators fill.

BREAK_EVEN = matcore.STACK_BREAK_EVEN


@st.composite
def hermitian_stacks(draw):
    """Stacks of n Hermitian matrices of one dim, n on both sides of break-even, each
    member generic or with a degenerate spectrum."""
    dim = draw(st.integers(2, 8))
    n = draw(st.sampled_from([1, 3, BREAK_EVEN - 1, BREAK_EVEN, 2 * BREAK_EVEN]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    kinds = draw(st.lists(st.sampled_from(["generic", "projection", "repeated", "scalar"]),
                          min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [matcore.random_hermitian(dim, rng) if kind == "generic"
            else _with_spectrum(_degenerate_spectrum(kind, dim, rng), rng) for kind in kinds]
    return np.stack([matcore.as_hermitian(scale * m, tol=1e-6) for m in mats])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(hermitian_stacks())
def test_stacked_jacobi_matches_the_scalar_solver(ms):
    values, vectors = matcore._eig_hermitian_stack(ms)
    assert values.shape == ms.shape[:2] and vectors.shape == ms.shape
    for m, w, v in zip(ms, values, vectors):
        scalar = matcore.eig_hermitian(m)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(scalar.eigenvalues))))
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(w - scalar.eigenvalues)) <= bound
        assert matcore.max_abs((v * w) @ matcore.dagger(v) - m) <= bound
        assert matcore.max_abs(matcore.dagger(v) @ v - np.eye(len(m))) <= 1e-12


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 8), st.sampled_from([1, BREAK_EVEN - 1, BREAK_EVEN, 3 * BREAK_EVEN]),
       st.integers(0, 2**32 - 1))
def test_stacked_roots_and_inverse_roots_match_the_scalar_kernels(dim, n, seed):
    # the one entry point: the scalar kernels' results below break-even, bit for
    # bit; from there on the stacked Jacobi, which agrees with them to rounding
    rng = np.random.default_rng(seed)
    grams = [sum(g @ matcore.dagger(g) for g in matcore._ginibres(dim, rng, 2))
             for _ in range(n)]
    psd = [matcore.random_effect(dim, rng) for _ in range(n)]
    for kind, mats, scalar in (("root", psd, matcore.sqrt_psd),
                               ("inv_root", grams, matcore.inv_sqrt_pd)):
        solved = matcore._solve_stack(kind, mats)
        assert len(solved) == n
        for m, got in zip(mats, solved):
            if n < BREAK_EVEN:
                assert np.array_equal(got, scalar(m))
            else:
                assert matcore.max_abs(got - scalar(m)) <= 1e-12
    with pytest.raises(NotPositive):
        matcore._solve_stack("root", [*psd, -np.eye(dim)])
    assert matcore._solve_stack("inv_root", [*grams, np.zeros((dim, dim))])[-1] is None


def _root_of_spectrum(spec, tol=PSD_TOL):
    """The root rule as a two-dimensional formula on one Jacobi spectrum."""
    values = spec.eigenvalues
    if values[0] < -tol:
        raise NotPositive(f"matrix has eigenvalue {values[0]:.3e} < -{tol:.1e}")
    roots = np.where(values < tol, 0.0, np.sqrt(np.clip(values, 0.0, None)))
    v = spec.eigenvectors
    return matcore.as_hermitian((v * roots) @ matcore.dagger(v), tol=1e-9)


def _inv_root_of_spectrum(spec):
    """The inverse-root rule as a two-dimensional formula on one Jacobi spectrum."""
    if spec.eigenvalues[0] <= 1e-6:
        return None
    v = spec.eigenvectors
    return (v / np.sqrt(spec.eigenvalues)) @ matcore.dagger(v)


@pytest.mark.parametrize("dim", range(2, 9))
def test_scalar_kernels_apply_the_stacked_rules_bit_for_bit(dim):
    # sqrt_psd and inv_sqrt_pd run their spectrum through the stack formulas as a
    # stack of one: the same bits as the two-dimensional formulas, the same
    # NotPositive and None verdicts, and a writable root
    rng = np.random.default_rng(300 + dim)
    spectra = [rng.uniform(0.0, 1.0, dim), rng.uniform(1e-7, 2.0, dim),
               *(_degenerate_spectrum(kind, dim, rng) for kind in ("projection", "repeated")),
               [-0.99 * PSD_TOL, 0.5 * PSD_TOL, *rng.uniform(0.0, 1.0, dim - 2)],
               [-2.0 * PSD_TOL, *rng.uniform(0.0, 1.0, dim - 1)], [0.3] * dim]
    for values in spectra * 3:
        m = matcore.as_hermitian(_with_spectrum(values, rng), tol=1e-6)
        spec = matcore.eig_hermitian(m)
        if spec.eigenvalues[0] < -PSD_TOL:
            with pytest.raises(NotPositive) as caught:
                _root_of_spectrum(spec)
            with pytest.raises(NotPositive, match=re.escape(str(caught.value))):
                matcore.sqrt_psd(m)
        else:
            root = matcore.sqrt_psd(m)
            assert np.array_equal(root, _root_of_spectrum(spec)) and root.flags.writeable
        want = _inv_root_of_spectrum(spec)
        got = matcore.inv_sqrt_pd(m)
        assert got is None if want is None else np.array_equal(got, want)


def _readers(source: str, name: str) -> list[str]:
    """The function around each read of ``name`` in a source text, as a bare name,
    an attribute or an import; "<module>" for a read outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Name) and child.id == name
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.alias) and child.name == name)):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def _package_readers(names) -> set[tuple[str, str, str]]:
    """(file, function, name) for every read of each of ``names`` in the package."""
    package = Path(matcore.__file__).parent
    return {(str(path.relative_to(package)), where, name)
            for path in sorted(package.rglob("*.py"))
            for name in names
            for where in _readers(path.read_text(), name)}


def test_only_solve_stack_reads_the_break_even():
    # the choice between scalar and stacked solves is made in one place
    snippet = ("N = 8\n\"\"\"N in a docstring\"\"\"\ndef f(n):\n    return n < N\n"
               "x = m.N\nfrom m import N\ng = lambda n: n < N\n")
    assert _readers(snippet, "N") == ["f", "<module>", "<module>", "<lambda>"]
    assert _package_readers(["STACK_BREAK_EVEN"]) == {
        ("matcore.py", "_solve_stack", "STACK_BREAK_EVEN")}


# Every caller of ``effects._computed``, the one entry of the effects and states
# the library computes: it skips the reader of caller input and the Hermitian gap
# test, so each caller must pass a matrix or stack the library computed from
# validated operands. ``serialize`` and ``cli`` hand caller input to the public
# constructors only.
COMPUTED_PRODUCERS = {
    # effects: products, complements, sums and mixes of validated effects, and
    # drawn effects and states
    ("effects.py", "seq_product", "_computed"),
    ("effects.py", "complement", "_computed"),
    ("effects.py", "orthosum", "_computed"),
    ("effects.py", "convex_combine", "_computed"),
    ("effects.py", "random_effects", "_computed"),
    ("effects.py", "random_states", "_computed"),
    # operations: post-operation effects and the induced effects of every
    # operation
    ("operations.py", "<module>", "_computed"),
    ("operations.py", "op_then_effect", "_computed"),
    ("operations.py", "_induced", "_computed"),
    # observables: the members of products and parts, drawn and projective ones
    ("observables.py", "<module>", "_computed"),
    ("observables.py", "<lambda>", "_computed"),  # Observable._merges and _afters
    ("observables.py", "random_observables", "_computed"),
    ("observables.py", "projective_observable", "_computed"),
}


def test_only_operations_calls_the_certificate_only_entry():
    # the checks skip the reader and the gap test, so they run only in the
    # constructors, after ``as_hermitian``, and in ``effects._computed``, after
    # its one symmetrization, which only the library's producers call
    assert _package_readers(["_computed", "_check", "_check_effects",
                             "_check_states"]) == COMPUTED_PRODUCERS | {
        ("effects.py", "_computed", "_check"),
        ("effects.py", "__post_init__", "_check"),
        # the ``_check`` of ``Effect`` and ``State``
        ("effects.py", "<module>", "_check_effects"),
        ("effects.py", "<module>", "_check_states"),
    }


def test_only_library_producers_call_the_unread_builders():
    # ``effects._computed`` and ``operations._built``, ``_operations`` and
    # ``_composed`` skip the reader of caller input, so each caller must pass a
    # matrix or family the library computed from validated operands, or has
    # just read
    assert _package_readers(["_computed", "_built", "_operations",
                             "_composed"]) == COMPUTED_PRODUCERS | {
        # the constructor's door, after its reader
        ("operations.py", "__post_init__", "_built"),
        # operations: products, sums, scalings and remixes of validated families,
        # the structured constructors and a measure's total channel
        ("operations.py", "compose", "_composed"),
        ("operations.py", "effect_then_op", "_composed"),
        ("operations.py", "add", "_built"),
        ("operations.py", "scale", "_built"),
        ("operations.py", "remix_kraus", "_built"),
        ("operations.py", "luders", "_built"),
        ("operations.py", "kraus_single", "_built"),
        ("operations.py", "semi_trivial", "_built"),
        ("operations.py", "trivial", "_built"),
        ("operations.py", "sharp_operation", "_built"),
        ("observables.py", "_channel", "_built"),
        # the stacked members: drawn families, parts, products, and the families
        # of the structured instruments (``_instrument`` takes what
        # ``kraus_instrument`` and ``sharp_instrument`` have read)
        ("operations.py", "random_channels", "_operations"),
        ("operations.py", "random_operations", "_composed"),
        ("instruments.py", "<lambda>", "_operations"),  # Instrument._merges
        ("instruments.py", "<lambda>", "_composed"),  # Instrument._afters
        ("instruments.py", "luders_instrument", "_operations"),
        ("instruments.py", "semi_trivial_instrument", "_operations"),
        ("instruments.py", "_instrument", "_operations"),
        ("instruments.py", "_instruments", "_operations"),
    }


def test_one_body_builds_every_operation():
    # the compression and the certified induced effects are run by one body,
    # which only the builders call: one family, families grouped by shape, and
    # products of pairs of families
    assert _package_readers(["_bounded", "_induced", "_stacked_operations"]) == {
        ("operations.py", "_stacked_operations", "_bounded"),
        ("operations.py", "_stacked_operations", "_induced"),
        ("operations.py", "_built", "_stacked_operations"),
        ("operations.py", "_operations", "_stacked_operations"),
        ("operations.py", "_composed", "_stacked_operations"),
    }


# The calls that reach a cone verdict: the certificates, and Jacobi's bounds.
CONE_VERDICTS = ("spectral_bounds", "psd_certified", "_psd_certified_stack",
                 "_certified_in_unit", "_cholesky_completes")


def test_cone_membership_is_decided_in_one_place():
    # ``matcore._first_outside`` decides every membership: a function that reads
    # a certificate or Jacobi's bounds for a verdict of its own fails this scan
    snippet = ("def _check_unit_interval(m):\n"
               "    lo, hi = matcore.spectral_bounds(m)\n"
               "    return lo >= -PSD_TOL and hi <= 1 + PSD_TOL\n"
               "def spectral_bounds(m):\n    return 0.0, 1.0\n")
    assert _readers(snippet, "spectral_bounds") == ["_check_unit_interval"]
    assert _package_readers(CONE_VERDICTS) == {
        ("matcore.py", "_first_outside", "spectral_bounds"),
        ("matcore.py", "_first_outside", "_psd_certified_stack"),
        ("matcore.py", "_first_outside", "_certified_in_unit"),
        # the certificates' own layers: one matrix, and the Cholesky call of each
        ("matcore.py", "psd_certified", "_psd_certified_stack"),
        ("matcore.py", "_psd_certified_stack", "_cholesky_completes"),
        ("matcore.py", "_certified_in_unit", "_cholesky_completes"),
        # the operation order's Choi step: certificate-only, its probes decide the rest
        ("operations.py", "operation_leq", "psd_certified"),
    }
    # and every caller of the routine has read and symmetrized what it passes
    assert _package_readers(["_first_outside"]) == {
        ("effects.py", "_check_effects", "_first_outside"),
        ("effects.py", "_check_states", "_first_outside"),
        ("matcore.py", "psd_hermitian", "_first_outside"),
        ("operations.py", "operation_leq", "_first_outside"),
    }


# The LAPACK routines the package may call through numpy's gufunc module: the
# Cholesky of the certificate and the Householder QR of the Kraus compression.
UMATH_LINALG_ALLOWED = {"cholesky_lo", "qr_r_raw"}


def _umath_linalg_names(source: str) -> list[str]:
    """Every name taken from ``_umath_linalg`` in a source text, as an attribute
    (``_umath_linalg.x``, ``np.linalg._umath_linalg.x``) or an import from it."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (base.attr if isinstance(base, ast.Attribute)
                    else getattr(base, "id", None)) == "_umath_linalg":
                names.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_umath_linalg"):
            names.extend(alias.name for alias in node.names)
    return names


def test_package_calls_only_allowed_umath_linalg_routines():
    snippet = ("from numpy.linalg import _umath_linalg\n"
               "w, v = _umath_linalg.eigh_lo(m)\n"
               "r = np.linalg._umath_linalg.qr_r_raw(x)\n"
               "from numpy.linalg._umath_linalg import eigvalsh_lo\n")
    assert sorted(_umath_linalg_names(snippet)) == ["eigh_lo", "eigvalsh_lo", "qr_r_raw"]
    assert set(_umath_linalg_names(snippet)) - UMATH_LINALG_ALLOWED == {"eigh_lo", "eigvalsh_lo"}
    package = Path(matcore.__file__).parent
    used = {(str(path.relative_to(package)), name)
            for path in sorted(package.rglob("*.py"))
            for name in _umath_linalg_names(path.read_text())}
    assert {name for _, name in used} <= UMATH_LINALG_ALLOWED
    assert used == {("matcore.py", "cholesky_lo"), ("operations.py", "qr_r_raw")}


def _seeded(obj, name):
    return vars(obj).get(name)


@settings(max_examples=16, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 5), st.sampled_from([1, BREAK_EVEN - 1, BREAK_EVEN, 20]),
       st.integers(0, 2**32 - 1))
def test_seeded_caches_match_the_lazy_path(dim, n, seed):
    rng = np.random.default_rng(seed)
    drawn = effects.random_effects(dim, rng, n)
    states = effects.random_states(dim, rng, n)
    povms = observables.random_observables(dim, rng, n)
    sharp = observables.projective_observable(dim, rng)
    members = [e for povm in povms for e in povm.effects]
    # every drawn effect has its root seeded, at any n
    assert all(_seeded(e, "root") is not None for e in [*drawn, *members, *sharp.effects])
    # no state spectrum is seeded: nothing in the library reads one
    assert not any(_seeded(s, "spectrum") is not None for s in states)
    for e in [*drawn, *members, *sharp.effects]:
        root = _seeded(e, "root")
        assert not root.flags.writeable
        assert matcore.max_abs(root - matcore.sqrt_psd(e.op)) <= 1e-12
    for s in states[:2]:
        spec = s.spectrum
        assert s.spectrum is spec and not spec.eigenvectors.flags.writeable
        assert matcore.max_abs(spec.reconstruct() - s.op) <= 1e-12
    # the normalizers: the inverse roots the generators draw with
    grams, inv_roots = matcore._normalizing_draws(
        lambda k: matcore._ginibres(dim, rng, k), operations._hat_matrix, [2] * n)
    for fam, inv_root in zip(grams, inv_roots):
        lazy = matcore.inv_sqrt_pd(operations._hat_matrix(fam))
        assert matcore.max_abs(inv_root - lazy) <= 1e-12


# The pivoted Cholesky factor (``matcore._psd_factor``) of accepted effects.

@st.composite
def factor_inputs(draw):
    """An accepted effect u diag(values) u† with a known rank: `rank` eigenvalues
    log-uniform in [1e-9, 1], the others 0 ("psd") or, for "accepted", in
    [-PSD_TOL, PSD_TOL] with at least one below 0."""
    dim = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["psd", "accepted"]))
    rank = draw(st.integers(0, dim if kind == "psd" else dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(dim)
    values[:rank] = 10.0 ** rng.uniform(-9.0, 0.0, size=rank)
    if kind == "accepted":
        values[rank:] = rng.uniform(-0.99 * PSD_TOL, 0.99 * PSD_TOL, size=dim - rank)
        values[-1] = -rng.uniform(0.0, 0.99 * PSD_TOL)
    u = matcore.random_unitary(dim, rng)
    return Effect((u * values) @ u.conj().T).op, rank, kind


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(factor_inputs())
def test_psd_factor_reconstructs_accepted_effects(case):
    m, rank, kind = case
    dim = len(m)
    b = matcore._psd_factor(m)
    gap = matcore.max_abs(matcore.dagger(b) @ b - m) if len(b) else matcore.max_abs(m)
    if kind == "psd":
        assert gap <= 1e-12
        assert len(b) == rank
    else:
        assert gap <= dim * PSD_TOL
        assert rank <= len(b) <= dim


def test_psd_factor_takes_the_root_of_an_indefinite_residual():
    # eigenvalues about +-0.99e-10: accepted, but a step on the pivot 1e-13 would
    # subtract 0.99e-10**2 / 1e-13, about 1e-7, from the other diagonal entry
    m = Effect(np.array([[1e-13, 0.99e-10], [0.99e-10, 0.0]])).op
    assert np.array_equal(matcore._psd_factor(m), matcore.sqrt_psd(m))
    # effects at both edges of [0, I]: a factor that left the negative part out
    # on coordinate axes would lift the top eigenvalue of the induced effect of
    # a trivial operation past 1 + PSD_TOL
    rng = np.random.default_rng(31)
    for dim in range(2, 9):
        for _ in range(5):
            values = rng.uniform(1e-3, 1.0, size=dim)
            values[[0, -1]] = 1.0 + 0.99 * PSD_TOL, -0.99 * PSD_TOL
            u = matcore.random_unitary(dim, rng)
            a = Effect((u * values) @ u.conj().T)
            op = operations.trivial(a, effects.random_state(dim, rng))
            assert matcore.max_abs(op.induced.op - a.op) <= 2 * PSD_TOL

"""The builders that take matrices the library computed from validated operands,
against the caller-input constructors.

Each matrix enters through one of two doors. ``effects._computed`` is the
library's one entry of every effect and state it computes. Every operation is
built by one body, ``operations._stacked_operations``, which the ``Operation``
constructor (the reader's door) runs on its copy of a caller's family, and the
library's door on families it built: ``_built`` for one, ``_operations`` for
many and ``_composed`` for products of pairs. The library's door skips the
reader of caller input (``matcore._read``) and the Hermitian gap test. That is
sound only if what it receives would pass both, and it keeps the results only
if it then stores and raises exactly what ``Effect``, ``State`` and
``Operation`` store and raise. ``_computed`` symmetrizes once
(``matcore._hermitian_part``), so what it stores is exactly Hermitian, and it
is the constructor's verdict on that symmetrization even where the gap test
would refuse the raw matrix (the hats of huge families, which only the
induced-effect path passes). All of this is checked here at d = 2-8 on raw
hats, sandwiches, sums, drawn effects and states, and effects at the PSD_TOL
edges of [0, I], and on channels with sum A†A = I, where products can leave
[0, I] by a few 1e-10. Since the two doors of an operation share the body, the
comparison of operations is a comparison of doors: what the library builds
from a family equals what ``Operation`` builds from it, bit for bit, or fails
alike.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from seqmeas import effects, instruments, matcore, observables, operations as ops
from seqmeas.effects import Effect, State
from seqmeas.errors import DimensionError, NotPerp, NotSubunital, SeqmeasError
from seqmeas.matcore import HERM_TOL, PSD_TOL

EDGE = 0.9 * PSD_TOL


def _edge_values(dim, rng) -> np.ndarray:
    """Eigenvalues of an effect: uniform in [0, 1], about half of them replaced by
    the edges -0.9 PSD_TOL, 0, 1 and 1 + 0.9 PSD_TOL."""
    edges = rng.choice([-EDGE, 0.0, 1.0, 1.0 + EDGE], size=dim)
    return np.where(rng.random(dim) < 0.5, edges, rng.uniform(0.0, 1.0, size=dim))


def _effect(u, values) -> Effect:
    return Effect((u * values) @ matcore.dagger(u))


def _outcome(build):
    """("ok", result) or ("error", type, message) of a build."""
    try:
        return ("ok", build())
    except SeqmeasError as exc:
        return ("error", type(exc), str(exc))


def _same_effect(got, want) -> bool:
    return (got.op.dtype == want.op.dtype and got.op.tobytes() == want.op.tobytes()
            and not got.op.flags.writeable)


def _same_operation(got, want) -> bool:
    return (got.kraus.shape == want.kraus.shape and got.kraus.dtype == want.kraus.dtype
            and got.kraus.tobytes() == want.kraus.tobytes()
            and _same_effect(got.induced, want.induced) and not got.kraus.flags.writeable)


def _assert_same(got, want, same) -> None:
    """Two outcomes agree: equal members bit for bit, or the same error."""
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
    else:
        pair = list(zip(*(x if isinstance(x, tuple) else (x,) for x in (got[1], want[1]))))
        assert pair and all(same(g, w) for g, w in pair)


def _effect_matrix(raw) -> None:
    """What the reader and the gap test would have passed: finite and Hermitian
    within HERM_TOL."""
    assert raw.dtype == complex and np.isfinite(raw).all()
    assert matcore.max_abs(raw - matcore.dagger(raw)) <= HERM_TOL


def _kraus_family(raw) -> None:
    """What the reader of a Kraus family would have passed, and returned unchanged."""
    assert raw.dtype == complex and raw.ndim == 3
    assert matcore._read(raw, "Kraus family", (3,)).tobytes() == raw.tobytes()


@st.composite
def edge_inputs(draw):
    """Effects a, b at d = 2..8 at the PSD_TOL edges (in one eigenbasis or two),
    states, and channels with sum A†A = I."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = matcore.random_unitary(dim, rng)
    v = u if draw(st.booleans()) else matcore.random_unitary(dim, rng)
    a, b = _effect(u, _edge_values(dim, rng)), _effect(v, _edge_values(dim, rng))
    return dim, rng, a, b


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(edge_inputs())
def test_unread_producers_equal_the_caller_input_constructors(case):
    dim, rng, a, b = case
    rho, alpha = effects.random_state(dim, rng), effects.random_state(dim, rng)
    chan = ops.random_channel(dim, rng, int(rng.integers(1, 4)))
    la, lb = ops.luders(a), ops.luders(b)
    eye = np.eye(dim, dtype=complex)
    w = float(rng.uniform(0.0, 1.0))

    # effect producers: (result, raw matrix), against Effect(raw)
    half_a, half_b = Effect(a.op / 2), Effect(b.op / 2)
    effect_cases = [
        (lambda: effects.seq_product(a, b), a.root @ b.op @ a.root),
        (lambda: effects.seq_product(b, a), b.root @ a.op @ b.root),
        (lambda: ops.op_then_effect(chan, a), ops._sandwich(chan.kraus, a.op)),
        (lambda: ops.op_then_effect(lb, a), ops._sandwich(b.root[None], a.op)),
        (lambda: effects.complement(a), eye - a.op),
        (lambda: effects.orthosum(half_a, half_b), half_a.op + half_b.op),
        (lambda: effects.orthosum(a, effects.complement(a)), a.op + (eye - a.op)),
        (lambda: effects.convex_combine([a, b], [w, 1 - w]), w * a.op + (1 - w) * b.op),
    ]
    for build, raw in effect_cases:
        _effect_matrix(raw)
        _assert_same(_outcome(build), _outcome(lambda: Effect(raw)), _same_effect)

    # the members of a product whose first observable is read through its Lueders
    # Kraus families, against Effect of each sandwich as first built
    pa = observables.Observable(("0", "1"), (a, effects.complement(a)))
    pb = observables.Observable(("0", "1"), (b, effects.complement(b)))
    sandwiches = [ops._sandwich(ops.luders(e).kraus, f.op) for e in pa.effects for f in pb.effects]
    for raw in sandwiches:
        _effect_matrix(raw)
    _assert_same(_outcome(lambda: observables.obs_seq_product(pa, pb).effects),
                 _outcome(lambda: tuple(Effect(raw) for raw in sandwiches)), _same_effect)

    # operation producers: (result, raw Kraus family), against Operation(raw)
    mixing = matcore.random_unitary(chan.n_kraus + 1, rng)
    padded = np.concatenate([chan.kraus, np.zeros((1, dim, dim), dtype=complex)])
    q = matcore.random_unitary(dim, rng)
    projections = [q[:, idx] @ matcore.dagger(q[:, idx])
                   for idx in np.array_split(np.arange(dim), 2)]
    fronts = np.concatenate([e.root[None] for e in pa.effects])
    operation_cases = [
        (lambda: ops.compose(chan, lb), ops._compose_kraus(chan.kraus[None], lb.kraus[None])[0]),
        (lambda: ops.compose(la, lb), ops._compose_kraus(la.kraus[None], lb.kraus[None])[0]),
        (lambda: ops.add(la, ops.luders(effects.complement(a))),
         np.concatenate([a.root[None], effects.complement(a).root[None]])),
        (lambda: ops.scale(chan, w), np.sqrt(w) * chan.kraus) if w > 0 else None,
        (lambda: ops.remix_kraus(chan, mixing), np.einsum("ji,idk->jdk", mixing, padded)),
        (lambda: ops.luders(a), a.root[None]),
        (lambda: ops.trivial(a, alpha), ops._semi_trivial_kraus([(a, alpha)])),
        (lambda: ops.semi_trivial([(a, alpha), (b, rho)]),
         ops._semi_trivial_kraus([(a, alpha), (b, rho)])),
        (lambda: ops.sharp_operation(projections), ops._projection_list(projections)),
        (lambda: ops.kraus_single(b.root), b.root[None]),
        (lambda: ops.complement_luders(lb), Effect(eye - lb.induced.op).root[None]),
        (lambda: pa._channel, fronts),
        (lambda: instruments.bar(instruments.luders_instrument(pa)), fronts),
    ]
    for build, raw in filter(None, operation_cases):
        _kraus_family(raw)
        _assert_same(_outcome(build), _outcome(lambda: ops.Operation(raw)), _same_operation)
    # add reports a sum above I as NotPerp, where Operation says NotSubunital
    want = _outcome(lambda: ops.Operation(np.concatenate([la.kraus, lb.kraus])))
    if want[0] == "error" and want[1] is NotSubunital:
        want = ("error", NotPerp, "hat(i) + hat(j) exceeds the identity")
    _assert_same(_outcome(lambda: ops.add(la, lb)), want, _same_operation)
    # the Lueders instrument's members, certified as one stack
    _assert_same(_outcome(lambda: instruments.luders_instrument(pa).ops),
                 _outcome(lambda: tuple(ops.Operation(e.root[None]) for e in pa.effects)),
                 _same_operation)


def _recorded_computed(calls) -> ExitStack:
    """Patches that record every call of ``effects._computed`` in the package, under
    each name it is imported as, as (class, raw matrix or stack, outcome)."""
    real = effects._computed

    def spy(cls, m):
        raw = np.array(m)
        outcome = _outcome(lambda: real(cls, m))
        calls.append((cls, raw, outcome))
        if outcome[0] == "error":
            raise outcome[1](outcome[2])
        return outcome[1]

    patches = ExitStack()
    for module in (effects, ops, observables):
        patches.enter_context(mock.patch.object(module, "_computed", spy))
    return patches


def _constructed(cls, m):
    """``cls`` of a matrix, or of each member of a stack, as a caller builds them."""
    return cls(m) if m.ndim == 2 else tuple(cls(x) for x in m)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(edge_inputs())
def test_stacked_effect_builders_equal_the_constructors(case):
    # every matrix and stack ``_computed`` receives (drawn, merged, sandwiched,
    # projected and induced stacks, products and complements) passes the
    # caller-input reader, and its members are bit for bit Effect or State of
    # its raw matrices, or fail as the first failing one does
    dim, rng, a, b = case
    calls = []
    with _recorded_computed(calls):
        effects.random_states(dim, rng, 2)
        obs = observables.random_observable(dim, rng)
        sharp = observables.projective_observable(dim, rng)
        inst = instruments.random_instrument(dim, rng)
        pa = _outcome(lambda: observables.Observable(("0", "1"), (a, effects.complement(a))))
        builds = [lambda: effects.random_effects(dim, rng, 3),
                  lambda: effects.seq_product(a, b),
                  lambda: observables.obs_seq_product(obs, sharp),
                  lambda: instruments.inst_then_obs(inst, obs),
                  lambda: observables.obs_part(obs, {x: "0" for x in obs.outcomes}),
                  lambda: ops.luders(b)]
        if pa[0] == "ok":
            builds.append(lambda: observables.obs_seq_product(pa[1], obs))
        for build in builds:
            _outcome(build)
    assert {cls for cls, _, _ in calls} == {Effect, State}
    assert {raw.ndim for _, raw, _ in calls} == {2, 3}
    for cls, raw, got in calls:
        for m in raw.reshape(-1, dim, dim):
            _effect_matrix(m)
        _assert_same(got, _outcome(lambda: _constructed(cls, raw)), _same_effect)


@st.composite
def computed_inputs(draw):
    """A class and what the library hands ``_computed`` of it at d = 2..8, as one
    matrix or a stack of 1 to 4: raw hats of Ginibre families with entries of
    1e-3 to 1e5 (a family normalized to a channel among them), sandwiches and
    products of effects at the PSD_TOL edges, their sums, drawn effects and
    drawn states, and states with spectra at the PSD_TOL edges."""
    dim = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["hat", "channel-hat", "sandwich", "product", "sum",
                                 "drawn-effect", "drawn-state", "edge-state"]))
    n = draw(st.sampled_from([None, 1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = matcore.random_unitary(dim, rng)

    def edge_effect():
        return (u * _edge_values(dim, rng)) @ matcore.dagger(u)

    def one():
        if kind in ("hat", "channel-hat"):
            scale = 10.0 ** rng.choice([-3.0, 0.0, 2.0, 5.0])
            fam = scale * _channel_family(dim, int(rng.choice([1, 3, dim * dim + 1])), rng)
            if kind == "hat":
                fam = fam * rng.uniform(0.5, 2.0, size=(len(fam), 1, 1))
            else:
                fam = fam / scale
            return ops._hat_matrix(fam)
        if kind == "sandwich":
            return ops._sandwich(_channel_family(dim, int(rng.integers(1, 4)), rng), edge_effect())
        if kind == "product":
            root = matcore.sqrt_psd(edge_effect())
            return root @ edge_effect() @ root
        if kind == "sum":
            return edge_effect() / 2 + edge_effect() / 2
        if kind == "drawn-effect":
            return matcore._random_effects(dim, rng, 1)[0][0]
        if kind == "drawn-state":
            return matcore._random_states(dim, rng, 1)[0]
        values = rng.dirichlet(np.ones(dim))
        values[0] = rng.choice([-EDGE, 0.0, values[0]])
        values *= (1.0 + rng.choice([-0.9e-10, 0.0, 0.9e-10, 2e-10])) / values.sum()
        return (u * values) @ matcore.dagger(u)

    cls = State if kind.endswith("state") else Effect
    if draw(st.integers(0, 4)) == 0:
        cls = Effect if cls is State else State
    m = one() if n is None else np.array([one() for _ in range(n)])
    return cls, m


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(computed_inputs())
def test_computed_stores_what_the_constructors_store(case):
    cls, m = case
    before = m.tobytes()
    got = _outcome(lambda: effects._computed(cls, m))
    assert m.tobytes() == before and m.flags.writeable  # the input is left alone
    if got[0] == "ok":
        members = got[1] if m.ndim == 3 else (got[1],)
        assert len(members) == (len(m) if m.ndim == 3 else 1)
        for x in members:
            assert type(x) is cls and x.op.dtype == complex
            assert np.array_equal(x.op, matcore._adjoint(x.op))  # exactly Hermitian
    # always the constructor's verdict on its one symmetrization ...
    sym = matcore._hermitian_part(m)
    _assert_same(got, _outcome(lambda: _constructed(cls, sym)), _same_effect)
    # ... and, wherever the caller-input reader accepts the raw matrix, on that
    want = _outcome(lambda: _constructed(cls, m))
    if matcore.max_abs(m - matcore._adjoint(m)) <= HERM_TOL:
        _assert_same(got, want, _same_effect)
    else:
        # the reader refuses a raw member (a huge hat), unless an earlier one fails
        assert want[0] == "error"
        if m.ndim == 2:
            assert want[1] is DimensionError and "not Hermitian" in want[2]


def _channel_family(dim, n, rng) -> np.ndarray:
    """A Ginibre family of n operators normalized to a channel, sum A†A = I."""
    fam = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return fam @ matcore.inv_sqrt_pd(ops._hat_matrix(fam))


@st.composite
def member_families(draw):
    """Families of one dim (d = 2..8) of sizes 1, 2, d², d² + 2 (compressed),
    each a channel scaled by c: c in [0.2, 1), c = 1 + 0.9 PSD_TOL (at the
    edge), or c past 1 + PSD_TOL (not subunital); and, sometimes, one family of
    another dim."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["inside", "inside", "edge", "above"]),
                          min_size=1, max_size=5))
    families = []
    for kind in kinds:
        n = int(rng.choice([1, 2, dim * dim, dim * dim + 2]))
        c = {"inside": rng.uniform(0.2, 1.0), "edge": 1.0 + EDGE,
             "above": 1.0 + PSD_TOL * 10.0 ** rng.uniform(0.3, 6.0)}[kind]
        families.append(np.sqrt(c) * _channel_family(dim, n, rng))
    stray = None
    if draw(st.booleans()) and draw(st.booleans()):
        stray = _channel_family(3 if dim == 2 else 2, 1, rng) / 2
    return families, stray


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(member_families())
def test_operation_builders_equal_the_scalar_constructors(case):
    families, stray = case
    if stray is not None:
        at = len(families) // 2
        mixed = families[:at] + [stray] + families[at:]
        try:
            ops._operations(mixed)
        except DimensionError as exc:
            assert str(exc) == "all members must share one dimension"
        else:
            raise AssertionError("families of mixed dims were built")
    alone = _outcome(lambda: tuple(ops.Operation(f.copy()) for f in families))
    _assert_same(_outcome(lambda: ops._operations([f.copy() for f in families])), alone,
                 _same_operation)
    # the products of every pair of members that are operations, i first
    valid = [o for o in (_outcome(lambda: ops.Operation(f.copy())) for f in families)
             if o[0] == "ok"]
    pairs = [(valid[k][1], valid[(k + 1) % len(valid)][1]) for k in range(len(valid))]
    if pairs:
        _assert_same(_outcome(lambda: ops._composed([(i.kraus, j.kraus) for i, j in pairs])),
                     _outcome(lambda: tuple(ops.compose(i, j) for i, j in pairs)),
                     _same_operation)

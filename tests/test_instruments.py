import numpy as np
import pytest

from seqmeas import effects, instruments as inst, matcore, observables as obs, operations as ops
from seqmeas.effects import Effect, prob
from seqmeas.errors import DimensionError, NotChannel, NotProjection, NotSurjective
from seqmeas.instruments import (
    Instrument,
    atomic_instrument,
    bar,
    identity_instrument,
    inst_conditioned,
    inst_conditioned_on_obs,
    inst_equal,
    inst_part,
    inst_seq_product,
    inst_then_obs,
    kraus_instrument,
    luders_instrument,
    measured_observable,
    obs_conditioned_on_inst,
    obs_then_inst,
    random_instrument,
    random_kraus_instrument,
    semi_trivial_instrument,
    sharp_instrument,
    trivial_instrument,
    verify_inst_coexistence_witness,
)
from seqmeas.observables import identity_observable, obs_conditioned, obs_equal, obs_seq_product, random_observable

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def test_instrument_validation():
    with pytest.raises(NotChannel):
        Instrument(("x",), (ops.luders(Effect(P0)),))


def test_bar_examples():
    rng = np.random.default_rng(0)
    chan = ops.random_channel(2, rng)
    single = Instrument(("x",), (chan,))
    assert ops.action_equal(bar(single), chan)
    a = random_observable(2, rng)
    li = luders_instrument(a)
    rho = effects.random_state(2, rng)
    want = sum(ops.apply(ops.luders(e), rho) for e in a.effects)
    assert matcore.max_abs(ops.apply(bar(li), rho) - want) <= 1e-10
    # bar of a product is the composition of bars
    i = random_instrument(2, rng)
    j = random_instrument(2, rng)
    assert ops.action_equal(bar(inst_seq_product(i, j)), ops.compose(bar(i), bar(j)))


def test_measured_observable_for_taxonomy():
    rng = np.random.default_rng(1)
    a = random_observable(3, rng)
    assert obs_equal(measured_observable(luders_instrument(a)), a, tol=1e-10)
    alpha = effects.random_state(3, rng)
    assert obs_equal(measured_observable(trivial_instrument(a, alpha)), a)
    states = [effects.random_state(3, rng) for _ in a.outcomes]
    assert obs_equal(measured_observable(semi_trivial_instrument(a, states)), a)


def test_semi_trivial_instrument_reads_states_once():
    rng = np.random.default_rng(17)
    a = random_observable(2, rng, 2)
    rho = effects.random_state(2, rng)
    assert inst_equal(semi_trivial_instrument(a, iter([rho, rho])), trivial_instrument(a, rho))
    for bad in (rho, 3, "rho"):
        with pytest.raises(DimensionError, match="states must be a sequence"):
            semi_trivial_instrument(a, bad)
    with pytest.raises(DimensionError, match="one state per outcome"):
        semi_trivial_instrument(a, iter([rho]))


def test_kraus_instrument():
    rng = np.random.default_rng(2)
    ki = random_kraus_instrument(2, rng)
    assert all(o.n_kraus == 1 for o in ki.ops)
    assert ops.is_channel(bar(ki))
    with pytest.raises(NotChannel):
        kraus_instrument([0.5 * np.eye(2)])


def test_sharp_and_atomic_instruments():
    rng = np.random.default_rng(3)
    u = matcore.random_unitary(2, rng)
    ai = atomic_instrument([[u[:, 0]], [u[:, 1]]])
    assert ops.is_channel(bar(ai))
    rho = effects.random_state(2, rng)
    out = ops.apply(bar(ai), rho)
    p0 = np.outer(u[:, 0], u[:, 0].conj())
    p1 = np.outer(u[:, 1], u[:, 1].conj())
    assert matcore.max_abs(out - (p0 @ rho.op @ p0 + p1 @ rho.op @ p1)) <= 1e-10
    # grouped projections still form a sharp instrument
    si = sharp_instrument([[p0], [p1]])
    assert inst_equal(si, ai)
    with pytest.raises(NotProjection):
        sharp_instrument([[np.eye(2) / 2], [np.eye(2) / 2]])
    with pytest.raises(NotChannel):
        sharp_instrument([[p0]])


def test_atomic_instrument_from_basis_is_dephasing():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    ai = atomic_instrument([[e1], [e2]])
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert matcore.max_abs(ops.apply(bar(ai), rho) - np.diag([0.5, 0.5])) <= 1e-12
    deph_obs = measured_observable(ai)
    assert matcore.max_abs(deph_obs.effects[0].op - np.diag([1.0, 0.0])) <= 1e-12


def test_luders_instrument_of_sure_observable():
    li = luders_instrument(identity_observable(2))
    assert inst_equal(li, identity_instrument(2))


def test_inst_seq_product():
    rng = np.random.default_rng(4)
    i = random_instrument(2, rng)
    relabeled = inst_seq_product(i, identity_instrument(2))
    assert set(relabeled.outcomes) == {f"{x}⊗x" for x in i.outcomes}
    for x in i.outcomes:
        assert ops.action_equal(relabeled.operation(f"{x}⊗x"), i.operation(x))
    # Kraus members compose to B_y A_x
    ki = random_kraus_instrument(2, rng)
    kj = random_kraus_instrument(2, rng)
    prod = inst_seq_product(ki, kj)
    for x, ax in ki.items():
        for y, by in kj.items():
            got = prod.operation(f"{x}⊗{y}")
            assert got.n_kraus == 1
            assert matcore.max_abs(got.kraus[0] - by.kraus[0] @ ax.kraus[0]) <= 1e-12


def test_trivial_product_structure():
    # lemma-3.2(ii): trivial o trivial is trivial with state beta and effects tr(alpha b_y) a_x
    rng = np.random.default_rng(5)
    a = random_observable(2, rng)
    b = random_observable(2, rng)
    alpha = effects.random_state(2, rng)
    beta = effects.random_state(2, rng)
    i = trivial_instrument(a, alpha)
    j = trivial_instrument(b, beta)
    prod = inst_seq_product(i, j)
    for x, ax in a.items():
        for y, by in b.items():
            weight = np.trace(alpha.op @ by.op).real
            want = ops.trivial(Effect(weight * ax.op), beta)
            assert ops.action_equal(prod.operation(f"{x}⊗{y}"), want)
    cond = inst_conditioned(j, given=i)
    for y, by in b.items():
        weight = np.trace(alpha.op @ by.op).real
        want = ops.trivial(Effect(weight * np.eye(2)), beta)
        assert ops.action_equal(cond.operation(y), want)


def test_inst_conditioned():
    rng = np.random.default_rng(6)
    j = random_instrument(2, rng)
    assert inst_equal(inst_conditioned(j, identity_instrument(2)), j)
    # (L^B | L^A) measures (B | A)
    a = random_observable(2, rng)
    b = random_observable(2, rng)
    cond = inst_conditioned(luders_instrument(b), luders_instrument(a))
    assert obs_equal(measured_observable(cond), obs_conditioned(b, a))


def test_conditional_probabilities_for_instruments():
    rng = np.random.default_rng(7)
    i = random_instrument(2, rng)
    j = random_instrument(2, rng)
    rho = effects.random_state(2, rng)
    cond = inst_conditioned(j, i)
    for y in j.outcomes:
        lhs = np.trace(ops.apply(cond.operation(y), rho)).real
        rhs = 0.0
        for x in i.outcomes:
            px = np.trace(ops.apply(i.operation(x), rho)).real
            if px > 1e-4:
                rhs += px * inst.cond_prob(rho, j.operation(y), given=i.operation(x))
        assert abs(lhs - rhs) <= 1e-10
    for x in i.outcomes:
        px = np.trace(ops.apply(i.operation(x), rho)).real
        if px <= 1e-4:
            continue
        total = sum(inst.cond_prob(rho, j.operation(y), given=i.operation(x)) for y in j.outcomes)
        assert abs(total - 1.0) <= 1e-10


def test_obs_then_inst():
    rng = np.random.default_rng(8)
    a = random_observable(2, rng)
    lifted = obs_then_inst(a, identity_instrument(2))
    la = luders_instrument(a)
    for x in a.outcomes:
        assert ops.action_equal(lifted.operation(f"{x}⊗x"), la.operation(x))
    # A o L^B agrees with L^A o L^B
    b = random_observable(2, rng)
    lhs = obs_then_inst(a, luders_instrument(b))
    rhs = inst_seq_product(luders_instrument(a), luders_instrument(b))
    assert inst_equal(lhs, rhs)
    # measured observable is the sequential product of observables
    i = random_instrument(2, rng)
    got = measured_observable(obs_then_inst(a, i))
    want = obs_seq_product(a, measured_observable(i))
    assert obs_equal(got, want)


def test_obs_then_inst_semi_trivial():
    # thm-4.2(ii): A o I is semi-trivial with states alpha_y and observable A o B
    rng = np.random.default_rng(9)
    a = random_observable(2, rng)
    b = random_observable(2, rng)
    states = [effects.random_state(2, rng) for _ in b.outcomes]
    i = semi_trivial_instrument(b, states)
    lifted = obs_then_inst(a, i)
    prod = obs_seq_product(a, b)
    for x in a.outcomes:
        for y, alpha_y in zip(b.outcomes, states):
            label = f"{x}⊗{y}"
            want = ops.trivial(prod.effect(label), alpha_y)
            assert ops.action_equal(lifted.operation(label), want)


def test_inst_then_obs():
    rng = np.random.default_rng(10)
    a = random_observable(2, rng)
    got = inst_then_obs(identity_instrument(2), a)
    for y in a.outcomes:
        assert matcore.max_abs(got.effect(f"x⊗{y}").op - a.effect(y).op) <= 1e-12
    # Kraus instrument: entries S_x† a_y S_x
    ki = random_kraus_instrument(2, rng)
    got = inst_then_obs(ki, a)
    for x, ax_op in ki.items():
        s = ax_op.kraus[0]
        for y, ay in a.items():
            want = matcore.dagger(s) @ ay.op @ s
            assert matcore.max_abs(got.effect(f"{x}⊗{y}").op - want) <= 1e-12
    # semi-trivial instrument: entries tr(alpha_x a_y) b_x
    b = random_observable(2, rng)
    states = [effects.random_state(2, rng) for _ in b.outcomes]
    sti = semi_trivial_instrument(b, states)
    got = inst_then_obs(sti, a)
    for x, alpha_x in zip(b.outcomes, states):
        for y, ay in a.items():
            want = np.trace(alpha_x.op @ ay.op).real * b.effect(x).op
            assert matcore.max_abs(got.effect(f"{x}⊗{y}").op - want) <= 1e-9


def test_inst_conditioned_on_obs():
    rng = np.random.default_rng(11)
    i = random_instrument(2, rng)
    assert inst_equal(inst_conditioned_on_obs(i, identity_observable(2)), i)
    a = random_observable(2, rng)
    b = random_observable(2, rng)
    lhs = inst_conditioned_on_obs(luders_instrument(b), a)
    rhs = inst_conditioned(luders_instrument(b), luders_instrument(a))
    assert inst_equal(lhs, rhs)
    # thm-4.1(iii): the measured observable is the conditioned observable
    got = measured_observable(inst_conditioned_on_obs(i, a))
    want = obs_conditioned(measured_observable(i), a)
    assert obs_equal(got, want)


def test_obs_conditioned_on_inst():
    rng = np.random.default_rng(12)
    a = random_observable(2, rng)
    assert obs_equal(obs_conditioned_on_inst(a, identity_instrument(2)), a)
    # trivial instrument: (A | I)_y = tr(alpha a_y) I
    b = random_observable(2, rng)
    alpha = effects.random_state(2, rng)
    ti = trivial_instrument(b, alpha)
    got = obs_conditioned_on_inst(a, ti)
    for y, ay in a.items():
        want = np.trace(alpha.op @ ay.op).real * np.eye(2)
        assert matcore.max_abs(got.effect(y).op - want) <= 1e-9
    total = sum(e.op for e in got.effects)
    assert matcore.max_abs(total - np.eye(2)) <= 1e-10


def test_inst_part_and_coexistence():
    rng = np.random.default_rng(13)
    i = random_instrument(2, rng, n_outcomes=3)
    assert inst_equal(inst_part(i, {x: x for x in i.outcomes}), i)
    f = {i.outcomes[0]: "a", i.outcomes[1]: "a", i.outcomes[2]: "b"}
    part = inst_part(i, f)
    assert set(part.outcomes) == {"a", "b"}
    # lemma-4.3(i): parts commute with hats
    assert obs_equal(
        measured_observable(part), obs.obs_part(measured_observable(i), f)
    )
    with pytest.raises(NotSurjective):
        inst_part(i, {i.outcomes[0]: "a"})
    g = {x: "all" for x in i.outcomes}
    j = inst_part(i, f)
    k = inst_part(i, g)
    assert verify_inst_coexistence_witness(j, k, i, f, g)
    assert obs.verify_coexistence_witness(
        measured_observable(j), measured_observable(k), measured_observable(i), f, g
    )


def test_trivial_parts_lemma():
    # lemma-4.4(i): parts of a trivial instrument are trivial with the coarse-grained observable
    rng = np.random.default_rng(14)
    a = random_observable(2, rng, n_outcomes=3)
    alpha = effects.random_state(2, rng)
    i = trivial_instrument(a, alpha)
    f = {a.outcomes[0]: "y0", a.outcomes[1]: "y0", a.outcomes[2]: "y1"}
    part = inst_part(i, f)
    want = trivial_instrument(obs.obs_part(a, f), alpha)
    assert inst_equal(part, want)
    # lemma-4.4(ii): trivial instruments with one state and coexisting hats coexist
    g = {x: "z" for x in a.outcomes}
    j = trivial_instrument(obs.obs_part(a, f), alpha)
    k = trivial_instrument(obs.obs_part(a, g), alpha)
    assert verify_inst_coexistence_witness(j, k, i, f, g)


def test_distribution():
    rng = np.random.default_rng(15)
    i = random_instrument(3, rng)
    rho = effects.random_state(3, rng)
    dist = inst.distribution(i, rho)
    assert abs(sum(dist.values()) - 1.0) <= 1e-10
    mo = measured_observable(i)
    for x in i.outcomes:
        assert abs(dist[x] - prob(rho, mo.effect(x))) <= 1e-10


def test_dim_mismatch():
    rng = np.random.default_rng(16)
    with pytest.raises(DimensionError):
        inst_seq_product(random_instrument(2, rng), random_instrument(3, rng))

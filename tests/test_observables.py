import numpy as np
import pytest

from seqmeas import effects, matcore, observables as obs
from seqmeas.effects import Effect, State, cond_prob, prob
from seqmeas.errors import DimensionError, NotSurjective
from seqmeas.observables import (
    Observable,
    distribution,
    event_prob,
    identity_observable,
    obs_conditioned,
    obs_equal,
    obs_part,
    obs_seq_product,
    random_observable,
    second_marginal_map,
    verify_coexistence_witness,
)

HALF = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def proj_observable():
    return Observable(("+", "-"), (Effect(P0), Effect(P1)))


def half_observable():
    return Observable(("u", "v"), (Effect(HALF), Effect(np.eye(2) - HALF)))


def mixed():
    return State(np.eye(2, dtype=complex) / 2)


def test_observable_validation():
    with pytest.raises(DimensionError):
        Observable(("x", "x"), (Effect(P0), Effect(P1)))
    with pytest.raises(DimensionError):
        Observable(("x", "y"), (Effect(P0), Effect(P0)))


def test_distribution_examples():
    ident = identity_observable(2)
    assert distribution(ident, mixed()) == {"x": 1.0}
    d = distribution(proj_observable(), mixed())
    assert abs(d["+"] - 0.5) <= 1e-12 and abs(d["-"] - 0.5) <= 1e-12
    assert abs(sum(d.values()) - 1.0) <= 1e-10
    assert abs(event_prob(proj_observable(), mixed(), ["+", "-"]) - 1.0) <= 1e-12


def test_obs_seq_product():
    a = proj_observable()
    ident = identity_observable(2)
    prod = obs_seq_product(a, ident)
    assert prod.outcomes == ("+⊗x", "-⊗x")
    assert matcore.max_abs(prod.effects[0].op - P0) <= 1e-12
    # {p, p'} o {a, a'} has the hand-computed pap entry
    b = half_observable()
    prod = obs_seq_product(a, b)
    assert len(prod.outcomes) == 4
    assert matcore.max_abs(prod.effect("+⊗u").op - np.array([[0.5, 0], [0, 0]])) <= 1e-12
    total = sum(e.op for e in prod.effects)
    assert matcore.max_abs(total - np.eye(2)) <= 1e-12


def test_obs_conditioned():
    b = half_observable()
    assert obs_equal(obs_conditioned(b, identity_observable(2)), b)
    cond = obs_conditioned(b, proj_observable())
    assert matcore.max_abs(cond.effect("u").op - np.diag([0.5, 0.5])) <= 1e-12
    # conditioning equals the second-index marginal of the product
    rng = np.random.default_rng(0)
    a2 = random_observable(3, rng)
    b2 = random_observable(3, rng)
    prod = obs_seq_product(a2, b2)
    marg = obs_part(prod, second_marginal_map(a2, b2))
    assert obs_equal(obs_conditioned(b2, a2), marg, tol=1e-12)


def test_conditional_distribution_law():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_observable(2, rng)
        b = random_observable(2, rng)
        rho = effects.random_state(2, rng)
        cond = obs_conditioned(b, a)
        for y in b.outcomes:
            lhs = prob(rho, cond.effect(y))
            rhs = sum(
                prob(rho, ax) * cond_prob(rho, b.effect(y), given=ax)
                for ax in a.effects
                if prob(rho, ax) > 1e-4
            )
            assert abs(lhs - rhs) <= 1e-10


def test_conditional_probability_is_a_measure():
    rng = np.random.default_rng(2)
    a = random_observable(3, rng)
    b = random_observable(3, rng)
    rho = effects.random_state(3, rng)
    for ax in a.effects:
        if prob(rho, ax) <= 1e-4:
            continue
        total = sum(cond_prob(rho, by, given=ax) for by in b.effects)
        assert abs(total - 1.0) <= 1e-10


def test_first_marginal_is_first_distribution():
    rng = np.random.default_rng(3)
    a = random_observable(2, rng)
    b = random_observable(2, rng)
    rho = effects.random_state(2, rng)
    prod = obs_seq_product(a, b)
    dist = distribution(prod, rho)
    for x in a.outcomes:
        marginal = sum(dist[f"{x}⊗{y}"] for y in b.outcomes)
        assert abs(marginal - prob(rho, a.effect(x))) <= 1e-10


def test_obs_part():
    a = proj_observable()
    assert obs_equal(obs_part(a, {"+": "+", "-": "-"}), a)
    collapsed = obs_part(a, {"+": "z", "-": "z"})
    assert obs_equal(collapsed, identity_observable(2, outcome="z"))
    with pytest.raises(NotSurjective):
        obs_part(a, {"+": "z"})


def test_bayes_first_rule_fails_for_observables():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        a = random_observable(2, rng)
        b = random_observable(2, rng)
        cond = obs_conditioned(b, a)
        gap = max(
            matcore.max_abs(cond.effect(y).op - b.effect(y).op) for y in b.outcomes
        )
        worst = max(worst, gap)
    assert worst > 0.01


def test_coexistence_witnesses():
    rng = np.random.default_rng(5)
    a = random_observable(2, rng)
    b = random_observable(2, rng)
    prod = obs_seq_product(a, b)
    cond = obs_conditioned(b, a)
    f = second_marginal_map(a, b)
    g = {x: x for x in prod.outcomes}
    assert verify_coexistence_witness(cond, prod, prod, f, g)
    # a coexists with a o b through the first marginal
    f1 = obs.first_marginal_map(a, b)
    assert verify_coexistence_witness(a, prod, prod, f1, g)
    wrong = obs.first_marginal_map(a, b)
    assert not verify_coexistence_witness(cond, prod, prod, wrong, g)


def test_event_prob_counts_a_repeated_outcome_once():
    # an event is a set of outcomes: repeats, raw or after normalization, add nothing
    rng = np.random.default_rng(3)
    a = random_observable(2, rng, 2)
    rho = effects.random_state(2, rng)
    once = event_prob(a, rho, ["x0"])
    assert event_prob(a, rho, ["x0", "x0", "x0"]) == once
    assert event_prob(a, rho, ["x1", "x0", "x1", "x0"]) == event_prob(a, rho, ["x1", "x0"])
    # the whole outcome set: a sum of two rounded terms, clamped to 1
    assert event_prob(a, rho, ["x1", "x0", "x1", "x0"]) <= 1.0
    numbered = Observable((0, 1), a.effects)
    assert event_prob(numbered, rho, [0, "0", 0]) == once


def test_event_prob_of_the_whole_outcome_set_is_at_most_one():
    # each term is clamped into [0, 1]; their sum, 1 up to rounding, is clamped too
    rng = np.random.default_rng(3)
    a = random_observable(2, rng, 2)
    rho = effects.random_state(2, rng)
    assert event_prob(a, rho, ["x0", "x1"]) == 1.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = random_observable(3, rng, 4)
        rho = effects.random_state(3, rng)
        whole = event_prob(a, rho, a.outcomes)
        assert 1.0 - 1e-12 <= whole <= 1.0
        assert 0.0 <= event_prob(a, rho, a.outcomes[:2]) <= 1.0

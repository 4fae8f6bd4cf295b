"""Law checks for observables and instruments (sections 3 and 4): products,
conditioning, the measured-observable map, the mixed observable/instrument
products, the post-channel effect map that is not a monomorphism (ex. 10),
parts and coexistence, plus the counterexamples showing where hat fails to
commute with sequential composition."""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import instruments as inst_mod, matcore, operations as op_mod
from ..effects import (
    Effect,
    State,
    atomic_projection,
    cond_prob,
    perp,
    prob,
    _with_roots,
    random_effects,
    random_states,
    seq_product,
)
from ..instruments import (
    Instrument,
    bar,
    inst_conditioned,
    inst_conditioned_on_obs,
    inst_part,
    inst_seq_product,
    inst_then_obs,
    luders_instrument,
    measured_observable,
    obs_conditioned_on_inst,
    obs_then_inst,
    random_instruments,
    random_kraus_instruments,
    semi_trivial_instrument,
    trivial_instrument,
    verify_inst_coexistence_witness,
)
from ..matcore import max_abs
from ..observables import (
    Observable,
    _member_distance,
    _product_items,
    identity_observable,
    obs_conditioned,
    obs_part,
    obs_seq_product,
    random_observables,
    verify_coexistence_witness,
)
from ._common import chunks, drawn, random_surjection, resample, trace_real, trivial_superop
from .core import LawCheck, LawContext, Tally

# Probabilities smaller than this are skipped when a law divides by them; the
# remaining round-off stays far below the 1e-10 assertion tolerances.
PROB_FLOOR = 1e-4


def check_bar_of_products(ctx: LawContext, dim: int, tally: Tally, i: Instrument,
                          j: Instrument) -> None:
    """Both the product and the conditioned instrument total to the composed
    bar channels."""
    composed = op_mod.compose(bar(i), bar(j))
    tally.expect(op_mod.action_distance(bar(inst_seq_product(i, j)), composed),
                 "bar of the product")
    tally.expect(op_mod.action_distance(bar(inst_conditioned(j, i)), composed),
                 "bar of the conditioned instrument")


def check_luders_product_hat(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                             i: Instrument) -> None:
    """Measuring through a Lueders front end multiplies the observables."""
    got = measured_observable(inst_seq_product(luders_instrument(a), i))
    want = obs_seq_product(a, measured_observable(i))
    tally.expect(_member_distance(got, want), "hat of Lueders-then-instrument")


def check_luders_luders_hat(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                            b: Observable) -> None:
    got = measured_observable(
        inst_seq_product(luders_instrument(a), luders_instrument(b)))
    tally.expect(_member_distance(got, obs_seq_product(a, b)),
                 "hat of two Lueders instruments")


def _trivial_front_violation(a_obs: Observable, b_obs: Observable, alpha: State,
                             beta: State | None = None) -> float:
    """Distance of a o b from the hat tr(alpha b_y) a_x measured behind a trivial
    front end with state alpha (examples 6 and 7; the back end's beta drops out)."""
    return max(max_abs(seq_product(ax, by).op - prob(alpha, by) * ax.op)
               for ax in a_obs.effects for by in b_obs.effects)


def check_trivial_then_luders(ctx: LawContext, dim: int, tally: Tally, b: Observable,
                              a: Observable, alpha: State) -> None:
    """A trivial front end makes the product hat tr(alpha a_y) b_x, which is
    not the sequential product of the observables."""
    i = trivial_instrument(b, alpha)
    got = measured_observable(inst_seq_product(i, luders_instrument(a)))
    for xy, bx, ay in _product_items(b.items(), a.items()):
        tally.expect(max_abs(got.effect(xy).op - prob(alpha, ay) * bx.op),
                     "closed form of the product hat")
    tally.offer(b_obs=b, a_obs=a, alpha=alpha)


def check_trivial_trivial_product_hat(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                                      b: Observable, alpha: State, beta: State) -> None:
    """Product of trivial instruments: hat entries are tr(alpha b_y) a_x, and
    the rank-one criterion |<phi,psi>|^2 != <psi,alpha psi> forces a gap."""
    rng = ctx.rng
    got = measured_observable(
        inst_seq_product(trivial_instrument(a, alpha), trivial_instrument(b, beta)))
    for xy, ax, by in _product_items(a.items(), b.items()):
        tally.expect(max_abs(got.effect(xy).op - prob(alpha, by) * ax.op),
                     "closed form of the trivial product hat")
    tally.offer(a_obs=a, b_obs=b, alpha=alpha, beta=beta)

    # rank-one criterion: resample until the overlap and the state
    # weight are visibly different, then the gap is guaranteed
    def draw():
        phi = matcore.random_unit_vector(dim, rng)
        psi = matcore.random_unit_vector(dim, rng)
        return phi, psi

    def accept(sample):
        phi, psi = sample
        return abs(abs(np.vdot(phi, psi)) ** 2
                   - np.vdot(psi, alpha.op @ psi).real) >= 0.05

    phi, psi = resample(draw, accept)
    a_eff = atomic_projection(phi)
    b_eff = atomic_projection(psi)
    entry_gap = max_abs(seq_product(a_eff, b_eff).op - prob(alpha, b_eff) * a_eff.op)
    tally.expect_true(entry_gap > ctx.gap,
                      "rank-one criterion forces a visible gap",
                      phi_proj=a_eff, psi_proj=b_eff, alpha=alpha, entry_gap=entry_gap)


def _kraus_product_hat(ix: op_mod.Operation, jy: op_mod.Operation) -> np.ndarray:
    """A† B† B A: the induced effect of running A, then B (single-Kraus members)."""
    ax, by = ix.kraus[0], jy.kraus[0]
    return matcore.dagger(ax) @ matcore.dagger(by) @ by @ ax


def _kraus_kraus_violation(i: Instrument, j: Instrument) -> float:
    return max(max_abs(_kraus_product_hat(ix, jy) - seq_product(ix.induced, jy.induced).op)
               for ix in i.ops for jy in j.ops)


def draw_kraus_kraus_product(ctx: LawContext, dim: int, n: int):
    """Pairs of random Kraus instruments; the roots of their induced effects, which
    the violation reads, come from one stacked solve."""
    insts = random_kraus_instruments(dim, ctx.rng, 2 * n)
    _with_roots(tuple(o.induced for inst in insts for o in inst.ops))
    return zip(insts[0::2], insts[1::2])


def check_kraus_kraus_product_hat(ctx: LawContext, dim: int, tally: Tally, i: Instrument,
                                  j: Instrument) -> None:
    """Kraus instruments compose to A_x† B_y† B_y A_x, not to the sequential
    product of the measured observables."""
    got = measured_observable(inst_seq_product(i, j))
    for xy, ix, jy in _product_items(i.items(), j.items()):
        tally.expect(max_abs(got.effect(xy).op - _kraus_product_hat(ix, jy)),
                     "closed form of the Kraus product hat")
    tally.offer(i=i, j=j)


def draw_semi_trivial_products(ctx: LawContext, dim: int, n: int):
    """Pairs of random observables, with one random state per outcome of each."""
    observables = random_observables(dim, ctx.rng, 2 * n)
    sizes = [len(obs.outcomes) for obs in observables]
    states = chunks(random_states(dim, ctx.rng, sum(sizes)), sizes)
    return zip(observables[0::2], observables[1::2], states[0::2], states[1::2])


def check_semi_trivial_products(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                                b: Observable, alphas: tuple[State, ...],
                                betas: tuple[State, ...]) -> None:
    """Products and conditionings of (semi-)trivial instruments stay
    (semi-)trivial with the composed observables. The expected members are
    superoperators of the trivial maps, from the formula (``trivial_superop``)."""
    i = semi_trivial_instrument(a, alphas)
    j = semi_trivial_instrument(b, betas)
    prod = inst_seq_product(i, j)
    for xy, (ax, alpha_x), (by, beta_y) in _product_items(
            zip(a.outcomes, zip(a.effects, alphas)), zip(b.outcomes, zip(b.effects, betas))):
        want = trivial_superop(prob(alpha_x, by) * ax.op, beta_y.op)
        tally.expect(max_abs(prod.operation(xy).superop - want),
                     "product member is trivial with the weighted effect")
    cond = inst_conditioned(j, i)
    for (y, by), beta_y in zip(b.items(), betas):
        summed = sum(prob(alpha_x, by) * ax.op for ax, alpha_x in zip(a.effects, alphas))
        tally.expect(max_abs(cond.operation(y).superop - trivial_superop(summed, beta_y.op)),
                     "conditioned member is trivial with the summed effect")
    # fully trivial special case: the conditioned observable collapses to
    # multiples of the identity
    alpha = alphas[0]
    beta = betas[0]
    ti = trivial_instrument(a, alpha)
    tj = trivial_instrument(b, beta)
    cond = inst_conditioned(tj, ti)
    for y, by in b.items():
        want = trivial_superop(prob(alpha, by) * matcore.identity(dim), beta.op)
        tally.expect(max_abs(cond.operation(y).superop - want),
                     "trivial conditioning weights the identity")


def check_luders_conditioning_hat(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                                  b: Observable) -> None:
    got = measured_observable(
        inst_conditioned(luders_instrument(b), luders_instrument(a)))
    tally.expect(_member_distance(got, obs_conditioned(b, a)),
                 "hat of the Lueders conditioning")


def _forgotten_state_violation(b_obs: Observable, alpha: State) -> float:
    return max(max_abs(prob(alpha, by) * matcore.identity(b_obs.dim) - by.op)
               for by in b_obs.effects)


def check_conditioning_forgets_state(ctx: LawContext, dim: int, tally: Tally, alpha: State,
                                     beta: State, b: Observable) -> None:
    """(J | I) hat differs from the conditioned observables: a single-outcome
    trivial front end replaces rho by alpha."""
    sure = identity_observable(dim)
    i = trivial_instrument(sure, alpha)
    j = trivial_instrument(b, beta)
    got = measured_observable(inst_conditioned(j, i))
    tally.expect(_member_distance(measured_observable(i), sure),
                 "the trivial front end measures the sure observable")
    naive = obs_conditioned(measured_observable(j), sure)
    for y, by in b.items():
        tally.expect(max_abs(got.effect(y).op - prob(alpha, by) * matcore.identity(dim)),
                     "conditioned hat weights the identity")
        tally.expect(max_abs(naive.effect(y).op - by.op),
                     "conditioning on the sure observable returns b")
    tally.offer(b_obs=b, alpha=alpha)


def check_effect_operation_hat(ctx: LawContext, dim: int, tally: Tally, a: Effect,
                               i: op_mod.Operation) -> None:
    """hat(a o I) = a o hat(I) for effects against operations."""
    got = op_mod.hat(op_mod.effect_then_op(a, i))
    want = seq_product(a, op_mod.hat(i))
    tally.expect(max_abs(got.op - want.op), "hat of the mixed product")


def check_obs_instrument_hat(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                             i: Instrument) -> None:
    """hat(A o I) = A o hat(I) for observables against instruments."""
    got = measured_observable(obs_then_inst(a, i))
    want = obs_seq_product(a, measured_observable(i))
    tally.expect(_member_distance(got, want), "hat of observable-then-instrument")


def check_conditioned_instrument_hat(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                                     i: Instrument) -> None:
    """hat(I | A) = (hat(I) | A) for instruments conditioned on observables."""
    got = measured_observable(inst_conditioned_on_obs(i, a))
    want = obs_conditioned(measured_observable(i), a)
    tally.expect(_member_distance(got, want), "hat of instrument-given-observable")
    # operator identity: (L(a) | A) member y is rho -> sum_x r_y r_x rho r_x r_y
    # for the roots r = a^{1/2}; its superoperator straight from that formula
    lhs = inst_conditioned_on_obs(luders_instrument(a), a)
    for y, ay in a.items():
        kraus = [ay.root @ ax.root for ax in a.effects]
        direct = sum(np.kron(k, k.conj()) for k in kraus)
        tally.expect(max_abs(lhs.operation(y).superop - direct),
                     "observable conditioning matches the Lueders formula")


def draw_mixed_product_forms(ctx: LawContext, dim: int, n: int):
    """Two effects and a state, then two observables with a state per outcome of
    the second."""
    rng = ctx.rng
    effs = random_effects(dim, rng, 2 * n)
    alphas = random_states(dim, rng, n)
    observables = random_observables(dim, rng, 2 * n)
    sizes = [len(obs.outcomes) for obs in observables[1::2]]
    states = chunks(random_states(dim, rng, sum(sizes)), sizes)
    return zip(effs[0::2], effs[1::2], alphas, observables[0::2], observables[1::2], states)


def check_mixed_product_forms(ctx: LawContext, dim: int, tally: Tally, a: Effect, b: Effect,
                              alpha: State, a_obs: Observable, b_obs: Observable,
                              states: tuple[State, ...]) -> None:
    """Closed forms for mixed products with trivial and semi-trivial pieces. The
    expected operations are superoperators of the trivial maps, from the formula
    (``trivial_superop``)."""
    # (i) trivial operation against a plain effect
    i = op_mod.trivial(b, alpha)
    got = op_mod.op_then_effect(i, a)
    tally.expect(max_abs(got.op - prob(alpha, a) * b.op),
                 "operation-then-effect closed form")
    got_op = op_mod.effect_then_op(a, i)
    want_op = trivial_superop(a.root @ b.op @ a.root, alpha.op)
    tally.expect(max_abs(got_op.superop - want_op),
                 "effect-then-operation is trivial with the product effect")
    # (ii) semi-trivial instrument against an observable
    sti = semi_trivial_instrument(b_obs, states)
    lifted = inst_then_obs(sti, a_obs)
    for xy, (bx, alpha_x), ay in _product_items(zip(b_obs.outcomes, zip(b_obs.effects, states)),
                                                a_obs.items()):
        tally.expect(max_abs(lifted.effect(xy).op - prob(alpha_x, ay) * bx.op),
                     "instrument-then-observable closed form")
    mixed = obs_then_inst(a_obs, sti)
    for xy, ax, (by, alpha_y) in _product_items(a_obs.items(),
                                                zip(b_obs.outcomes, zip(b_obs.effects, states))):
        want_member = trivial_superop(ax.root @ by.op @ ax.root, alpha_y.op)
        tally.expect(max_abs(mixed.operation(xy).superop - want_member),
                     "observable-then-instrument is semi-trivial with the product")
    # (iii) fully trivial instrument: conditioned observable collapses
    ti = trivial_instrument(b_obs, states[0])
    got_obs = obs_conditioned_on_inst(a_obs, ti)
    for y, ay in a_obs.items():
        want = prob(states[0], ay) * matcore.identity(dim)
        tally.expect(max_abs(got_obs.effect(y).op - want),
                     "observable conditioned on a trivial instrument")


def check_post_channel_not_mono(ctx: LawContext, dim: int, tally: Tally) -> None:
    """The dephasing fixture: two copies of half the doubled projection are not
    summable, yet their images under the post-channel effect map sum to I."""
    deph = op_mod.sharp_operation([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    d = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    a = Effect(d / 2)
    b = Effect(d / 2)
    tally.expect_true(not perp(a, b), "a + b = d exceeds the identity")
    image_sum = op_mod.op_then_effect(deph, a).op + op_mod.op_then_effect(deph, b).op
    tally.expect(max_abs(image_sum - np.eye(2)), "images sum exactly to the identity")


def check_parts_commute_with_hat(ctx: LawContext, dim: int, tally: Tally,
                                 i: Instrument) -> None:
    """Coarse-graining commutes with the measured observable, and coexistence
    witnesses push forward to the hats."""
    rng = ctx.rng
    f = random_surjection(i.outcomes, rng)
    part, hats = inst_part(i, f), measured_observable(i)
    part_hats = measured_observable(part)
    tally.expect(_member_distance(part_hats, obs_part(hats, f)),
                 "part then hat equals hat then part")
    g = random_surjection(i.outcomes, rng)
    k = inst_part(i, g)
    tally.expect_true(verify_inst_coexistence_witness(part, k, i, f, g),
                      "parts witness their own coexistence")
    tally.expect_true(
        verify_coexistence_witness(part_hats, measured_observable(k), hats, f, g),
        "coexistence pushes forward to the hats")


def check_trivial_parts(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                        alpha: State) -> None:
    """Parts of trivial instruments are trivial over the coarse-grained
    observable; trivial instruments with one state coexist when their hats do.
    The expected part members are superoperators of the trivial maps, from the
    formula (``trivial_superop``)."""
    rng = ctx.rng
    i = trivial_instrument(a, alpha)
    f = random_surjection(a.outcomes, rng)
    part = inst_part(i, f)
    merged: dict[str, np.ndarray] = {}
    for x, ax in a.items():
        merged[f[x]] = merged.get(f[x], 0) + ax.op
    tally.expect_true(set(part.outcomes) == set(merged), "part has the image outcomes")
    for y, summed in merged.items():
        tally.expect(max_abs(part.operation(y).superop - trivial_superop(summed, alpha.op)),
                     "trivial part is trivial over the part observable")
    # coexistence construction: hats coexist by construction, and the
    # lifted trivial instruments share the witness
    g = random_surjection(a.outcomes, rng)
    j = trivial_instrument(obs_part(a, f), alpha)
    k = trivial_instrument(obs_part(a, g), alpha)
    tally.expect_true(verify_inst_coexistence_witness(j, k, i, f, g),
                      "one-state trivial instruments with coexisting hats coexist")


def _observable_bayes_violation(a_obs: Observable, b_obs: Observable, rho: State) -> float:
    cond = obs_conditioned(b_obs, a_obs)
    return max(abs(prob(rho, b_obs.effect(y)) - prob(rho, cond.effect(y)))
               for y in b_obs.outcomes)


def check_observable_bayes_failure(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                                   b: Observable, rho: State) -> None:
    """P(b_y) != sum_x P(a_x) P(b_y | a_x) for generic observables."""
    tally.offer(a_obs=a, b_obs=b, rho=rho)


def check_conditional_prob_measure(ctx: LawContext, dim: int, tally: Tally, a: Observable,
                                   b: Observable, rho: State, i: Instrument,
                                   j: Instrument) -> None:
    """Conditional outcome probabilities are probability measures, and the
    conditioned observable/instrument reproduces the total-probability sum."""
    cond = obs_conditioned(b, a)
    for y, by in b.items():
        total = sum(prob(rho, seq_product(ax, by)) for ax in a.effects)
        tally.expect(abs(prob(rho, cond.effect(y)) - total),
                     "total probability through the conditioned observable")
    for ax in a.effects:
        if prob(rho, ax) <= PROB_FLOOR:
            continue
        total = sum(cond_prob(rho, by, given=ax) for by in b.effects)
        tally.expect(abs(total - 1.0), "conditional effect probabilities sum to 1")
    cond_i = inst_conditioned(j, i)
    fronts = [(ix, op_mod.apply(ix, rho)) for ix in i.ops]
    for y, jy in j.items():
        lhs = trace_real(op_mod.apply(cond_i.operation(y), rho))
        rhs = sum(trace_real(op_mod.apply(jy, front)) for _, front in fronts)
        tally.expect(abs(lhs - rhs), "total probability through the conditioned instrument")
    for ix, front in fronts:
        if trace_real(front) <= PROB_FLOOR:
            continue
        total = sum(inst_mod.cond_prob(rho, jy, given=ix) for jy in j.ops)
        tally.expect(abs(total - 1.0), "conditional operation probabilities sum to 1")


# This module's laws, in the paper's order (sections 3 and 4).
LAWS = (
    LawCheck(
        id="thm-3.1i", kind="identity", dims=(2, 3), trials=50,
        description="Bar channels of products and conditionings compose",
        fn=check_bar_of_products, draw=drawn((random_instruments, 2))),
    LawCheck(
        id="thm-3.1ii", kind="identity", dims=(2, 3), trials=50,
        description="Lueders-then-instrument measures the product observable",
        fn=check_luders_product_hat, draw=drawn(random_observables, random_instruments)),
    LawCheck(
        id="thm-3.1iii", kind="identity", dims=(2, 3), trials=50,
        description="Two Lueders instruments measure the product of their observables",
        fn=check_luders_luders_hat, draw=drawn((random_observables, 2))),
    LawCheck(
        id="ex-6", kind="counterexample", dims=(2,), trials=100,
        description="Trivial-then-Lueders hat differs from the naive product",
        fn=check_trivial_then_luders, draw=drawn((random_observables, 2), random_states),
        replay=lambda b_obs, a_obs, alpha: _trivial_front_violation(b_obs, a_obs, alpha)),
    LawCheck(
        id="ex-7", kind="counterexample", dims=(2,), trials=100,
        description="Trivial-pair product hat differs from the observable product",
        fn=check_trivial_trivial_product_hat, replay=_trivial_front_violation,
        draw=drawn((random_observables, 2), (random_states, 2))),
    LawCheck(
        id="ex-8", kind="counterexample", dims=(2,), trials=100,
        description="Kraus-pair product hat differs from the observable product",
        fn=check_kraus_kraus_product_hat, replay=_kraus_kraus_violation,
        draw=draw_kraus_kraus_product),
    LawCheck(
        id="lemma-3.2", kind="identity", dims=(2, 3), trials=50,
        description="(Semi-)trivial instruments are closed under products and conditioning",
        fn=check_semi_trivial_products, draw=draw_semi_trivial_products),
    LawCheck(
        id="lemma-3.3", kind="identity", dims=(2, 3), trials=50,
        description="Conditioned Lueders instruments measure the conditioned observable",
        fn=check_luders_conditioning_hat, draw=drawn((random_observables, 2))),
    LawCheck(
        id="ex-9", kind="counterexample", dims=(2,), trials=100,
        description="Instrument conditioning forgets the input state for trivial front ends",
        fn=check_conditioning_forgets_state, replay=_forgotten_state_violation,
        draw=drawn((random_states, 2), random_observables)),
    LawCheck(
        id="thm-4.1i", kind="identity", dims=(2, 3), trials=50,
        description="hat of effect-then-operation is the sequential product of effects",
        fn=check_effect_operation_hat, draw=drawn(random_effects, op_mod.random_operations)),
    LawCheck(
        id="thm-4.1ii", kind="identity", dims=(2, 3), trials=50,
        description="hat of observable-then-instrument is the product observable",
        fn=check_obs_instrument_hat, draw=drawn(random_observables, random_instruments)),
    LawCheck(
        id="thm-4.1iii", kind="identity", dims=(2, 3), trials=50,
        description="hat of instrument-given-observable is the conditioned observable",
        fn=check_conditioned_instrument_hat,
        draw=drawn(random_observables, random_instruments)),
    LawCheck(
        id="thm-4.2", kind="identity", dims=(2, 3), trials=50,
        description="Closed forms of mixed products with trivial and semi-trivial parts",
        fn=check_mixed_product_forms, draw=draw_mixed_product_forms),
    LawCheck(
        id="ex-10", kind="identity", dims=(2,), trials=1,
        description="Post-channel effect map is a morphism but not a monomorphism",
        fn=check_post_channel_not_mono, tol=1e-12),
    LawCheck(
        id="lemma-4.3", kind="identity", dims=(2, 3), trials=50,
        description="Parts commute with hats; coexistence pushes to measured observables",
        fn=check_parts_commute_with_hat,
        draw=drawn(partial(random_instruments, n_outcomes=3))),
    LawCheck(
        id="lemma-4.4", kind="identity", dims=(2, 3), trials=50,
        description="Trivial parts stay trivial; shared-state trivial instruments coexist",
        fn=check_trivial_parts,
        draw=drawn(partial(random_observables, n_outcomes=3), random_states)),
    LawCheck(
        id="bayes-obs", kind="counterexample", dims=(2,), trials=100,
        description="Bayes' first rule fails at the observable level",
        fn=check_observable_bayes_failure, replay=_observable_bayes_violation,
        draw=drawn((random_observables, 2), random_states)),
    LawCheck(
        id="cond-prob-measure", kind="identity", dims=(2, 3), trials=50,
        description="Conditional outcome probabilities are probability measures",
        fn=check_conditional_prob_measure, tol=1e-10,
        draw=drawn((random_observables, 2), random_states, (random_instruments, 2))),
)

"""Law checks at the operation level (section 2, eq. 2.3/2.4 to thm 2.4): the
explicit Kraus constructions for trivial/semi-trivial operations, complements
and the operation-level Bayes failures. Ex. 10, the post-channel effect map of
section 4, is checked with the instrument laws."""

from __future__ import annotations

import numpy as np

from .. import matcore, operations as op_mod
from ..effects import (
    Effect,
    State,
    atomic_projection,
    complement,
    prob,
    random_effects,
    random_states,
    seq_product,
)
from ..matcore import max_abs
from ..observables import random_observables
from ._common import (
    chunks,
    drawn,
    order_gap,
    resample,
    sharp_partition,
    trace_real,
    trivial_superop,
)
from .core import LawCheck, LawContext, Tally


def draw_semi_trivial_construction(ctx: LawContext, dim: int, n: int):
    """Per trial 1-3 pairs: the first effects of a random observable with one
    outcome more (so they sum strictly below I), each with a random state."""
    rng = ctx.rng
    sizes = rng.integers(1, 4, size=n)
    observables = random_observables(dim, rng, n, n_outcomes=sizes + 1)
    states = chunks(random_states(dim, rng, int(sizes.sum())), sizes)
    return [(list(zip(obs.effects, alphas)),) for obs, alphas in zip(observables, states)]


def check_semi_trivial_construction(ctx: LawContext, dim: int, tally: Tally,
                                    pairs: list[tuple[Effect, State]]) -> None:
    """The explicit Kraus family for rho -> sum tr(rho a_i) alpha_i has the
    superoperator of the direct formula, with hat = sum a_i."""
    op = op_mod.semi_trivial(pairs)
    direct = sum(trivial_superop(a.op, alpha.op) for a, alpha in pairs)
    tally.expect(max_abs(op.superop - direct), "construction matches the direct formula")
    hat_direct = sum(a.op for a, _ in pairs)
    tally.expect(max_abs(op_mod.hat(op).op - hat_direct),
                 "induced effect is the sum of the effects")


def check_trivial_construction(ctx: LawContext, dim: int, tally: Tally, a: Effect,
                               alpha: State) -> None:
    """Single-pair case: rho -> tr(rho a) alpha measures a, like the Lueders
    operation of a does."""
    op = op_mod.trivial(a, alpha)
    tally.expect(max_abs(op.superop - trivial_superop(a.op, alpha.op)), "trivial action matches")
    tally.expect(max_abs(op_mod.hat(op).op - a.op), "trivial operation measures a")
    tally.expect(max_abs(op_mod.hat(op_mod.luders(a)).op - a.op),
                 "Lueders operation measures a", tol=1e-10)


def check_atomic_is_semi_trivial(ctx: LawContext, dim: int, tally: Tally) -> None:
    """An operation is atomic iff it is semi-trivial with rank-one states equal
    to their own effects."""
    rng = ctx.rng
    u = matcore.random_unitary(dim, rng)
    size = int(rng.integers(1, dim + 1))
    vectors = [u[:, k] for k in range(size)]
    atomic = op_mod.atomic_operation(vectors)
    pairs = [(atomic_projection(v), State(np.outer(v, v.conj()))) for v in vectors]
    st = op_mod.semi_trivial(pairs)
    tally.expect(op_mod.action_distance(atomic, st),
                 "atomic equals projector-paired semi-trivial")


def check_luders_complement(ctx: LawContext, dim: int, tally: Tally, op: op_mod.Operation,
                            chan: op_mod.Operation) -> None:
    """Every operation is completed to a channel by the Lueders operation of
    the complement of its induced effect."""
    comp = op_mod.complement_luders(op)
    total = op_mod.add(op, comp)
    tally.expect(max_abs(op_mod.hat(total).op - matcore.identity(dim)),
                 "sum is a channel")
    tally.expect_true(op_mod.is_complement(comp, op), "complement is recognized")
    zero = op_mod.complement_luders(chan)
    tally.expect(max_abs(op_mod.hat(zero).op), "channels have the zero complement")


def check_luders_and_trivial_complements(ctx: LawContext, dim: int, tally: Tally, a: Effect,
                                         alpha: State, rho: State) -> None:
    """Lueders of a' complements Lueders of a; trivial of (a', alpha)
    complements trivial of (a, alpha), summing to the constant channel."""
    a_c = complement(a)
    lu_a, lu_c = op_mod.luders(a), op_mod.luders(a_c)
    tally.expect(max_abs(op_mod.hat(op_mod.add(lu_a, lu_c)).op - matcore.identity(dim)),
                 "Lueders pair sums to a channel")
    tally.expect_true(op_mod.is_complement(lu_c, lu_a), "Lueders complement recognized")
    i = op_mod.trivial(a, alpha)
    j = op_mod.trivial(a_c, alpha)
    tally.expect_true(op_mod.is_complement(j, i), "trivial complement recognized")
    total = op_mod.apply(op_mod.add(i, j), rho)
    tally.expect(max_abs(total - alpha.op), "sum is the constant channel")


def check_complement_iff(ctx: LawContext, dim: int, tally: Tally, i: op_mod.Operation,
                         alpha: State) -> None:
    """j complements i exactly when hat(j) is the complement of hat(i)."""
    rng = ctx.rng
    target = complement(op_mod.hat(i))
    for j in (op_mod.complement_luders(i), op_mod.trivial(target, alpha)):
        tally.expect_true(op_mod.is_complement(j, i), "matching hat completes i")
        tally.expect(max_abs(op_mod.hat(op_mod.add(i, j)).op - matcore.identity(dim)),
                     "the completed sum is a channel")
    j_far = resample(
        lambda: op_mod.random_operation(dim, rng),
        lambda cand: max_abs(op_mod.hat(cand).op - target.op) > 0.05)
    tally.expect_true(not op_mod.is_complement(j_far, i),
                      "mismatched hat is rejected")


def check_sharp_meet_is_zero(ctx: LawContext, dim: int, tally: Tally) -> None:
    """For sharp i with its Lueders complement j, effects below both induced
    effects vanish (the meet-is-zero witness at the effect level)."""
    rng = ctx.rng
    cells = sharp_partition(dim, rng, coarse=True)
    size = int(rng.integers(1, len(cells) + 1))
    projections = [p.op for p in cells[:size]]
    sharp = op_mod.sharp_operation(projections)
    j = op_mod.complement_luders(sharp)
    hat_i = op_mod.hat(sharp)
    hat_j = op_mod.hat(j)
    tally.expect(max_abs(seq_product(hat_i, hat_j).op),
                 "projection meets its complement at zero")
    lam = float(rng.uniform(0.1, 1.0))
    candidates = [
        Effect(lam * hat_i.op),
        Effect(lam * hat_j.op),
        Effect(lam * seq_product(hat_i, hat_j).op),
    ]
    for c in candidates:
        below_both = (matcore.loewner_leq(c.op, hat_i.op, tol=ctx.psd_tol)
                      and matcore.loewner_leq(c.op, hat_j.op, tol=ctx.psd_tol))
        if below_both:
            tally.expect(max_abs(c.op), "effects below both hats vanish", candidate=c)


def _by_construction(formulas: dict):
    """One replay over several constructions, dispatched on the witness's name."""
    return lambda construction, **objects: formulas[construction](**objects)


def _constant_channel_violation(a: Effect, alpha: State, rho: State) -> float:
    return abs(prob(rho, a) - prob(alpha, a))


def _mixed(a: np.ndarray, b: Effect) -> np.ndarray:
    """a b a + a' b a' for a projection a: b read after the channel of a and a'."""
    a_perp = np.eye(a.shape[0]) - a
    return a @ b.op @ a + a_perp @ b.op @ a_perp


def _projection_mixing_violation(a: np.ndarray, b: Effect, rho: State) -> float:
    return max_abs(b.op - _mixed(a, b))


def check_constant_channel_bayes(ctx: LawContext, dim: int, tally: Tally, alpha: State,
                                 rho: State, a: Effect) -> None:
    """Conditioning through the constant channel of two trivial operations
    replaces rho by alpha; generic inputs witness the failure."""
    chan = op_mod.add(op_mod.trivial(a, alpha), op_mod.trivial(complement(a), alpha))
    tally.expect(max_abs(op_mod.apply(chan, rho) - alpha.op),
                 "the pair sums to the constant channel")
    tally.offer(a=a, alpha=alpha, rho=rho)


def check_projection_mixing_bayes(ctx: LawContext, dim: int, tally: Tally, b: Effect,
                                  rho: State) -> None:
    """Conditioning through the sharp two-projection channel displaces any
    effect that fails to commute with the projection."""
    rng = ctx.rng
    u = matcore.random_unitary(dim, rng)
    rank = int(rng.integers(1, dim))
    a = sum(np.outer(u[:, k], u[:, k].conj()) for k in range(rank))
    chan = op_mod.add(op_mod.kraus_single(a), op_mod.kraus_single(np.eye(dim) - a))
    j = op_mod.luders(b)
    lhs = trace_real(op_mod.apply(j, op_mod.apply(chan, rho)))
    tally.expect(abs(lhs - trace_real(rho.op @ _mixed(a, b))),
                 "channel conditioning equals the mixed effect")
    tally.offer(a=a, b=b, rho=rho)


_operation_bayes_violation = _by_construction({
    "constant-channel": _constant_channel_violation,
    "projection-mixing": lambda a, b, rho: abs(prob(rho, b) - trace_real(rho.op @ _mixed(a, b))),
})


def check_operation_bayes_first_rule(ctx: LawContext, dim: int, tally: Tally, a: Effect,
                                     alpha: State, rho: State, b: Effect) -> None:
    """Bayes' first rule for operations, tr[J(rho)] = tr[J(C(rho))], fails for
    both the constant-channel and the projection-mixing constructions."""
    # Example-1-style: constant channel
    tally.offer(a=a, alpha=alpha, rho=rho, construction="constant-channel")
    # Example-2-style: projection mixing
    u = matcore.random_unitary(dim, ctx.rng)
    p = np.outer(u[:, 0], u[:, 0].conj())
    tally.offer(a=p, b=b, rho=rho, construction="projection-mixing")


_sequencing_order_violation = _by_construction({
    "trivial": lambda a, alpha, beta, rho: prob(rho, a) * abs(prob(alpha, a) - prob(beta, a)),
    "luders": order_gap,
})


def check_sequencing_order_matters(ctx: LawContext, dim: int, tally: Tally, a: Effect,
                                   alpha: State, beta: State, rho: State, b: Effect) -> None:
    """tr[J(I(rho))] and tr[I(J(rho))] disagree for trivial pairs sharing an
    effect and for non-commuting Lueders pairs; the closed forms hold exactly."""
    i_op = op_mod.trivial(a, alpha)
    j_op = op_mod.trivial(a, beta)
    forward = trace_real(op_mod.apply(j_op, op_mod.apply(i_op, rho)))
    backward = trace_real(op_mod.apply(i_op, op_mod.apply(j_op, rho)))
    tally.expect(abs(forward - prob(rho, a) * prob(alpha, a)),
                 "forward composition closed form")
    tally.expect(abs(backward - prob(rho, a) * prob(beta, a)),
                 "backward composition closed form")
    tally.offer(a=a, alpha=alpha, beta=beta, rho=rho, construction="trivial")
    li, lj = op_mod.luders(a), op_mod.luders(b)
    forward = trace_real(op_mod.apply(lj, op_mod.apply(li, rho)))
    backward = trace_real(op_mod.apply(li, op_mod.apply(lj, rho)))
    tally.expect(abs(forward - prob(rho, seq_product(a, b))),
                 "Lueders forward closed form")
    tally.expect(abs(backward - prob(rho, seq_product(b, a))),
                 "Lueders backward closed form")
    tally.offer(a=a, b=b, rho=rho, construction="luders")


# This module's laws, in the paper's order (eq. 2.3/2.4 to thm. 2.4).
LAWS = (
    LawCheck(
        id="eq-2.3/2.4", kind="counterexample", dims=(2,), trials=100,
        description="Bayes' first rule for operations fails through nontrivial channels",
        fn=check_operation_bayes_first_rule, replay=_operation_bayes_violation,
        draw=drawn(random_effects, (random_states, 2), random_effects)),
    LawCheck(
        id="lemma-2.1", kind="identity", dims=(2, 3), trials=50,
        description="Atomic operations are the projector-paired semi-trivial ones",
        fn=check_atomic_is_semi_trivial),
    LawCheck(
        id="thm-2.2", kind="identity", dims=(2, 3, 4, 5), trials=50,
        description="Explicit Kraus family for semi-trivial operations",
        fn=check_semi_trivial_construction, draw=draw_semi_trivial_construction),
    LawCheck(
        id="cor-2.3", kind="identity", dims=(2, 3), trials=50,
        description="Explicit Kraus family for trivial operations; both trivial "
                    "and Lueders operations measure the same effect",
        fn=check_trivial_construction, draw=drawn(random_effects, random_states)),
    LawCheck(
        id="ex-1", kind="counterexample", dims=(2,), trials=100, gap=0.1,
        description="Constant-channel conditioning forgets the input state",
        fn=check_constant_channel_bayes, replay=_constant_channel_violation,
        draw=drawn((random_states, 2), random_effects)),
    LawCheck(
        id="ex-2", kind="counterexample", dims=(2,), trials=100,
        description="Projection mixing displaces non-commuting effects",
        fn=check_projection_mixing_bayes, replay=_projection_mixing_violation, tol=1e-10,
        draw=drawn(random_effects, random_states)),
    LawCheck(
        id="ex-3", kind="counterexample", dims=(2,), trials=100,
        description="Sequential composition of operations is order sensitive",
        fn=check_sequencing_order_matters, replay=_sequencing_order_violation, tol=1e-10,
        draw=drawn(random_effects, (random_states, 3), random_effects)),
    LawCheck(
        id="ex-4", kind="identity", dims=(2, 3), trials=50,
        description="Every operation has a Lueders complement to a channel",
        fn=check_luders_complement,
        draw=drawn(op_mod.random_operations, op_mod.random_channels)),
    LawCheck(
        id="ex-5", kind="identity", dims=(2, 3), trials=50,
        description="Lueders and trivial complements built from the complement effect",
        fn=check_luders_and_trivial_complements, draw=drawn(random_effects, (random_states, 2))),
    LawCheck(
        id="thm-2.4i", kind="identity", dims=(2, 3), trials=50,
        description="Complement of an operation is exactly a complement of its hat",
        fn=check_complement_iff, draw=drawn(op_mod.random_operations, random_states)),
    LawCheck(
        id="thm-2.4ii", kind="identity", dims=(2, 3), trials=50,
        description="Sharp operations meet their complements at zero (effect-level witness)",
        fn=check_sharp_meet_is_zero),
)

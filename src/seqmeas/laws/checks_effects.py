"""Law checks at the effect/state level: the effect-algebra axioms, the
hat-map isomorphism, the sharp/atomic commutation equivalences and the two
Bayes-rule failures for effects."""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .. import matcore, operations as op_mod
from ..effects import (
    Effect,
    State,
    atomic_projection,
    complement,
    perp,
    prob,
    random_effect,
    random_effects,
    random_state,
    random_states,
    seq_product,
)
from ..matcore import max_abs
from ..operations import Operation
from ..observables import Observable, projective_observable, random_observables
from ._common import drawn, order_gap, resample, sharp_partition, trace_real
from .core import LawCheck, LawContext, Tally

# Rejection floor for "generic" (fail-direction) samples: instances that nearly
# satisfy an iff hypothesis are resampled so the asserted gap is never flaky.
GENERIC_COMMUTATOR_FLOOR = 0.1


def check_axiom_1(ctx: LawContext, dim: int, tally: Tally, split: Observable) -> None:
    x, y, _, _ = split.effects
    tally.expect_true(perp(x, y) and perp(y, x), "x perp y iff y perp x", x=x, y=y)
    tally.expect(max_abs((x.op + y.op) - (y.op + x.op)), "x+y = y+x", x=x, y=y)


def check_axiom_2(ctx: LawContext, dim: int, tally: Tally, split: Observable) -> None:
    x, y, z, _ = split.effects
    yz = Effect(y.op + z.op)
    xy = Effect(x.op + y.op)
    tally.expect_true(perp(y, z) and perp(x, yz), "hypothesis holds by construction",
                      x=x, y=y, z=z)
    tally.expect_true(perp(x, y) and perp(z, xy), "x perp y and z perp (x+y)",
                      x=x, y=y, z=z)
    tally.expect(max_abs((x.op + (y.op + z.op)) - ((x.op + y.op) + z.op)),
                 "associativity", x=x, y=y, z=z)


def check_axiom_3(ctx: LawContext, dim: int, tally: Tally, x: Effect) -> None:
    xc = complement(x)
    tally.expect_true(perp(x, xc), "x perp x'", x=x)
    tally.expect(max_abs(x.op + xc.op - matcore.identity(dim)), "x + x' = I", x=x)
    # uniqueness: any effect summing with x to I is I - x entrywise
    tally.expect(max_abs(xc.op - (matcore.identity(dim) - x.op)),
                 "complement is unique", x=x)
    tally.expect(max_abs(complement(xc).op - x.op), "x'' = x", x=x)


@lru_cache(maxsize=None)
def _identity_fixture(dim: int) -> tuple[Effect, bool]:
    """The identity effect and whether ``0 perp I`` holds; draw-free, so built once per dim."""
    ident = Effect(matcore.identity(dim))
    return ident, perp(Effect(np.zeros((dim, dim), dtype=complex)), ident)


def check_axiom_4(ctx: LawContext, dim: int, tally: Tally, x: Effect) -> None:
    ident, zero_perp_ident = _identity_fixture(dim)
    tally.expect_true(zero_perp_ident, "0 perp I")
    if max_abs(x.op) <= 1e-10:
        return
    tally.expect_true(not perp(x, ident), "x perp I only for x = 0", x=x)


def draw_hat_isomorphism(ctx: LawContext, dim: int, n: int):
    rng = ctx.rng
    a = random_effects(dim, rng, n)
    lams = rng.uniform(0.1, 0.9, size=n).tolist()
    ops = op_mod.random_operations(dim, rng, 4 * n)
    return zip(a, lams, ops[0::4], ops[1::4], ops[2::4], ops[3::4],
               op_mod.random_channels(dim, rng, n), random_states(dim, rng, n),
               random_effects(dim, rng, n))


def check_hat_isomorphism(ctx: LawContext, dim: int, tally: Tally, a: Effect, lam: float,
                          op_i: Operation, op_j: Operation, base: Operation, op_k: Operation,
                          chan: Operation, alpha: State, b: Effect) -> None:
    """Additivity, convex-linearity, surjectivity, injectivity-on-classes and
    order preservation of the induced-effect map."""
    tally.expect(max_abs(op_mod.hat(op_mod.luders(a)).op - a.op),
                 "surjectivity via Lueders", a=a, tol=1e-10)
    i = op_mod.scale(op_i, lam)
    j = op_mod.scale(op_j, 1.0 - lam)
    tally.expect(
        max_abs(op_mod.hat(op_mod.add(i, j)).op - (op_mod.hat(i).op + op_mod.hat(j).op)),
        "hat is additive", lam=lam)
    tally.expect(
        max_abs(op_mod.hat(op_mod.scale(base, lam)).op - lam * op_mod.hat(base).op),
        "hat is homogeneous", lam=lam)
    tally.expect(max_abs(op_mod.hat(chan).op - matcore.identity(dim)),
                 "channels are the unit class")
    tally.expect_true(op_mod.equiv(op_mod.luders(a), op_mod.trivial(a, alpha)),
                      "operations measuring one effect are equivalent", a=a)
    if max_abs(a.op - b.op) > 1e-6:
        tally.expect_true(not op_mod.equiv(op_mod.luders(a), op_mod.luders(b)),
                          "distinct hats are inequivalent", a=a, b=b)
    # order preservation along i <= i + k
    half = op_mod.scale(base, 0.5)
    more = op_mod.add(half, op_mod.scale(op_k, 0.5))
    tally.expect_true(op_mod.operation_leq(half, more, ctx.rng),
                      "construction satisfies the operation order")
    tally.expect_true(matcore.loewner_leq(op_mod.hat(half).op, op_mod.hat(more).op),
                      "hat preserves order")


def check_kraus_trace_identity(ctx: LawContext, dim: int, tally: Tally, op: Operation,
                               rho: State) -> None:
    """tr(rho sum A†A) = tr[I(rho)] <= tr(rho), and the sum is representation
    independent under unitary remixing of the Kraus family."""
    rng = ctx.rng
    out_trace = trace_real(op_mod.apply(op, rho))
    tally.expect(abs(prob(rho, op_mod.hat(op)) - out_trace),
                 "hat reproduces the output trace", rho=rho)
    tally.expect(max(0.0, out_trace - 1.0), "trace nonincreasing", rho=rho)
    m = op.n_kraus + int(rng.integers(0, 3))
    w = matcore.random_unitary(max(m, 2), rng)
    remixed = op_mod.remix_kraus(op, w)
    tally.expect(max_abs(op_mod.hat(remixed).op - op_mod.hat(op).op),
                 "hat is Kraus-representation independent", tol=ctx.eq_tol)


def check_partition_commutation_iff(ctx: LawContext, dim: int, tally: Tally) -> None:
    """b = sum a_i b a_i over a sharp partition iff b commutes with every cell."""
    rng = ctx.rng
    # pass direction: b is a function of a coarse random partition
    cells = sharp_partition(dim, rng, coarse=True)
    coeffs = rng.uniform(0.0, 1.0, size=len(cells))
    b = Effect(sum(c * p.op for c, p in zip(coeffs, cells)))
    mixed = sum(seq_product(p, b).op for p in cells)
    tally.expect(max_abs(b.op - mixed), "commuting b is reproduced", b=b)
    tally.expect_true(
        max(max_abs(b.op @ p.op - p.op @ b.op) for p in cells) <= 1e-8,
        "constructed b commutes")

    # fail direction: a generic effect against a rank-one partition
    cells = sharp_partition(dim, rng, coarse=False)

    def commutator(e: Effect) -> float:
        return max(max_abs(e.op @ p.op - p.op @ e.op) for p in cells)

    generic = resample(lambda: random_effect(dim, rng),
                       lambda e: commutator(e) >= GENERIC_COMMUTATOR_FLOOR)
    mixed = sum(seq_product(p, generic).op for p in cells)
    violation = max_abs(generic.op - mixed)
    tally.expect_true(violation > ctx.gap, "generic b is displaced",
                      b=generic, violation=violation)


def _swap_on_span(phi: np.ndarray, psi: np.ndarray) -> np.ndarray | None:
    """Hermitian unitary exchanging phi and psi (requires real overlap)."""
    dim = phi.size
    overlap = np.vdot(phi, psi)
    w = psi - overlap * phi
    norm = np.linalg.norm(w)
    if norm < 1e-9:
        return None  # psi ~ phi: nothing to swap
    e2 = w / norm
    v = np.column_stack([phi, e2])
    block = np.array([[overlap.real, norm], [norm, -overlap.real]])
    return v @ block @ v.conj().T + (np.eye(dim) - v @ v.conj().T)


def draw_atomic_symmetry_iff(ctx: LawContext, dim: int, n: int):
    """Per trial the pass-direction inputs: a state to symmetrize, a projective
    observable (its first two cells are the orthogonal pair) and a state. The
    fail direction is rejection-sampled inside the trial."""
    rng = ctx.rng
    states = random_states(dim, rng, 2 * n)
    return zip(states[0::2], [projective_observable(dim, rng) for _ in range(n)],
               states[1::2])


def check_atomic_symmetry_iff(ctx: LawContext, dim: int, tally: Tally, rho0: State,
                              cells: Observable, rho_orth: State) -> None:
    """P_rho(a o b) = P_rho(b o a) for atomic a, b iff the diagonal matrix
    elements of rho agree or the projections are orthogonal."""
    rng = ctx.rng
    # pass instance 1: symmetrized state with equal diagonals; vectors
    # too close to parallel make the swap ill-conditioned, so resample
    def draw_pair():
        return (matcore.random_unit_vector(dim, rng),
                matcore.random_unit_vector(dim, rng))

    phi, psi = resample(draw_pair,
                        lambda pair: abs(np.vdot(pair[0], pair[1])) <= 0.95)
    overlap = np.vdot(phi, psi)
    if abs(overlap) > 1e-12:
        psi = psi * (overlap.conjugate() / abs(overlap))
    swap = _swap_on_span(phi, psi)
    if swap is not None:
        rho = State((rho0.op + swap @ rho0.op @ swap) / 2)
        a = atomic_projection(phi)
        b = atomic_projection(psi)
        tally.expect(order_gap(a, b, rho), "equal diagonals give symmetric probabilities",
                     a=a, b=b, rho=rho)
    # pass instance 2: orthogonal projections
    a, b = cells.effects[:2]
    tally.expect(order_gap(a, b, rho_orth),
                 "orthogonal projections give symmetric probabilities", a=a, b=b, rho=rho_orth)

    # fail direction: overlapping pair over a state with distinct diagonals
    def draw():
        phi = matcore.random_unit_vector(dim, rng)
        psi = matcore.random_unit_vector(dim, rng)
        rho = random_state(dim, rng)
        return phi, psi, rho

    def accept(sample):
        phi, psi, rho = sample
        diag_gap = abs(np.vdot(phi, rho.op @ phi).real - np.vdot(psi, rho.op @ psi).real)
        return abs(np.vdot(phi, psi)) >= 0.4 and diag_gap >= 0.15

    phi, psi, rho = resample(draw, accept)
    a = atomic_projection(phi)
    b = atomic_projection(psi)
    violation = order_gap(a, b, rho)
    tally.expect_true(violation > ctx.gap, "generic atomic pair is asymmetric",
                      a=a, b=b, rho=rho, violation=violation)


def _bayes_first_rule_violation(partition: Observable, b: Effect, rho: State) -> float:
    total = sum(prob(rho, seq_product(a_i, b)) for a_i in partition.effects)
    return abs(prob(rho, b) - total)


def draw_bayes_first_rule_effects(ctx: LawContext, dim: int, n: int):
    rng = ctx.rng
    return zip([projective_observable(dim, rng) for _ in range(n)],
               random_effects(dim, rng, n), random_states(dim, rng, n))


def check_bayes_first_rule_effects(ctx: LawContext, dim: int, tally: Tally,
                                   partition: Observable, b: Effect, rho: State) -> None:
    """Bayes' first rule P(b) = sum_i P(a_i) P(b|a_i) fails for effects."""
    tally.offer(partition=partition, b=b, rho=rho)


def check_bayes_second_rule_effects(ctx: LawContext, dim: int, tally: Tally, a: Effect,
                                    b: Effect, rho: State) -> None:
    """Bayes' second rule P(b)P(a|b) = P(a)P(b|a) fails for effects."""
    tally.offer(a=a, b=b, rho=rho)


# This module's laws, in the paper's order (section 1 to eq. 2.2).
LAWS = (
    LawCheck(
        id="axioms-1", kind="identity", dims=(2, 3), trials=50,
        description="Orthosum commutes: x perp y implies y perp x and x+y = y+x",
        fn=check_axiom_1, tol=1e-12,
        draw=drawn(partial(random_observables, n_outcomes=4))),
    LawCheck(
        id="axioms-2", kind="identity", dims=(2, 3), trials=50,
        description="Orthosum associates across nested perp sums",
        fn=check_axiom_2, tol=1e-12,
        draw=drawn(partial(random_observables, n_outcomes=4))),
    LawCheck(
        id="axioms-3", kind="identity", dims=(2, 3), trials=50,
        description="Every effect has the unique complement I - x",
        fn=check_axiom_3, tol=1e-12, draw=drawn(random_effects)),
    LawCheck(
        id="axioms-4", kind="identity", dims=(2, 3), trials=50,
        description="Only the zero effect is summable with the identity",
        fn=check_axiom_4, tol=1e-10, draw=drawn(random_effects)),
    LawCheck(
        id="thm-1.1", kind="identity", dims=(2, 3), trials=100,
        description="The induced-effect map is a convex effect-algebra isomorphism "
                    "on equivalence classes of operations",
        fn=check_hat_isomorphism, draw=draw_hat_isomorphism),
    LawCheck(
        id="thm-1.2i", kind="iff", dims=(2,), trials=100,
        description="A sharp partition reproduces b iff b commutes with every cell",
        fn=check_partition_commutation_iff),
    LawCheck(
        id="thm-1.2ii", kind="iff", dims=(2,), trials=100,
        description="Atomic sequential probabilities are symmetric iff diagonals "
                    "agree or the projections are orthogonal",
        fn=check_atomic_symmetry_iff, tol=1e-10, draw=draw_atomic_symmetry_iff),
    LawCheck(
        id="eq-1.1", kind="identity", dims=(2, 3), trials=50,
        description="Kraus trace identity and representation independence of the "
                    "induced effect",
        fn=check_kraus_trace_identity, tol=1e-10,
        draw=drawn(op_mod.random_operations, random_states)),
    LawCheck(
        id="eq-2.1", kind="counterexample", dims=(2,), trials=100,
        description="Bayes' first rule fails for effect conditioning",
        fn=check_bayes_first_rule_effects, replay=_bayes_first_rule_violation,
        draw=draw_bayes_first_rule_effects),
    LawCheck(
        id="eq-2.2", kind="counterexample", dims=(2,), trials=100,
        description="Bayes' second rule fails for effect conditioning",
        fn=check_bayes_second_rule_effects, replay=order_gap,
        draw=drawn((random_effects, 2), random_states)),
)

"""Instruments: finite operation-valued measures summing to a channel.

An instrument attaches an operation to every outcome; the sum (``bar``) must
be a channel. Each instrument measures exactly one observable (the hats of its
member operations), but an observable is measured by many instruments, which
is where the trivial / semi-trivial / Lueders / Kraus / sharp taxonomy comes
from. The mixed products between observables and instruments live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, operations as op_mod
from .effects import COND_FLOOR, State
from .errors import ConditioningOnNull, DimensionError, NotChannel
from .matcore import max_abs
from .observables import PRODUCT_SEPARATOR, Observable, _check_part_map
from .operations import Operation

INST_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Instrument:
    """Ordered outcome labels with one operation per outcome, summing to a channel."""

    outcomes: tuple[str, ...]
    ops: tuple[Operation, ...]

    def __post_init__(self):
        outcomes = tuple(str(x) for x in self.outcomes)
        members = tuple(self.ops)
        if len(outcomes) != len(members) or not outcomes:
            raise DimensionError("need one operation per outcome")
        if len(set(outcomes)) != len(outcomes):
            raise DimensionError(f"outcome labels are not unique: {outcomes}")
        dim = members[0].dim
        if any(o.dim != dim for o in members):
            raise DimensionError("all member operations must share one dimension")
        total = sum(o.induced.op for o in members)
        if max_abs(total - matcore.identity(dim)) > INST_SUM_TOL:
            raise NotChannel("member operations do not sum to a channel")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "ops", members)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def operation(self, outcome: str) -> Operation:
        return self.ops[self.outcomes.index(outcome)]

    def items(self):
        return zip(self.outcomes, self.ops)


def inst_equal(i: Instrument, j: Instrument, tol: float = INST_SUM_TOL) -> bool:
    """Per-outcome equality of action (Kraus lists are not canonical)."""
    if set(i.outcomes) != set(j.outcomes) or i.dim != j.dim:
        return False
    return all(
        op_mod.action_equal(i.operation(x), j.operation(x), tol) for x in i.outcomes
    )


def bar(i: Instrument) -> Operation:
    """The total channel: concatenation of all member Kraus families."""
    return Operation(np.concatenate([o.kraus for o in i.ops]))


def measured_observable(i: Instrument) -> Observable:
    """The unique observable the instrument measures (hats of the members)."""
    return Observable(i.outcomes, tuple(op_mod.hat(o) for o in i.ops))


def distribution(i: Instrument, rho: State) -> dict[str, float]:
    """Outcome distribution x -> tr[I_x(rho)]."""
    if rho.dim != i.dim:
        raise DimensionError(f"dim mismatch: {rho.dim} vs {i.dim}")
    out = {}
    for x, o in i.items():
        value = np.trace(op_mod.apply(o, rho)).real
        out[x] = min(1.0, max(0.0, value))
    return out


def luders_instrument(a: Observable) -> Instrument:
    """Lueders instrument of an observable: outcome x applies a_x^{1/2} . a_x^{1/2}."""
    return Instrument(a.outcomes, tuple(op_mod.luders(e) for e in a.effects))


def trivial_instrument(a: Observable, alpha: State) -> Instrument:
    """Every outcome prepares the same state: I_x(rho) = tr(rho a_x) alpha."""
    return Instrument(a.outcomes, tuple(op_mod.trivial(e, alpha) for e in a.effects))


def semi_trivial_instrument(a: Observable, states: list[State]) -> Instrument:
    """Outcome-dependent preparations: I_x(rho) = tr(rho a_x) alpha_x."""
    if len(states) != len(a.outcomes):
        raise DimensionError("need one state per outcome")
    return Instrument(
        a.outcomes, tuple(op_mod.trivial(e, s) for e, s in zip(a.effects, states))
    )


def kraus_instrument(mats: list[np.ndarray], outcomes: tuple[str, ...] | None = None) -> Instrument:
    """One Kraus operator per outcome; the family must be trace-preserving."""
    outcomes = outcomes or tuple(f"x{k}" for k in range(len(mats)))
    return Instrument(outcomes, tuple(op_mod.kraus_single(m) for m in mats))


def sharp_instrument(families: list[list[np.ndarray]],
                     outcomes: tuple[str, ...] | None = None) -> Instrument:
    """Projection-valued Kraus families; the full family must sum to I.

    Summing to I forces the projections to be mutually orthogonal, so only the
    projection property and the total sum are checked.
    """
    sizes = [len(family) for family in families]
    if not sizes or 0 in sizes:
        raise DimensionError("need a nonempty projection family per outcome")
    mats = op_mod._projection_list([p for family in families for p in family])
    if max_abs(sum(mats) - matcore.identity(mats[0].shape[0])) > INST_SUM_TOL:
        raise NotChannel("projection family does not sum to the identity")
    ends = np.cumsum(sizes)
    outcomes = outcomes or tuple(f"x{k}" for k in range(len(sizes)))
    return Instrument(outcomes, tuple(Operation(np.stack(mats[end - n:end]))
                                      for n, end in zip(sizes, ends)))


def atomic_instrument(vector_families: list[list[np.ndarray]],
                      outcomes: tuple[str, ...] | None = None) -> Instrument:
    """Sharp instrument built from rank-one projections onto the given vectors."""
    families = [
        [np.outer(v, np.conj(v)) for v in (np.asarray(w, dtype=complex) for w in fam)]
        for fam in vector_families
    ]
    return sharp_instrument(families, outcomes)


def identity_instrument(dim: int, outcome: str = "x") -> Instrument:
    return Instrument((outcome,), (op_mod.identity_channel(dim),))


def inst_seq_product(i: Instrument, j: Instrument) -> Instrument:
    """Product instrument: run i, then j, outcome set the cartesian product."""
    if i.dim != j.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {j.dim}")
    outcomes = []
    members = []
    for x, ix in i.items():
        for y, jy in j.items():
            outcomes.append(f"{x}{PRODUCT_SEPARATOR}{y}")
            members.append(op_mod.compose(ix, jy))
    return Instrument(tuple(outcomes), tuple(members))


def inst_conditioned(j: Instrument, given: Instrument) -> Instrument:
    """The instrument j conditioned by i: outcome y applies J_y after the bar channel."""
    i = given
    if i.dim != j.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {j.dim}")
    channel = bar(i)
    return Instrument(
        j.outcomes, tuple(op_mod.compose(channel, jy) for jy in j.ops)
    )


def obs_then_inst(a: Observable, i: Instrument) -> Instrument:
    """Mixed product A o I: Lueders-measure a_x, then run I_y."""
    if a.dim != i.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {i.dim}")
    outcomes = []
    members = []
    for x, ax in a.items():
        for y, iy in i.items():
            outcomes.append(f"{x}{PRODUCT_SEPARATOR}{y}")
            members.append(op_mod.effect_then_op(ax, iy))
    return Instrument(tuple(outcomes), tuple(members))


def inst_then_obs(i: Instrument, a: Observable) -> Observable:
    """Mixed product I o A: the observable with effects I_x o a_y."""
    if a.dim != i.dim:
        raise DimensionError(f"dim mismatch: {i.dim} vs {a.dim}")
    outcomes = []
    effs = []
    for x, ix in i.items():
        for y, ay in a.items():
            outcomes.append(f"{x}{PRODUCT_SEPARATOR}{y}")
            effs.append(op_mod.op_then_effect(ix, ay))
    return Observable(tuple(outcomes), tuple(effs))


def inst_conditioned_on_obs(i: Instrument, given: Observable) -> Instrument:
    """(I | A): outcome y applies I_y after the Lueders channel of A."""
    a = given
    if a.dim != i.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {i.dim}")
    channel = bar(luders_instrument(a))
    return Instrument(i.outcomes, tuple(op_mod.compose(channel, iy) for iy in i.ops))


def obs_conditioned_on_inst(a: Observable, given: Instrument) -> Observable:
    """(A | I): the observable with effects Ibar o a_y."""
    i = given
    if a.dim != i.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {i.dim}")
    channel = bar(i)
    return Observable(
        a.outcomes, tuple(op_mod.op_then_effect(channel, ay) for ay in a.effects)
    )


def inst_part(i: Instrument, f) -> Instrument:
    """Coarse-graining along a surjection: merged outcomes concatenate Kraus families."""
    mapping = _check_part_map(f, i.outcomes)
    order: list[str] = []
    families: dict[str, list[np.ndarray]] = {}
    for x, o in i.items():
        y = mapping[x]
        if y not in families:
            order.append(y)
            families[y] = []
        families[y].append(o.kraus)
    members = tuple(Operation(np.concatenate(families[y])) for y in order)
    return Instrument(tuple(order), members)


def verify_inst_coexistence_witness(j: Instrument, k: Instrument, i: Instrument,
                                    f, g, tol: float = INST_SUM_TOL) -> bool:
    """Check that a single instrument ``i`` has both ``j`` and ``k`` as parts."""
    return inst_equal(inst_part(i, f), j, tol) and inst_equal(inst_part(i, g), k, tol)


def cond_prob(rho: State, j_member: Operation, given: Operation) -> float:
    """P_rho(J | I) = tr[J(I(rho))] / tr[I(rho)]."""
    front = op_mod.apply(given, rho)
    denom = np.trace(front).real
    if denom <= COND_FLOOR:
        raise ConditioningOnNull(f"tr[I(rho)] = {denom!r}")
    return np.trace(op_mod.apply(j_member, front)).real / denom


def random_instrument(dim: int, rng: np.random.Generator,
                      n_outcomes: int | None = None) -> Instrument:
    """Random instrument: globally normalized Ginibre Kraus families."""
    n = n_outcomes or int(rng.integers(2, 4))
    while True:
        families = []
        for _ in range(n):
            size = int(rng.integers(1, 3))
            fam = np.stack(
                [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                 for _ in range(size)]
            )
            families.append(fam)
        inv_root = matcore.inv_sqrt_pd(sum(op_mod._hat_matrix(fam) for fam in families))
        if inv_root is not None:
            break
    members = tuple(
        Operation(np.einsum("nij,jk->nik", fam, inv_root)) for fam in families
    )
    return Instrument(tuple(f"x{k}" for k in range(n)), members)


def random_kraus_instrument(dim: int, rng: np.random.Generator,
                            n_outcomes: int | None = None) -> Instrument:
    """Random Kraus instrument: one operator per outcome, trace-preserving."""
    n = n_outcomes or int(rng.integers(2, 4))
    while True:
        mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(n)]
        inv_root = matcore.inv_sqrt_pd(sum(matcore.dagger(m) @ m for m in mats))
        if inv_root is not None:
            break
    return kraus_instrument([m @ inv_root for m in mats])

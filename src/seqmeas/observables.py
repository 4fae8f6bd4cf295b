"""Observables: finite effect-valued measures.

An observable assigns an effect to each outcome label, with the effects
summing to the identity (a discrete POVM). Sequential products, conditioning,
coarse-graining into parts and coexistence-witness verification live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .effects import Effect, State, prob
from .errors import DimensionError, NotSurjective
from .matcore import max_abs

OBS_SUM_TOL = 1e-9

PRODUCT_SEPARATOR = "⊗"  # "x⊗y" outcome labels for product observables


@dataclass(frozen=True, eq=False)
class Observable:
    """Ordered outcome labels with one effect per outcome, summing to I."""

    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]

    def __post_init__(self):
        outcomes = tuple(str(x) for x in self.outcomes)
        effects = tuple(self.effects)
        if len(outcomes) != len(effects) or not outcomes:
            raise DimensionError("need one effect per outcome")
        if len(set(outcomes)) != len(outcomes):
            raise DimensionError(f"outcome labels are not unique: {outcomes}")
        dim = effects[0].dim
        if any(e.dim != dim for e in effects):
            raise DimensionError("all effects must share one dimension")
        total = sum(e.op for e in effects)
        if max_abs(total - matcore.identity(dim)) > OBS_SUM_TOL:
            raise DimensionError("effects do not sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    def effect(self, outcome: str) -> Effect:
        return self.effects[self.outcomes.index(outcome)]

    def items(self):
        return zip(self.outcomes, self.effects)


def obs_equal(a: Observable, b: Observable, tol: float = OBS_SUM_TOL) -> bool:
    """Same outcome set (order-insensitive) and effectwise agreement."""
    if set(a.outcomes) != set(b.outcomes) or a.dim != b.dim:
        return False
    return all(max_abs(a.effect(x).op - b.effect(x).op) <= tol for x in a.outcomes)


def distribution(a: Observable, rho: State) -> dict[str, float]:
    """Outcome distribution x -> tr(rho a_x)."""
    if rho.dim != a.dim:
        raise DimensionError(f"dim mismatch: {rho.dim} vs {a.dim}")
    return {x: prob(rho, e) for x, e in a.items()}


def event_prob(a: Observable, rho: State, event) -> float:
    """Probability of a set of outcomes (the effect-valued measure is additive)."""
    dist = distribution(a, rho)
    return float(sum(dist[x] for x in event))


def obs_seq_product(a: Observable, b: Observable) -> Observable:
    """Product observable with effects a_x o b_y over the product outcome set."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    outcomes = []
    effs = []
    for x, ax in a.items():
        root = matcore.sqrt_psd(ax.op)
        for y, by in b.items():
            outcomes.append(f"{x}{PRODUCT_SEPARATOR}{y}")
            effs.append(Effect(root @ by.op @ root))
    return Observable(tuple(outcomes), tuple(effs))


def obs_conditioned(b: Observable, given: Observable) -> Observable:
    """The observable b conditioned by a: y -> sum_x a_x o b_y."""
    a = given
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    roots = [matcore.sqrt_psd(ax.op) for ax in a.effects]
    effs = []
    for by in b.effects:
        total = sum(root @ by.op @ root for root in roots)
        effs.append(Effect(total))
    return Observable(b.outcomes, tuple(effs))


def _check_part_map(f, outcomes: tuple[str, ...]) -> dict[str, str]:
    try:
        mapping = {str(x): str(f[x]) for x in outcomes}
    except (KeyError, TypeError) as exc:
        raise NotSurjective(f"relabeling is not total on the outcome set: {exc}") from None
    return mapping


def obs_part(a: Observable, f) -> Observable:
    """Coarse-graining along a surjection of outcomes: b_y = sum over f(x)=y of a_x.

    ``f`` maps every outcome of ``a`` to a new label (any mapping type); the
    image labels become the part's outcomes in first-appearance order.
    """
    mapping = _check_part_map(f, a.outcomes)
    order: list[str] = []
    sums: dict[str, np.ndarray] = {}
    for x, e in a.items():
        y = mapping[x]
        if y not in sums:
            order.append(y)
            sums[y] = np.zeros((a.dim, a.dim), dtype=complex)
        sums[y] = sums[y] + e.op
    return Observable(tuple(order), tuple(Effect(sums[y]) for y in order))


def second_marginal_map(a: Observable, b: Observable) -> dict[str, str]:
    """The surjection (x, y) -> y on the product outcome set of a o b."""
    return {
        f"{x}{PRODUCT_SEPARATOR}{y}": y for x in a.outcomes for y in b.outcomes
    }


def first_marginal_map(a: Observable, b: Observable) -> dict[str, str]:
    """The surjection (x, y) -> x on the product outcome set of a o b."""
    return {
        f"{x}{PRODUCT_SEPARATOR}{y}": x for x in a.outcomes for y in b.outcomes
    }


def verify_coexistence_witness(b: Observable, c: Observable, a: Observable, f, g,
                               tol: float = OBS_SUM_TOL) -> bool:
    """Check that a single observable ``a`` measures both ``b`` and ``c``.

    True iff the coarse-grainings of ``a`` along ``f`` and ``g`` reproduce
    ``b`` and ``c``; surjectivity onto the target outcome sets is part of the
    check (a part with the wrong outcome set simply fails).
    """
    return obs_equal(obs_part(a, f), b, tol) and obs_equal(obs_part(a, g), c, tol)


def identity_observable(dim: int, outcome: str = "x") -> Observable:
    """The sure observable with a single outcome carrying the identity."""
    return Observable((outcome,), (Effect(matcore.identity(dim)),))


def random_observable(dim: int, rng: np.random.Generator,
                      n_outcomes: int | None = None) -> Observable:
    """Random POVM: Ginibre grams renormalized to sum to the identity."""
    n = n_outcomes or int(rng.integers(2, 4))
    while True:
        grams = []
        for _ in range(n):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            grams.append(g @ g.conj().T)
        inv_root = matcore.inv_sqrt_pd(sum(grams))
        if inv_root is not None:
            break
    effs = tuple(Effect(inv_root @ g @ inv_root) for g in grams)
    return Observable(tuple(f"x{k}" for k in range(n)), effs)


def projective_observable(dim: int, rng: np.random.Generator) -> Observable:
    """Random sharp observable: rank-one eigenprojections of a random unitary."""
    u = matcore.random_unitary(dim, rng)
    effs = tuple(Effect(np.outer(u[:, k], u[:, k].conj())) for k in range(dim))
    return Observable(tuple(f"x{k}" for k in range(dim)), effs)

"""Shared sampling and witness helpers for the law checks."""

from __future__ import annotations

import itertools

import numpy as np

from .. import serialize
from ..effects import Effect, State, prob, seq_product
from ..errors import SamplingError
from ..observables import obs_part, projective_observable

MAX_RESAMPLES = 500


def wit(**objects) -> dict:
    """Serialize witness inputs: domain objects become typed JSON, scalars pass through."""
    return {name: serialize.to_json(obj) for name, obj in objects.items()}


def sharp_partition(dim: int, rng: np.random.Generator, coarse: bool = False) -> tuple[Effect, ...]:
    """Projection-valued partition of the identity: a random projective observable.

    With ``coarse`` its rank-one projections are merged into random groups (a
    random part of it), so partitions of every rank profile get exercised.
    """
    cells = projective_observable(dim, rng)
    if coarse and dim > 2:
        groups = random_surjection(cells.outcomes, rng, int(rng.integers(2, dim + 1)))
        cells = obs_part(cells, groups)
    return cells.effects


def random_surjection(outcomes: tuple[str, ...], rng: np.random.Generator,
                      n_groups: int | None = None) -> dict[str, str]:
    """Random total surjection from the outcome set onto {y0..y(k-1)}."""
    n = len(outcomes)
    k = n_groups or int(rng.integers(1, n + 1))
    labels = list(rng.integers(0, k, size=n))
    order = list(rng.permutation(n))
    for g in range(k):
        labels[order[g]] = g
    return {x: f"y{g}" for x, g in zip(outcomes, labels)}


def drawn(*generators):
    """A ``LawCheck.draw`` made of stacked generator calls, stated in a registry row.

    Each entry is a generator ``g(dim, rng, n)`` or a pair ``(g, k)``. The entries
    draw in the given order, each once, g for k * n inputs; trial j takes one
    input per entry (k consecutive inputs, j * k to j * k + k - 1, for a pair),
    as its arguments in entry order.
    """
    def draw(ctx, dim: int, n: int):
        columns = []
        for entry in generators:
            g, k = entry if isinstance(entry, tuple) else (entry, 1)
            inputs = g(dim, ctx.rng, k * n)
            columns += [inputs[i::k] for i in range(k)]
        return zip(*columns)
    return draw


def chunks(items, sizes) -> list[tuple]:
    """``items`` cut into consecutive groups of the given sizes."""
    items = iter(items)
    return [tuple(itertools.islice(items, k)) for k in sizes]


def resample(draw, accept):
    """Draw until a sample passes the rejection predicate (bounded)."""
    for _ in range(MAX_RESAMPLES):
        sample = draw()
        if accept(sample):
            return sample
    raise SamplingError(f"rejection sampling found no acceptable sample in {MAX_RESAMPLES} draws")


def trivial_superop(a: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> tr(rho a) alpha for matrices a and alpha, straight
    from the formula, with no constructor and no solve: vec(alpha) vec(a^T)^T in
    the row-major vec of ``Operation.superop``."""
    return np.outer(alpha.reshape(-1), a.T.reshape(-1))


def trace_real(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def order_gap(a: Effect, b: Effect, rho: State) -> float:
    """|P_rho(a o b) - P_rho(b o a)|: how far measuring order moves a probability."""
    return abs(prob(rho, seq_product(a, b)) - prob(rho, seq_product(b, a)))

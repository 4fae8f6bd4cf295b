"""Shared sampling and witness helpers for the law checks."""

from __future__ import annotations

import numpy as np

from .. import matcore, serialize
from ..effects import Effect, State, prob, seq_product
from ..errors import SamplingError

MAX_RESAMPLES = 500


def wit(**objects) -> dict:
    """Serialize witness inputs: domain objects become typed JSON, scalars pass through."""
    return {name: serialize.to_json(obj) for name, obj in objects.items()}


def sharp_partition(dim: int, rng: np.random.Generator, coarse: bool = False) -> list[Effect]:
    """Projection-valued partition of the identity from a random unitary's columns.

    With ``coarse`` the rank-one projections are merged into random groups, so
    partitions of every rank profile get exercised.
    """
    u = matcore.random_unitary(dim, rng)
    cells = [np.outer(u[:, k], u[:, k].conj()) for k in range(dim)]
    if not coarse or dim == 2:
        return [Effect(c) for c in cells]
    n_groups = int(rng.integers(2, dim + 1))
    labels = _surjective_labels(dim, n_groups, rng)
    grouped: dict[int, np.ndarray] = {}
    for label, cell in zip(labels, cells):
        grouped[label] = grouped.get(label, 0) + cell
    return [Effect(m) for m in grouped.values()]


def _surjective_labels(n_items: int, n_groups: int, rng: np.random.Generator) -> list[int]:
    labels = list(rng.integers(0, n_groups, size=n_items))
    order = list(rng.permutation(n_items))
    for g in range(n_groups):
        labels[order[g]] = g
    return labels


def random_surjection(outcomes: tuple[str, ...], rng: np.random.Generator,
                      n_groups: int | None = None) -> dict[str, str]:
    """Random total surjection from the outcome set onto {y0..y(k-1)}."""
    n = len(outcomes)
    k = n_groups or int(rng.integers(1, n + 1))
    labels = _surjective_labels(n, k, rng)
    return {x: f"y{g}" for x, g in zip(outcomes, labels)}


def resample(draw, accept):
    """Draw until a sample passes the rejection predicate (bounded)."""
    for _ in range(MAX_RESAMPLES):
        sample = draw()
        if accept(sample):
            return sample
    raise SamplingError(f"rejection sampling found no acceptable sample in {MAX_RESAMPLES} draws")


def trace_real(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def order_gap(a: Effect, b: Effect, rho: State) -> float:
    """|P_rho(a o b) - P_rho(b o a)|: how far measuring order moves a probability."""
    return abs(prob(rho, seq_product(a, b)) - prob(rho, seq_product(b, a)))

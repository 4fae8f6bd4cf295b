"""Observables, and the labeled-measure base they share with instruments.

An observable assigns an effect to each outcome label, the effects summing to
the identity (a discrete POVM); an instrument (``instruments.py``) assigns an
operation. Both are ``_Measure``s, so validation, lookup, parts, equality, the
distribution, the witness check, products and conditionings are written once.
Every member of a measure the library builds (products, parts, the random and
structured constructors) comes from the stacked builder of its member type,
``effects._computed`` (the one entry of every effect the library computes)
or ``operations._operations`` (``operations._composed`` for instrument
products), through the stacked hooks ``_afters`` and ``_merges``.
Conditionings are the exception: they still build each member alone, through
the scalar hook ``_after`` (``compose`` or ``op_then_effect``). No builder
reads what the library hands it: an effect stack is symmetrized once and
checked, a family certified as it is. A measure taken first runs its
front, a tuple of Kraus families: an instrument its members' own, an
observable those of its Lueders instrument L(a): a_x -> a_x^{1/2} .
a_x^{1/2}, the roots themselves (Gudder & Nagy, J. Math. Phys. 42 (2001)).
So observable products and conditionings are the Lueders case of the
instrument ones, a o b = L(a) o b and (b | a) = (b | L(a)), and build no
operation of L(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore, operations as op_mod
from .effects import Effect, State, _check_type, _computed, _probability, _seeded, _with_roots, prob
from .errors import DimensionError, NotEffect, NotMeasure, NotState, NotSurjective, SeqmeasError
from .matcore import _sequence, max_abs
from .operations import Operation

OBS_SUM_TOL = 1e-9

PRODUCT_SEPARATOR = "⊗"  # "x⊗y" outcome labels for product observables


def _product_items(xs, ys) -> list:
    """(x + PRODUCT_SEPARATOR + y, u, v) over the (x, u) of xs and (y, v) of ys, x
    outer: the one product loop, so every product shares its labels and order."""
    ys = tuple(ys)
    return [(f"{x}{PRODUCT_SEPARATOR}{y}", u, v) for x, u in xs for y, v in ys]


# The one normalizer of outcome labels, applied at construction and at every
# lookup: members, events, and the keys and images of a part map.
_label = str


class _Measure:
    """Ordered outcome labels with one member per label, member effects summing to I.

    Subclasses are frozen dataclasses ``(outcomes, <_field>)`` supplying the member
    ``_type`` (class, and the error of another), its ``_effect``, ``_prob``,
    ``_distance`` and ``_sum_error``, the ``_front`` (the tuple of Kraus
    families (n, d, d) run when the measure is taken first), two stacked
    builders, ``_afters`` (member v read after the front family u, for
    a list of pairs (u, v)) and ``_merges`` (the sum of each group of members,
    for parts), and the scalar ``_after`` (one member read after a channel, for
    conditionings). Hooks look module functions up per call, so a
    rebound module attribute (a tracer) is honoured."""

    def __post_init__(self):
        outcomes = tuple(map(_label, _sequence(self.outcomes, "outcome labels")))
        members = _sequence(getattr(self, self._field), "members")
        for u in members:
            _check_type(u, *self._type)
        if len(outcomes) != len(members) or not outcomes:
            raise DimensionError("need one member per outcome")
        if len(set(outcomes)) != len(outcomes):
            raise DimensionError(f"outcome labels are not unique: {outcomes}")
        if len({u.dim for u in members}) > 1:
            raise DimensionError("all members must share one dimension")
        total = sum(self._effect(u).op for u in members)
        if max_abs(total - matcore._identity(members[0].dim)) > OBS_SUM_TOL:
            raise self._sum_error("member effects do not sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, self._field, members)

    _members = property(lambda self: getattr(self, self._field))
    dim = property(lambda self: self._members[0].dim)

    def _member(self, outcome):
        if _label(outcome) not in self.outcomes:
            raise SeqmeasError(f"no outcome {outcome!r}")
        return self._members[self.outcomes.index(_label(outcome))]

    def items(self):
        return zip(self.outcomes, self._members)

    @cached_property
    def _channel(self) -> Operation:
        """The total channel of the front (``bar`` of an instrument): its Kraus
        families concatenated, built as one operation (``operations._built``)."""
        return op_mod._built(np.concatenate(self._front))


@dataclass(frozen=True, eq=False)
class Observable(_Measure):
    """Ordered outcome labels with one effect per outcome, summing to I."""

    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]

    _field = "effects"
    _type = (Effect, NotEffect)
    _sum_error = DimensionError
    _effect = staticmethod(lambda e: e)
    _distance = staticmethod(lambda u, v: max_abs(u.op - v.op))
    _merges = staticmethod(
        lambda groups: _computed(Effect, np.array([sum(e.op for e in effs) for effs in groups])))
    _after = staticmethod(lambda channel, e: op_mod.op_then_effect(channel, e))
    _afters = staticmethod(
        lambda pairs: _computed(Effect, np.array([op_mod._sandwich(u, e.op) for u, e in pairs])))
    _prob = staticmethod(lambda rho, e: prob(rho, e))

    # The Kraus families of the Lueders instrument, a_x^{1/2} . a_x^{1/2}: the roots.
    _front = property(lambda self: tuple(e.root[None] for e in self.effects))

    effect = _Measure._member


def _check_measures(*ms) -> None:
    """Every argument is a measure: an observable or an instrument."""
    for m in ms:
        _check_type(m, _Measure, NotMeasure, "an Observable or Instrument")


def _product(m: _Measure, n: _Measure) -> _Measure:
    """Run front family x of m, then read n_y: product outcomes, n's member type.
    All |X|·|Y| members are built and validated as one stack (``_afters``)."""
    _check_measures(m, n)
    matcore._check_same_operand_dim(m, n)
    items = _product_items(zip(m.outcomes, m._front), n.items())
    return type(n)(tuple(xy for xy, _, _ in items), n._afters([(u, v) for _, u, v in items]))


def _conditioned(n: _Measure, given: _Measure) -> _Measure:
    """n read after the whole front of ``given``: member y is n_y after its channel.

    Members are built one at a time (``_after``). The stacked ``_afters`` would
    build them bit for bit alike, but ``compose`` inside an instrument conditioning
    is the only call of ``compose`` in the benchmark's product-chains workload,
    whose coverage check requires one (ROADMAP item 1)."""
    _check_measures(given, n)
    matcore._check_same_operand_dim(given, n)
    return type(n)(n.outcomes, tuple(n._after(given._channel, v) for v in n._members))


def obs_equal(a: _Measure, b: _Measure, tol: float = OBS_SUM_TOL) -> bool:
    """Same outcome set (order-insensitive) and memberwise agreement within tol."""
    _check_measures(a, b)
    if set(a.outcomes) != set(b.outcomes) or a.dim != b.dim:
        return False
    return _member_distance(a, b) <= tol


def _member_distance(a: _Measure, b: _Measure) -> float:
    """The largest distance between a_x and b_x over the outcomes x of a, by the member
    distance (entrywise for effects, ``action_distance`` for operations)."""
    return max(a._distance(u, b._member(x)) for x, u in a.items())


def distribution(a: _Measure, rho: State) -> dict[str, float]:
    """Outcome distribution: x -> tr(rho a_x), or tr[I_x(rho)] for an instrument."""
    _check_measures(a)
    _check_type(rho, State, NotState)
    return {x: a._prob(rho, u) for x, u in a.items()}


def event_prob(a: Observable, rho: State, event) -> float:
    """Probability of a set of outcomes (the effect-valued measure is additive): the
    event is read as its distinct normalized labels, so a repeated outcome counts
    once, and the sum of their clamped probabilities is clamped to 1, which
    rounding can pass by an ulp. The state is checked against the measure even
    when the event is empty."""
    _check_measures(a)
    _check_type(rho, State, NotState)
    matcore._check_same_operand_dim(a, rho)
    labels = dict.fromkeys(map(_label, _sequence(event, "event labels")))
    return _probability(sum(a._prob(rho, a._member(x)) for x in labels))


def obs_seq_product(a: Observable, b: Observable) -> Observable:
    """Product observable a_x o b_y: the Lueders case L(a) o b of ``inst_then_obs``."""
    return _product(a, b)


def obs_conditioned(b: Observable, given: Observable) -> Observable:
    """b conditioned by a, y -> sum_x a_x o b_y: the Lueders case (b | L(a))."""
    return _conditioned(b, given)


def obs_part(a: _Measure, f) -> _Measure:
    """Coarse-graining along a surjection of outcomes: b_y merges the a_x with f(x) = y.

    ``f`` maps every outcome to a new label (any mapping type, keys and images
    normalized as labels); the image labels are the part's outcomes in
    first-appearance order. Effects add; operations concatenate their Kraus
    families. All groups are built as one stack (``_merges``)."""
    _check_measures(a)
    try:
        pairs = {(_label(x), _label(y)) for x, y in f.items()}
        mapping = dict(pairs)
        if len(mapping) < len(pairs):
            raise SeqmeasError(f"outcomes sent to two labels: {sorted(pairs - mapping.items())}")
        groups: dict[str, list] = {}
        for x, u in a.items():
            groups.setdefault(mapping[x], []).append(u)
    except (AttributeError, KeyError, TypeError) as exc:
        raise NotSurjective(f"relabeling is not total on the outcome set: {exc}") from None
    return type(a)(tuple(groups), a._merges(list(groups.values())))


def second_marginal_map(a: Observable, b: Observable) -> dict[str, str]:
    """The surjection (x, y) -> y on the product outcome set of a o b."""
    _check_measures(a, b)
    return {xy: y for xy, _, y in _product_items(zip(a.outcomes, a.outcomes),
                                                 zip(b.outcomes, b.outcomes))}


def first_marginal_map(a: Observable, b: Observable) -> dict[str, str]:
    """The surjection (x, y) -> x on the product outcome set of a o b."""
    _check_measures(a, b)
    return {xy: x for xy, x, _ in _product_items(zip(a.outcomes, a.outcomes),
                                                 zip(b.outcomes, b.outcomes))}


def verify_coexistence_witness(b: _Measure, c: _Measure, a: _Measure, f, g,
                               tol: float = OBS_SUM_TOL) -> bool:
    """True iff the parts of ``a`` along ``f`` and ``g`` reproduce ``b`` and ``c``, so
    one measure measures both (a part with the wrong outcome set fails)."""
    return obs_equal(obs_part(a, f), b, tol) and obs_equal(obs_part(a, g), c, tol)


def identity_observable(dim: int, outcome: str = "x") -> Observable:
    """The sure observable with a single outcome carrying the identity. I is its
    own root, so the root is filled in with no solve."""
    sure = Effect(matcore.identity(dim))
    return Observable((outcome,), _seeded((sure,), [sure.op]))


def random_observables(dim: int, rng: np.random.Generator, n: int,
                       n_outcomes=None) -> tuple[Observable, ...]:
    """n random POVMs, as n ``random_observable`` calls would draw them; the
    normalizers of all n, and the roots of all their effects, come from one
    stacked solve each. ``n_outcomes`` is one count for all, a sequence of n
    counts, or None (each drawn from {2, 3})."""
    grams, inv_roots = matcore._normalizing_draws(
        lambda k: (lambda g: g @ matcore._adjoint(g))(matcore._ginibres(dim, rng, k)),
        sum, matcore._counts(dim, n_outcomes, rng, 2, 4, "n_outcomes", n))
    effs = _with_roots(_computed(Effect, np.concatenate(
        [inv_root @ g @ inv_root for g, inv_root in zip(grams, inv_roots)])))
    return _labeled(Observable, effs, [len(g) for g in grams])


def _labeled(cls, members: tuple, counts: list[int]) -> tuple:
    """Measures of type ``cls`` with outcomes x0, x1, ...: measure k takes the next
    counts[k] members."""
    ends = np.cumsum(counts)
    return tuple(cls(tuple(f"x{j}" for j in range(k)), members[end - k:end])
                 for k, end in zip(counts, ends))


def random_observable(dim: int, rng: np.random.Generator,
                      n_outcomes: int | None = None) -> Observable:
    """Random POVM: Ginibre grams renormalized to sum to the identity."""
    return random_observables(dim, rng, 1, n_outcomes)[0]


def projective_observable(dim: int, rng: np.random.Generator) -> Observable:
    """Random sharp observable: rank-one eigenprojections of a random unitary. A
    projection is its own root, so the roots are filled in with no solve."""
    u = matcore.random_unitary(dim, rng)
    effs = _computed(Effect, np.array([np.outer(u[:, k], u[:, k].conj()) for k in range(dim)]))
    return _labeled(Observable, _seeded(effs, [e.op for e in effs]), [dim])[0]

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmeas import effects, instruments as inst, matcore, observables as obs, operations as ops, serialize
from seqmeas.effects import Effect
from seqmeas.errors import SeqmeasError

ROUND_TRIP_TOL = 1e-12


def through_json(data):
    return json.loads(json.dumps(data))


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = serialize.matrix_from_json(through_json(serialize.matrix_to_json(m)))
    assert np.array_equal(back, m)  # doubles survive JSON exactly


def test_effect_and_state_round_trip():
    rng = np.random.default_rng(1)
    a = effects.random_effect(3, rng)
    back = serialize.effect_from_json(through_json(serialize.effect_to_json(a)))
    assert matcore.max_abs(back.op - a.op) <= ROUND_TRIP_TOL
    rho = effects.random_state(3, rng)
    back = serialize.state_from_json(through_json(serialize.state_to_json(rho)))
    assert matcore.max_abs(back.op - rho.op) <= ROUND_TRIP_TOL


@pytest.mark.parametrize("build", [
    lambda rng: ops.random_operation(2, rng),
    lambda rng: ops.luders(effects.random_effect(2, rng)),
    lambda rng: ops.trivial(effects.random_effect(2, rng), effects.random_state(2, rng)),
    lambda rng: ops.semi_trivial([
        (Effect(0.4 * effects.random_effect(2, rng).op), effects.random_state(2, rng)),
        (Effect(0.4 * effects.random_effect(2, rng).op), effects.random_state(2, rng)),
    ]),
    lambda rng: ops.sharp_operation([np.diag([1.0, 0.0]).astype(complex),
                                     np.diag([0.0, 1.0]).astype(complex)]),
])
def test_operation_round_trip(build):
    rng = np.random.default_rng(2)
    op = build(rng)
    data = through_json(serialize.operation_to_json(op))
    back = serialize.operation_from_json(data)
    assert ops.action_equal(back, op, tol=ROUND_TRIP_TOL)


def test_compressed_operation_round_trip_is_a_fixed_point():
    rng = np.random.default_rng(6)
    chan = ops.random_channel(3, rng, n_kraus=3)
    op = ops.compose(ops.compose(chan, chan), chan)  # 27 products, compressed to 9
    assert op.n_kraus == 9
    data = through_json(serialize.operation_to_json(op))
    back = serialize.operation_from_json(data)
    assert np.array_equal(back.kraus, op.kraus)
    assert through_json(serialize.operation_to_json(back)) == data


def test_operation_kinds_in_json():
    rng = np.random.default_rng(3)
    a = effects.random_effect(2, rng)
    assert serialize.operation_to_json(ops.luders(a))["kind"] == "luders"
    alpha = effects.random_state(2, rng)
    assert serialize.operation_to_json(ops.trivial(a, alpha))["kind"] == "trivial"
    assert serialize.operation_to_json(ops.random_operation(2, rng))["kind"] == "kraus"


def test_observable_round_trip():
    rng = np.random.default_rng(4)
    a = obs.random_observable(3, rng)
    back = serialize.observable_from_json(through_json(serialize.observable_to_json(a)))
    assert obs.obs_equal(back, a, tol=ROUND_TRIP_TOL)
    assert back.outcomes == a.outcomes


def test_instrument_round_trip():
    rng = np.random.default_rng(5)
    i = inst.random_instrument(2, rng)
    back = serialize.instrument_from_json(through_json(serialize.instrument_to_json(i)))
    assert inst.inst_equal(back, i, tol=ROUND_TRIP_TOL)
    li = inst.luders_instrument(obs.random_observable(2, rng))
    back = serialize.instrument_from_json(through_json(serialize.instrument_to_json(li)))
    assert inst.inst_equal(back, li, tol=ROUND_TRIP_TOL)


def test_typed_round_trip():
    rng = np.random.default_rng(6)
    objects = [
        effects.random_effect(2, rng),
        effects.random_state(2, rng),
        ops.random_operation(2, rng),
        obs.random_observable(2, rng),
        inst.random_instrument(2, rng),
    ]
    for obj in objects:
        data = through_json(serialize.typed_to_json(obj))
        back = serialize.typed_from_json(data)
        assert type(back) is type(obj)


def test_bad_json_raises():
    with pytest.raises(SeqmeasError):
        serialize.matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(SeqmeasError):
        serialize.operation_from_json({"kind": "mystery"})
    with pytest.raises(SeqmeasError):
        serialize.typed_from_json({"type": "widget"})


def _sharp(d, rng):
    """A sharp operation over a random split of a random basis into two blocks."""
    u = matcore.random_unitary(d, rng)
    k = int(rng.integers(1, d))
    return ops.sharp_operation([u[:, :k] @ u[:, :k].conj().T, u[:, k:] @ u[:, k:].conj().T])


def _halves(d, rng):
    """Two random effects summing below the identity, each paired with a random state."""
    return [(Effect(effects.random_effect(d, rng).op / 2), effects.random_state(d, rng))
            for _ in range(2)]


# One builder per JSON form the round-trip property covers: every type tag and
# every operation kind, a compressed "kraus" family among them.
ROUND_TRIP_BUILDERS = {
    "effect": effects.random_effect,
    "state": effects.random_state,
    "kraus": ops.random_operation,
    "kraus-compressed": lambda d, rng: ops.compose(ops.random_channel(d, rng, n_kraus=d + 1),
                                                   ops.random_channel(d, rng, n_kraus=d)),
    "luders": lambda d, rng: ops.luders(effects.random_effect(d, rng)),
    "trivial": lambda d, rng: ops.trivial(effects.random_effect(d, rng),
                                          effects.random_state(d, rng)),
    "semi_trivial": lambda d, rng: ops.semi_trivial(_halves(d, rng)),
    "sharp": _sharp,
    "atomic": lambda d, rng: ops.atomic_operation(list(matcore.random_unitary(d, rng).T)),
    "observable": obs.random_observable,
    "luders-instrument": lambda d, rng: inst.luders_instrument(obs.random_observable(d, rng, 2)),
    "random-instrument": inst.random_instrument,
    "semi-trivial-instrument": lambda d, rng: inst.semi_trivial_instrument(
        obs.random_observable(d, rng, 2), [effects.random_state(d, rng) for _ in range(2)]),
}


# 20 derandomized examples reach every dim 2-8 for each form.
@pytest.mark.parametrize("form", sorted(ROUND_TRIP_BUILDERS))
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_json_round_trip_is_a_fixed_point(form, dim, seed):
    data = through_json(serialize.typed_to_json(
        ROUND_TRIP_BUILDERS[form](dim, np.random.default_rng(seed))))
    assert through_json(serialize.typed_to_json(serialize.typed_from_json(data))) == data


def test_operation_kind_table_matches_the_recipes():
    # Each structured constructor stores exactly its kind's JSON fields, and the
    # table knows exactly "kraus" and the recipe kinds the library writes.
    rng = np.random.default_rng(8)
    a, alpha = effects.random_effect(2, rng), effects.random_state(2, rng)
    observable = obs.random_observable(2, rng, 2)
    built = [ops.luders(a), ops.trivial(a, alpha), ops.semi_trivial(_halves(2, rng)),
             _sharp(2, rng), ops.atomic_operation(list(np.eye(2))),
             *inst.luders_instrument(observable).ops,
             *inst.semi_trivial_instrument(observable, [alpha, alpha]).ops]
    table = ops._RECIPE_KINDS
    for op in built:
        assert set(op.recipe) - {"kind"} == set(table[op.recipe["kind"]][1])
    for kind, (constructor, fields) in table.items():
        params = inspect.signature(getattr(ops, constructor)).parameters.values()
        assert len([p for p in params if p.default is p.empty]) == len(fields), kind
    src = Path(serialize.__file__).parent
    written = {kind for path in src.glob("*.py") if path.name != "serialize.py"
               for kind in re.findall(r'"kind": "(\w+)"', path.read_text(encoding="utf-8"))}
    assert written == {op.recipe["kind"] for op in built}
    assert set(table) == {"kraus"} | written


def test_forged_recipe_is_refused():
    # a recipe that builds another map than the family it comes with would be
    # written as that map: the identity channel claimed as the Lueders map of I/2
    # read back at action distance 0.5
    rng = np.random.default_rng(9)
    half = Effect(np.eye(2) / 2)
    forged = [{"kind": "luders", "effect": half},
              {"kind": "kraus", "operators": ops.luders(half).kraus},
              {"kind": "trivial", "effect": half, "state": effects.random_state(2, rng)},
              {"kind": "sharp", "projections": [np.diag([1.0, 0.0])]},
              {"kind": "luders"}, {"kind": "custom"}, "luders"]
    for recipe in forged:
        with pytest.raises(SeqmeasError):
            ops.Operation(np.eye(2)[None], recipe=recipe)


def test_caller_recipe_is_checked_and_copied():
    rng = np.random.default_rng(10)
    a = effects.random_effect(3, rng)
    pairs = _halves(3, rng)
    recipes = [{"kind": "luders", "effect": a}, {"kind": "semi_trivial", "pairs": pairs},
               {"kind": "kraus", "operators": ops.luders(a).kraus}]
    built = [ops.Operation(family, recipe=recipe) for family, recipe in zip(
        [ops.luders(a).kraus, ops.semi_trivial(pairs).kraus, ops.luders(a).kraus], recipes)]
    written = [serialize.typed_to_json(op) for op in built]
    # later changes to the caller's dicts and lists do not reach the JSON form
    recipes[0]["effect"] = effects.unit_effect(3)
    pairs.append(pairs[0])
    recipes[2]["kind"] = "luders"
    assert [serialize.typed_to_json(op) for op in built] == written
    assert [w["kind"] for w in written] == ["luders", "semi_trivial", "kraus"]
    for op, data in zip(built, written):
        assert ops.action_distance(serialize.typed_from_json(through_json(data)), op) <= 1e-12


def test_library_recipes_are_not_rebuilt(monkeypatch):
    checked = []
    monkeypatch.setattr(ops, "_checked_recipe", checked.append)
    rng = np.random.default_rng(11)
    a, alpha = effects.random_effect(2, rng), effects.random_state(2, rng)
    observable = obs.random_observable(2, rng, 2)
    built = [ops.luders(a), ops.trivial(a, alpha), ops.semi_trivial(_halves(2, rng)),
             _sharp(2, rng), ops.atomic_operation(list(np.eye(2))),
             *inst.luders_instrument(observable).ops,
             *inst.semi_trivial_instrument(observable, [alpha, alpha]).ops]
    for op in built:
        serialize.typed_from_json(through_json(serialize.typed_to_json(op)))
    assert checked == []


@pytest.mark.parametrize("field, value", [
    ("dim", 2.7), ("dim", "2"), ("dim", True), ("dim", 2.0),
    ("re", [["0.5", 0], [0, 0.5]]), ("re", [[0.5, 0], [0, True]]), ("im", [[0, None], [0, 0]]),
    ("im", ["00", "00"]), ("re", [0.5, 0.5]),
])
def test_matrix_json_reads_only_json_numbers(field, value):
    data = serialize.matrix_to_json(np.eye(2) / 2)
    data[field] = value
    with pytest.raises(SeqmeasError, match="bad matrix JSON"):
        serialize.matrix_from_json(through_json(data))
    # integers are numbers, and the encoder's own output reads back
    data = serialize.matrix_to_json(np.eye(2) / 2)
    data["re"] = [[1, 0], [0, 0]]
    assert np.array_equal(serialize.matrix_from_json(through_json(data)), np.diag([1.0, 0.0]))

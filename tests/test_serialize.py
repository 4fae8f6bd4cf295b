import json

import numpy as np
import pytest

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

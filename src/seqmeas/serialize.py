"""JSON encoding and decoding for every domain object.

Matrices (and effects/states) serialize as {"dim": n, "re": [[..]], "im": [[..]]}
with row-major exact doubles. Operations serialize by constructor kind when one
is known ("luders", "trivial", "semi_trivial", "sharp") and as a raw "kraus"
operator list otherwise; both forms parse back. Observables are
{"outcomes": [...], "effects": [...]}, instruments {"outcomes": [...], "ops": [...]}.
"""

from __future__ import annotations

import numpy as np

from . import matcore, operations as op_mod
from .effects import Effect, State
from .errors import SeqmeasError
from .instruments import Instrument
from .observables import Observable
from .operations import Operation


def matrix_to_json(m: np.ndarray) -> dict:
    arr = matcore.as_square(m)
    return {
        "dim": arr.shape[0],
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SeqmeasError(f"bad matrix JSON: {exc}") from None
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise SeqmeasError(f"matrix JSON arrays are not {dim}x{dim}")
    # JSON parsers accept NaN and Infinity; reject them before any arithmetic.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise SeqmeasError("matrix JSON has non-finite entries")
    return re + 1j * im


def effect_to_json(a: Effect) -> dict:
    return matrix_to_json(a.op)


def effect_from_json(data: dict) -> Effect:
    return Effect(matrix_from_json(data))


def state_to_json(rho: State) -> dict:
    return matrix_to_json(rho.op)


def state_from_json(data: dict) -> State:
    return State(matrix_from_json(data))


def operation_to_json(op: Operation) -> dict:
    recipe = op.recipe
    if recipe is None:
        return {"kind": "kraus", "operators": [matrix_to_json(k) for k in op.kraus]}
    kind = recipe["kind"]
    if kind == "luders":
        return {"kind": "luders", "effect": effect_to_json(recipe["effect"])}
    if kind == "trivial":
        return {
            "kind": "trivial",
            "effect": effect_to_json(recipe["effect"]),
            "state": state_to_json(recipe["state"]),
        }
    if kind == "semi_trivial":
        return {
            "kind": "semi_trivial",
            "pairs": [
                {"effect": effect_to_json(a), "state": state_to_json(alpha)}
                for a, alpha in recipe["pairs"]
            ],
        }
    if kind == "sharp":
        return {"kind": "sharp", "projections": [matrix_to_json(p) for p in recipe["projections"]]}
    return {"kind": "kraus", "operators": [matrix_to_json(k) for k in op.kraus]}


def _matrix_list_from_json(data: list) -> np.ndarray:
    """A nonempty list of matrices of one dim, stacked into (n, dim, dim)."""
    return matcore._read([matrix_from_json(m) for m in data], "operator list JSON", (3,))


def operation_from_json(data: dict) -> Operation:
    try:
        kind = data["kind"]
        if kind == "kraus":
            return Operation(_matrix_list_from_json(data["operators"]))
        if kind == "luders":
            return op_mod.luders(effect_from_json(data["effect"]))
        if kind == "trivial":
            return op_mod.trivial(effect_from_json(data["effect"]),
                                  state_from_json(data["state"]))
        if kind == "semi_trivial":
            pairs = [
                (effect_from_json(p["effect"]), state_from_json(p["state"]))
                for p in data["pairs"]
            ]
            return op_mod.semi_trivial(pairs)
        if kind == "sharp":
            return op_mod.sharp_operation(_matrix_list_from_json(data["projections"]))
    except (KeyError, TypeError) as exc:
        raise SeqmeasError(f"bad operation JSON: {exc}") from None
    raise SeqmeasError(f"unknown operation kind {kind!r}")


def observable_to_json(a: Observable) -> dict:
    return {
        "outcomes": list(a.outcomes),
        "effects": [effect_to_json(e) for e in a.effects],
    }


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a JSON list")
    return value


def observable_from_json(data: dict) -> Observable:
    try:
        outcomes = tuple(str(x) for x in _json_list(data, "outcomes"))
        effs = tuple(effect_from_json(e) for e in _json_list(data, "effects"))
    except (KeyError, TypeError) as exc:
        raise SeqmeasError(f"bad observable JSON: {exc}") from None
    return Observable(outcomes, effs)


def instrument_to_json(i: Instrument) -> dict:
    return {
        "outcomes": list(i.outcomes),
        "ops": [operation_to_json(o) for o in i.ops],
    }


def instrument_from_json(data: dict) -> Instrument:
    try:
        outcomes = tuple(str(x) for x in _json_list(data, "outcomes"))
        members = tuple(operation_from_json(o) for o in _json_list(data, "ops"))
    except (KeyError, TypeError) as exc:
        raise SeqmeasError(f"bad instrument JSON: {exc}") from None
    return Instrument(outcomes, members)


TYPED_PARSERS = {
    "effect": effect_from_json,
    "state": state_from_json,
    "operation": operation_from_json,
    "observable": observable_from_json,
    "instrument": instrument_from_json,
}

TYPED_ENCODERS = {
    Effect: ("effect", effect_to_json),
    State: ("state", state_to_json),
    Operation: ("operation", operation_to_json),
    Observable: ("observable", observable_to_json),
    Instrument: ("instrument", instrument_to_json),
}


def typed_from_json(data: dict):
    """Parse an object carrying an explicit {"type": ...} tag (scenario files)."""
    if not isinstance(data, dict):
        raise SeqmeasError(f"object JSON must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    parser = TYPED_PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise SeqmeasError(f"unknown object type {kind!r}")
    return parser(data)


def typed_to_json(obj) -> dict:
    entry = TYPED_ENCODERS.get(type(obj))
    if entry is None:
        raise SeqmeasError(f"cannot serialize {type(obj).__name__}")
    tag, encoder = entry
    return {"type": tag, **encoder(obj)}


def to_json(value):
    """JSON form of a query result or witness value.

    Domain objects become typed JSON, matrices matrix JSON and numpy scalars
    floats; everything else (Python scalars, strings, dicts of them) passes
    through unchanged.
    """
    if type(value) in TYPED_ENCODERS:
        return typed_to_json(value)
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value

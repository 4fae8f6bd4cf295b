"""JSON encoding and decoding for every domain object, as tables.

Each JSON form is stated once and both directions read it:

* A matrix is {"dim": n, "re": [[..]], "im": [[..]]} with row-major exact
  doubles; an effect or a state is its matrix.
* An operation is {"kind": k, <field>: ..., ...}. ``operations._RECIPE_KINDS``
  maps each kind to the ``operations`` constructor that builds it and its
  fields in argument order, and ``_FIELDS`` maps each field to the encoder and
  decoder of its value. A structured constructor's ``recipe`` stores its
  arguments under these field names, so an operation with a known recipe is
  written as that kind and read back through the same constructor; a recipe a
  caller passes to ``Operation`` is checked against the family there. Any other
  operation is written as "kraus", its raw operator list.
* A measure is {"outcomes": [...], <member field>: [...]}: "effects" for an
  observable, "ops" for an instrument (``_Measure._field``), each member in
  its own type's form.
* A typed object adds {"type": tag}; ``_TYPES`` holds each class, its tag and
  its codec, and ``TYPED_PARSERS`` and ``TYPED_ENCODERS`` are read off it.

A scenario file's objects are decoded inside ``_decoding_once``: objects that
repeat a matrix (an effect and the Lueders operation, trivial operation or
observable built over it, say) share one decoded effect or state, validated
once; an effect's root, which Lueders operations and sequential products read,
is then solved at most once. Nothing is kept from one scenario file to the
next, and outside that block every decode builds a new object.

``to_json`` writes query results and law witnesses; ``_from_json`` reads them
back: a dict with a "type" key is typed JSON, any other dict matrix JSON.
"""

from __future__ import annotations

import contextlib
import itertools
from contextvars import ContextVar

import numpy as np

from . import matcore, operations as op_mod
from .effects import Effect, State
from .errors import SeqmeasError
from .instruments import Instrument
from .observables import Observable
from .operations import Operation


# The types ``json`` reads a number as (a bool is neither).
_JSON_NUMBERS = frozenset({int, float})


def matrix_to_json(m: np.ndarray) -> dict:
    arr = matcore.as_square(m)
    return {
        "dim": arr.shape[0],
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    """The matrix of matrix JSON. ``dim`` must be an integer and every ``re`` and
    ``im`` entry a number, as JSON writes them: a bool or a string is not read as
    a number."""
    try:
        dim, rows = data["dim"], (data["re"], data["im"])
        if type(dim) is not int:
            raise TypeError(f"dim must be an integer, got {dim!r}")
        entries = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
        if not _JSON_NUMBERS.issuperset(map(type, entries)):
            raise TypeError("re and im must be lists of rows of numbers")
        re, im = (np.asarray(part, dtype=float) for part in rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise SeqmeasError(f"bad matrix JSON: {exc}") from None
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise SeqmeasError(f"matrix JSON arrays are not {dim}x{dim}")
    # JSON parsers accept NaN and Infinity; reject them before any arithmetic.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise SeqmeasError("matrix JSON has non-finite entries")
    return re + 1j * im


# The effects and states decoded so far in one scenario, keyed by (class, shape,
# bytes of the decoded matrix); None, the default, outside ``_decoding_once``.
_decoded: ContextVar[dict | None] = ContextVar("_decoded", default=None)


@contextlib.contextmanager
def _decoding_once():
    """Within the block, every effect or state decoded from the same matrix is one
    instance, validated once, and an effect's root is solved at most once; the
    memo is dropped when the block ends."""
    token = _decoded.set({})
    try:
        yield
    finally:
        _decoded.reset(token)


def _operator_codec(cls):
    """Encoder and decoder of a class holding one matrix, ``op``, written as its matrix.

    Inside ``_decoding_once`` the decoder returns the instance already decoded
    from the same matrix, if any; the instances are frozen, so sharing one is
    the same as building it again."""
    def from_json(data: dict):
        m = matrix_from_json(data)
        memo = _decoded.get()
        if memo is None:
            return cls(m)
        key = (cls, m.shape, m.tobytes())
        if key not in memo:
            memo[key] = cls(m)
        return memo[key]

    return (lambda x: matrix_to_json(x.op)), from_json


effect_to_json, effect_from_json = _operator_codec(Effect)
state_to_json, state_from_json = _operator_codec(State)


def _matrix_list_from_json(data: list) -> np.ndarray:
    """A nonempty list of matrices of one dim, stacked into (n, dim, dim)."""
    return matcore._read([matrix_from_json(m) for m in data], "operator list JSON", (3,))


def _fields_to_json(names, values) -> dict:
    return {name: _FIELDS[name][0](value) for name, value in zip(names, values)}


def _fields_from_json(names, data: dict) -> list:
    return [_FIELDS[name][1](data[name]) for name in names]


_MATRIX_LIST = (lambda mats: [matrix_to_json(m) for m in mats], _matrix_list_from_json)

# Each operation field: (encoder, decoder) of its JSON value. A semi-trivial
# pair is written as the fields of the trivial operation it stands for.
_PAIR_FIELDS = op_mod._RECIPE_KINDS["trivial"][1]
_FIELDS = {
    "operators": _MATRIX_LIST,
    "projections": _MATRIX_LIST,
    "effect": (effect_to_json, effect_from_json),
    "state": (state_to_json, state_from_json),
    "pairs": (lambda pairs: [_fields_to_json(_PAIR_FIELDS, p) for p in pairs],
              lambda data: [tuple(_fields_from_json(_PAIR_FIELDS, p)) for p in data]),
}


def operation_to_json(op: Operation) -> dict:
    recipe = op.recipe or {"kind": "kraus", "operators": op.kraus}
    kind = recipe["kind"]
    names = op_mod._RECIPE_KINDS[kind][1]
    return {"kind": kind, **_fields_to_json(names, [recipe[name] for name in names])}


def operation_from_json(data: dict) -> Operation:
    try:
        kind = data["kind"]
        entry = op_mod._RECIPE_KINDS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise SeqmeasError(f"unknown operation kind {kind!r}")
        constructor, names = entry
        return getattr(op_mod, constructor)(*_fields_from_json(names, data))
    except (KeyError, TypeError) as exc:
        raise SeqmeasError(f"bad operation JSON: {exc}") from None


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a JSON list")
    return value


def _measure_codec(cls, member_to_json, member_from_json):
    """Encoder and decoder of a measure class whose members have the given codec."""
    def to_json(m) -> dict:
        return {"outcomes": list(m.outcomes), cls._field: [member_to_json(u) for u in m._members]}

    def from_json(data: dict):
        try:
            outcomes = tuple(str(x) for x in _json_list(data, "outcomes"))
            members = tuple(member_from_json(u) for u in _json_list(data, cls._field))
        except (KeyError, TypeError) as exc:
            raise SeqmeasError(f"bad {cls.__name__.lower()} JSON: {exc}") from None
        return cls(outcomes, members)

    return to_json, from_json


observable_to_json, observable_from_json = _measure_codec(Observable, effect_to_json,
                                                          effect_from_json)
instrument_to_json, instrument_from_json = _measure_codec(Instrument, operation_to_json,
                                                          operation_from_json)

# Each typed JSON form: (class, "type" tag, encoder, decoder).
_TYPES = (
    (Effect, "effect", effect_to_json, effect_from_json),
    (State, "state", state_to_json, state_from_json),
    (Operation, "operation", operation_to_json, operation_from_json),
    (Observable, "observable", observable_to_json, observable_from_json),
    (Instrument, "instrument", instrument_to_json, instrument_from_json),
)

TYPED_PARSERS = {tag: decode for _, tag, _, decode in _TYPES}

TYPED_ENCODERS = {cls: (tag, encode) for cls, tag, encode, _ in _TYPES}


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


def _from_json(value):
    """Inverse of ``to_json`` (law witnesses): typed JSON becomes an object, matrix
    JSON an array, and anything else passes through."""
    if not isinstance(value, dict):
        return value
    return (typed_from_json if "type" in value else matrix_from_json)(value)

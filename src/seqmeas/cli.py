"""Command-line front end.

``seqmeas check`` runs registered law checks and reports pass/fail;
``seqmeas eval`` evaluates queries over named objects from a JSON scenario
file. Exit codes: 0 all good, 1 law failures, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import effects, instruments as inst_mod, laws, observables as obs_mod, operations as op_mod
from . import serialize
from .effects import Effect, State
from .errors import SeqmeasError
from .instruments import Instrument
from .matcore import EQ_TOL, PSD_TOL
from .observables import Observable
from .operations import Operation

SEED_ENV_VAR = "SEQMEAS_SEED"


def _default_seed() -> int:
    """The seed from $SEQMEAS_SEED, or the default; a non-integer raises ValueError."""
    raw = os.environ.get(SEED_ENV_VAR)
    return laws.DEFAULT_SEED if raw is None else int(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential products of quantum measurements: law checker and evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run law checks")
    check.add_argument("--law", default="all", help="law id or 'all'")
    check.add_argument("--dims", default=None,
                       help="comma-separated dimensions (default: per-law)")
    check.add_argument("--trials", type=int, default=None,
                       help="trials per dimension (default: per-law)")
    check.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or {laws.DEFAULT_SEED})")
    check.add_argument("--eq-tol", type=float, default=EQ_TOL,
                       help="operator-equality tolerance (max norm) of the laws without a "
                            "fixed tolerance, and of eq-1.1's representation independence")
    check.add_argument("--psd-tol", type=float, default=PSD_TOL,
                       help="cone-membership tolerance of thm-2.4ii's Loewner comparisons; "
                            "constructors and certificates keep PSD_TOL")
    check.add_argument("--gap", type=float, default=laws.DEFAULT_GAP,
                       help="violation threshold for counterexample checks")
    check.add_argument("--format", choices=("text", "json"), default="text")

    ev = sub.add_parser("eval", help="evaluate a JSON scenario file")
    ev.add_argument("scenario", help="path to the scenario JSON file")
    return parser


def cmd_check(args) -> int:
    try:
        seed = args.seed if args.seed is not None else _default_seed()
    except ValueError:
        print(f"error: bad ${SEED_ENV_VAR} value {os.environ[SEED_ENV_VAR]!r}", file=sys.stderr)
        return 2
    dims = None
    if args.dims is not None:
        try:
            dims = tuple(int(d) for d in str(args.dims).split(","))
        except ValueError:
            print(f"error: bad --dims value {args.dims!r}", file=sys.stderr)
            return 2
    kwargs = dict(dims=dims, trials=args.trials, seed=seed,
                  eq_tol=args.eq_tol, psd_tol=args.psd_tol, gap=args.gap)
    try:
        if args.law == "all":
            reports = laws.run_all(**kwargs)
        else:
            reports = [laws.run_law(args.law, **kwargs)]
    except SeqmeasError as exc:  # an unknown law, or a bad tolerance or gap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(laws.report_jsonl(reports))
    else:
        print(laws.report_lines(reports))
    return 0 if all(r.ok for r in reports) else 1


def _load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None


class ScenarioError(SeqmeasError):
    pass


def _parse_objects(raw: dict) -> dict:
    """Decode a scenario's objects; those that repeat a matrix share one decoded
    effect or state (``serialize._decoding_once``)."""
    objects = {}
    with serialize._decoding_once():
        for name, data in raw.items():
            try:
                objects[name] = serialize.typed_from_json(data)
            except SeqmeasError as exc:
                raise ScenarioError(f"object {name!r}: {exc}") from None
    dims = {obj.dim for obj in objects.values()}
    if len(dims) > 1:
        raise ScenarioError(f"objects live on different dimensions: {sorted(dims)}")
    return objects


def _resolve(objects: dict, query: dict, key: str):
    name = query.get(key)
    if not isinstance(name, str) or name not in objects:
        raise ScenarioError(f"query field {key!r} does not name a scenario object: {name!r}")
    return objects[name]


# query -> (object fields, dict fields, {operand types: (module, function name)}).
# The operands, then the dict fields, are passed positionally in field order.
# Functions are looked up on their module at call time, never stored, so a
# rebinding of the module attribute (a tracer, a test double) is honoured.
QUERIES = {
    "hat": (("of",), (), {(Operation,): (op_mod, "hat")}),
    "apply": (("op", "state"), (), {(Operation, State): (op_mod, "apply")}),
    "seq_product": (("a", "b"), (), {(Effect, Effect): (effects, "seq_product")}),
    "complement": (("of",), (), {(Effect,): (effects, "complement")}),
    "perp": (("a", "b"), (), {(Effect, Effect): (effects, "perp")}),
    "prob": (("state", "effect"), (), {(State, Effect): (effects, "prob")}),
    "cond_prob": (("state", "effect", "given"), (),
                  {(State, Effect, Effect): (effects, "cond_prob")}),
    "is_channel": (("of",), (), {(Operation,): (op_mod, "is_channel")}),
    "compose": (("first", "then"), (), {(Operation, Operation): (op_mod, "compose")}),
    "equiv": (("a", "b"), (), {(Operation, Operation): (op_mod, "equiv")}),
    "op_then_effect": (("op", "effect"), (),
                       {(Operation, Effect): (op_mod, "op_then_effect")}),
    "effect_then_op": (("effect", "op"), (),
                       {(Effect, Operation): (op_mod, "effect_then_op")}),
    "distribution": (("of", "state"), (), {(Observable, State): (obs_mod, "distribution"),
                                           (Instrument, State): (inst_mod, "distribution")}),
    "obs_seq_product": (("a", "b"), (),
                        {(Observable, Observable): (obs_mod, "obs_seq_product")}),
    "conditioned": (("of", "given"), (), {
        (Observable, Observable): (obs_mod, "obs_conditioned"),
        (Instrument, Instrument): (inst_mod, "inst_conditioned"),
        (Instrument, Observable): (inst_mod, "inst_conditioned_on_obs"),
        (Observable, Instrument): (inst_mod, "obs_conditioned_on_inst"),
    }),
    "measured_observable": (("of",), (), {(Instrument,): (inst_mod, "measured_observable")}),
    "bar": (("of",), (), {(Instrument,): (inst_mod, "bar")}),
    "part": (("of",), ("map",), {(Observable,): (obs_mod, "obs_part"),
                                 (Instrument,): (inst_mod, "inst_part")}),
    "coexist-witness": (("left", "right", "joint"), ("f", "g"), {
        (Observable,) * 3: (obs_mod, "verify_coexistence_witness"),
        (Instrument,) * 3: (inst_mod, "verify_inst_coexistence_witness"),
    }),
}


def _eval_query(objects: dict, query: dict):
    """Resolve a query's operands, pick the row for their types and call it."""
    kind = query.get("query")
    if not isinstance(kind, str) or kind not in QUERIES:
        raise ScenarioError(f"unknown query {kind!r}")
    fields, dict_fields, rows = QUERIES[kind]
    operands = [_resolve(objects, query, key) for key in fields]
    row = rows.get(tuple(type(obj) for obj in operands))
    if row is None:
        got = ", ".join(type(obj).__name__ for obj in operands)
        raise ScenarioError(f"{kind} does not accept operand types ({got})")
    for key in dict_fields:
        if not isinstance(query.get(key), dict):
            raise ScenarioError(f"{kind} requires a {key!r} object of outcome relabelings")
    module, name = row
    return getattr(module, name)(*operands, *(query[key] for key in dict_fields))


def cmd_eval(args) -> int:
    # Evaluate everything first: structural problems (bad JSON, unresolved
    # names, unknown queries) abort with exit 2 before anything is printed;
    # runtime failures (e.g. conditioning on a null event) become per-query
    # error objects with exit 0.
    try:
        scenario = _load_scenario(args.scenario)
        if not isinstance(scenario, dict):
            raise ScenarioError("scenario must be a JSON object")
        raw_objects = scenario.get("objects", {})
        if not isinstance(raw_objects, dict):
            raise ScenarioError("'objects' must map names to typed objects")
        objects = _parse_objects(raw_objects)
        declared = scenario.get("dim")
        if declared is not None and (not isinstance(declared, int) or isinstance(declared, bool)):
            raise ScenarioError(f"'dim' must be an integer, got {declared!r}")
        if declared is not None and objects:
            actual = next(iter(objects.values())).dim
            if declared != actual:
                raise ScenarioError(f"declared dim {declared} but objects have dim {actual}")
        queries = scenario.get("queries", [])
        if not isinstance(queries, list):
            raise ScenarioError("'queries' must be a list")
        lines = []
        for idx, query in enumerate(queries):
            if not isinstance(query, dict) or "query" not in query:
                raise ScenarioError(f"query #{idx} is not an object with a 'query' field")
            try:
                value = _eval_query(objects, query)
                lines.append(json.dumps({"query": query, "result": serialize.to_json(value)}))
            except ScenarioError as exc:
                raise ScenarioError(f"query #{idx}: {exc}") from None
            except SeqmeasError as exc:
                lines.append(json.dumps({"query": query, "error": str(exc)}))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return cmd_check(args) if args.command == "check" else cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())

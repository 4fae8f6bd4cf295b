"""Command-line front end.

``seqmeas check`` runs registered law checks and reports pass/fail;
``seqmeas eval`` evaluates queries over named objects from a JSON scenario
file. Exit codes: 0 all good, 1 law failures, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import effects, instruments as inst_mod, laws, observables as obs_mod, operations as op_mod
from . import serialize
from .effects import Effect, State
from .errors import SeqmeasError, UnknownLaw
from .instruments import Instrument
from .matcore import EQ_TOL, PSD_TOL
from .observables import Observable
from .operations import Operation

SEED_ENV_VAR = "SEQMEAS_SEED"


def _default_seed() -> int:
    """The seed from $SEQMEAS_SEED, or the default; a non-integer raises ValueError."""
    raw = os.environ.get(SEED_ENV_VAR)
    return laws.DEFAULT_SEED if raw is None else int(raw)


def build_parser() -> argparse.ArgumentParser:
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
                       help="operator-equality tolerance (max norm)")
    check.add_argument("--psd-tol", type=float, default=PSD_TOL,
                       help="cone-membership tolerance")
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
    if args.dims:
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
    except UnknownLaw as exc:
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
    objects = {}
    for name, data in raw.items():
        try:
            objects[name] = serialize.typed_from_json(data)
        except SeqmeasError as exc:
            raise ScenarioError(f"object {name!r}: {exc}") from None
    dims = {obj.dim for obj in objects.values()}
    if len(dims) > 1:
        raise ScenarioError(f"objects live on different dimensions: {sorted(dims)}")
    return objects


def _resolve(objects: dict, query: dict, key: str, want=None):
    name = query.get(key)
    if not isinstance(name, str) or name not in objects:
        raise ScenarioError(f"query field {key!r} does not name a scenario object: {name!r}")
    obj = objects[name]
    if want is not None and not isinstance(obj, want):
        raise ScenarioError(
            f"query field {key!r} expects {want.__name__}, got {type(obj).__name__}")
    return obj


def _result_json(value):
    if isinstance(value, (Effect, State, Operation, Observable, Instrument)):
        return serialize.typed_to_json(value)
    if isinstance(value, np.ndarray):
        return serialize.matrix_to_json(value)
    if isinstance(value, dict):
        return value
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ScenarioError(f"unserializable result {type(value).__name__}")


def _eval_query(objects: dict, query: dict):
    kind = query.get("query")
    if kind == "hat":
        return op_mod.hat(_resolve(objects, query, "of", Operation))
    if kind == "apply":
        out = op_mod.apply(_resolve(objects, query, "op", Operation),
                           _resolve(objects, query, "state", State))
        return serialize.matrix_to_json(out)
    if kind == "seq_product":
        return effects.seq_product(_resolve(objects, query, "a", Effect),
                                   _resolve(objects, query, "b", Effect))
    if kind == "complement":
        return effects.complement(_resolve(objects, query, "of", Effect))
    if kind == "perp":
        return effects.perp(_resolve(objects, query, "a", Effect),
                            _resolve(objects, query, "b", Effect))
    if kind == "prob":
        return effects.prob(_resolve(objects, query, "state", State),
                            _resolve(objects, query, "effect", Effect))
    if kind == "cond_prob":
        return effects.cond_prob(_resolve(objects, query, "state", State),
                                 _resolve(objects, query, "effect", Effect),
                                 given=_resolve(objects, query, "given", Effect))
    if kind == "is_channel":
        return op_mod.is_channel(_resolve(objects, query, "of", Operation))
    if kind == "compose":
        return op_mod.compose(_resolve(objects, query, "first", Operation),
                              _resolve(objects, query, "then", Operation))
    if kind == "equiv":
        return op_mod.equiv(_resolve(objects, query, "a", Operation),
                            _resolve(objects, query, "b", Operation))
    if kind == "op_then_effect":
        return op_mod.op_then_effect(_resolve(objects, query, "op", Operation),
                                     _resolve(objects, query, "effect", Effect))
    if kind == "effect_then_op":
        return op_mod.effect_then_op(_resolve(objects, query, "effect", Effect),
                                     _resolve(objects, query, "op", Operation))
    if kind == "distribution":
        target = _resolve(objects, query, "of")
        rho = _resolve(objects, query, "state", State)
        if isinstance(target, Observable):
            return obs_mod.distribution(target, rho)
        if isinstance(target, Instrument):
            return inst_mod.distribution(target, rho)
        raise ScenarioError("distribution expects an observable or instrument")
    if kind == "obs_seq_product":
        return obs_mod.obs_seq_product(_resolve(objects, query, "a", Observable),
                                       _resolve(objects, query, "b", Observable))
    if kind == "conditioned":
        target = _resolve(objects, query, "of")
        given = _resolve(objects, query, "given")
        if isinstance(target, Observable) and isinstance(given, Observable):
            return obs_mod.obs_conditioned(target, given)
        if isinstance(target, Instrument) and isinstance(given, Instrument):
            return inst_mod.inst_conditioned(target, given)
        if isinstance(target, Instrument) and isinstance(given, Observable):
            return inst_mod.inst_conditioned_on_obs(target, given)
        if isinstance(target, Observable) and isinstance(given, Instrument):
            return inst_mod.obs_conditioned_on_inst(target, given)
        raise ScenarioError("conditioned expects observable/instrument operands")
    if kind == "measured_observable":
        return inst_mod.measured_observable(_resolve(objects, query, "of", Instrument))
    if kind == "bar":
        return inst_mod.bar(_resolve(objects, query, "of", Instrument))
    if kind == "part":
        target = _resolve(objects, query, "of")
        mapping = query.get("map")
        if not isinstance(mapping, dict):
            raise ScenarioError("part requires a 'map' object of outcome relabelings")
        if isinstance(target, Observable):
            return obs_mod.obs_part(target, mapping)
        if isinstance(target, Instrument):
            return inst_mod.inst_part(target, mapping)
        raise ScenarioError("part expects an observable or instrument")
    if kind == "coexist-witness":
        left = _resolve(objects, query, "left")
        right = _resolve(objects, query, "right")
        joint = _resolve(objects, query, "joint")
        f = query.get("f")
        g = query.get("g")
        if not isinstance(f, dict) or not isinstance(g, dict):
            raise ScenarioError("coexist-witness requires 'f' and 'g' outcome maps")
        if isinstance(joint, Observable):
            return obs_mod.verify_coexistence_witness(left, right, joint, f, g)
        if isinstance(joint, Instrument):
            return inst_mod.verify_inst_coexistence_witness(left, right, joint, f, g)
        raise ScenarioError("coexist-witness expects observable or instrument operands")
    raise ScenarioError(f"unknown query {kind!r}")


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
                lines.append(json.dumps({"query": query, "result": _result_json(value)}))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "eval":
        return cmd_eval(args)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""The three seeded workloads: inputs, one unit of work, and its output check.

Inputs are made here with numpy from the seed, outside any timed region; the
library only ever sees the generated arrays or scenario files. A workload is
a fixed list of units. One cycle runs every unit once, in order; the next unit
starts only when the previous one has finished (closed loop, one client).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from oracle import MATCH_TOL, PRODUCT_SEPARATOR as SEP

EVAL_DIMS = tuple(range(2, 9))
EVAL_PER_DIM = 6
CHAIN_DIMS = (3, 4, 5)
CHAIN_PER_DIM = 14
# laws-all runs identity and iff laws at 1/LAW_TRIALS_SHARE of their registry
# trials. At the full count one pass of all 39 laws takes 16-20 s, so a 40 s
# run holds one or two passes and a one-second slowdown of the host moves a
# law's median by half. Those laws assert on every trial, so fewer trials
# cannot fail them. A counterexample law passes only when its search finds a
# witness within the trial budget, so it keeps its full registry trials: at a
# quarter, eq-2.2 found none at seed 104.
LAW_TRIALS_SHARE = 4


@dataclass
class Unit:
    label: str
    dim: int
    payload: object


# Seeded numpy generators (no library calls).

def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _herm(m):
    return (m + m.conj().T) / 2


def _inv_sqrt(m):
    values, vectors = np.linalg.eigh(_herm(m))
    return (vectors / np.sqrt(values)) @ vectors.conj().T


def _unitary(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _state(rng, d):
    g = _ginibre(rng, d)
    rho = g @ g.conj().T
    return _herm(rho / np.trace(rho).real)


def _effect(rng, d):
    u = _unitary(rng, d)
    return _herm((u * rng.uniform(0.0, 1.0, size=d)) @ u.conj().T)


def _povm(rng, d, n):
    grams = [g @ g.conj().T for g in (_ginibre(rng, d) for _ in range(n))]
    root = _inv_sqrt(sum(grams))
    return [_herm(root @ g @ root) for g in grams]


def _kraus_families(rng, d, sizes):
    """Kraus families, one per outcome, normalized so all together sum to I."""
    fams = [np.stack([_ginibre(rng, d) for _ in range(n)]) for n in sizes]
    total = sum(np.einsum("nji,njk->ik", f.conj(), f) for f in fams)
    root = _inv_sqrt(total)
    return [f @ root for f in fams]


def _projections(rng, d, blocks):
    u = _unitary(rng, d)
    cut = np.array_split(np.arange(d), blocks)
    return [u[:, idx] @ u[:, idx].conj().T for idx in cut]


def _mat(m):
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _typed(kind, m):
    return {"type": kind, **_mat(m)}


# laws-all: every registered law once, at its registry dims.

class LawsAll:
    name = "laws-all"

    def __init__(self, seed: int, workdir: Path):
        from seqmeas import laws

        self.laws = laws
        self.seed = seed
        registry = laws.registry()
        self.units = [Unit(law_id, max(law.dims), law) for law_id, law in registry.items()]
        self.trials = {law_id: law.trials if law.kind == "counterexample"
                       else max(1, law.trials // LAW_TRIALS_SHARE)
                       for law_id, law in registry.items()}

    def run(self, unit: Unit):
        return self.laws.run_law(unit.label, trials=self.trials[unit.label], seed=self.seed)

    def check(self, index: int, unit: Unit, report) -> str | None:
        law = unit.payload
        if not report.ok:
            return f"status {report.status}"
        if law.kind == "identity" and not report.max_deviation <= self.laws.core.EQ_TOL:
            return f"max_deviation {report.max_deviation:.3e} exceeds eq_tol"
        if law.kind == "counterexample":
            gap = law.gap if law.gap is not None else self.laws.DEFAULT_GAP
            replayed = self.laws.replay_witness(report)
            if not replayed > gap:
                return f"replayed witness violation {replayed:.3e} is not above gap {gap}"
        return None

    def extra_metrics(self) -> dict[str, float]:
        return {"serialize.out_bytes": 0.0}  # prints nothing


# eval-mixed-dim: scenario files through `seqmeas eval`, in process.

def _scenario(seed: int, d: int, k: int) -> dict:
    rng = _rng(seed, 1, d, k)
    rho, sigma = _state(rng, d), _state(rng, d)
    a, b = _effect(rng, d), _effect(rng, d)
    (k0,), (k1,) = _kraus_families(rng, d, (1, 1))
    channel = np.concatenate(_kraus_families(rng, d, (2,)))
    povm = _povm(rng, d, 3)
    sharp = _projections(rng, d, 2)
    kraus_inst = [{"kind": "kraus", "operators": [_mat(k0)]},
                  {"kind": "kraus", "operators": [_mat(k1)]}]
    objects = {
        "rho": _typed("state", rho),
        "sigma": _typed("state", sigma),
        "a": _typed("effect", a),
        "b": _typed("effect", b),
        "op_kraus": {"type": "operation", "kind": "kraus",
                     "operators": [_mat(m) for m in channel]},
        "op_luders": {"type": "operation", "kind": "luders", "effect": _mat(a)},
        "op_trivial": {"type": "operation", "kind": "trivial",
                       "effect": _mat(b), "state": _mat(sigma)},
        "op_semi": {"type": "operation", "kind": "semi_trivial",
                    "pairs": [{"effect": _mat(a / 2), "state": _mat(rho)},
                              {"effect": _mat(b / 2), "state": _mat(sigma)}]},
        "op_sharp": {"type": "operation", "kind": "sharp",
                     "projections": [_mat(p) for p in sharp]},
        "A": {"type": "observable", "outcomes": ["x0", "x1", "x2"],
              "effects": [_mat(e) for e in povm]},
        "B": {"type": "observable", "outcomes": ["p", "q"],
              "effects": [_mat(p) for p in sharp]},
        "A_f": {"type": "observable", "outcomes": ["y0", "y1"],
                "effects": [_mat(povm[0] + povm[1]), _mat(povm[2])]},
        "A_g": {"type": "observable", "outcomes": ["z0", "z1"],
                "effects": [_mat(povm[0]), _mat(povm[1] + povm[2])]},
        "I": {"type": "instrument", "outcomes": ["x0", "x1"], "ops": kraus_inst},
        "I_f": {"type": "instrument", "outcomes": ["y"],
                "ops": [{"kind": "kraus", "operators": [_mat(k0), _mat(k1)]}]},
        "L": {"type": "instrument", "outcomes": ["x0", "x1", "x2"],
              "ops": [{"kind": "luders", "effect": _mat(e)} for e in povm]},
        "T": {"type": "instrument", "outcomes": ["p", "q"],
              "ops": [{"kind": "trivial", "effect": _mat(p), "state": _mat(sigma)}
                      for p in sharp]},
    }
    queries = [
        {"query": "hat", "of": "op_luders"},
        {"query": "hat", "of": "op_semi"},
        {"query": "apply", "op": "op_kraus", "state": "rho"},
        {"query": "seq_product", "a": "a", "b": "b"},
        {"query": "complement", "of": "a"},
        {"query": "perp", "a": "a", "b": "b"},
        {"query": "prob", "state": "rho", "effect": "a"},
        {"query": "cond_prob", "state": "rho", "effect": "b", "given": "a"},
        {"query": "is_channel", "of": "op_kraus"},
        {"query": "compose", "first": "op_luders", "then": "op_kraus"},
        {"query": "equiv", "a": "op_trivial", "b": "op_luders"},
        {"query": "op_then_effect", "op": "op_sharp", "effect": "b"},
        {"query": "effect_then_op", "effect": "a", "op": "op_trivial"},
        {"query": "distribution", "of": "A", "state": "rho"},
        {"query": "distribution", "of": "T", "state": "sigma"},
        {"query": "obs_seq_product", "a": "A", "b": "B"},
        {"query": "conditioned", "of": "B", "given": "A"},
        {"query": "conditioned", "of": "I", "given": "L"},
        {"query": "conditioned", "of": "I", "given": "B"},
        {"query": "conditioned", "of": "B", "given": "I"},
        {"query": "measured_observable", "of": "L"},
        {"query": "bar", "of": "I"},
        {"query": "part", "of": "A", "map": {"x0": "y0", "x1": "y0", "x2": "y1"}},
        {"query": "part", "of": "T", "map": {"p": "y", "q": "y"}},
        {"query": "coexist-witness", "left": "A_f", "right": "A_g", "joint": "A",
         "f": {"x0": "y0", "x1": "y0", "x2": "y1"}, "g": {"x0": "z0", "x1": "z1", "x2": "z1"}},
        {"query": "coexist-witness", "left": "I_f", "right": "I", "joint": "I",
         "f": {"x0": "y", "x1": "y"}, "g": {"x0": "x0", "x1": "x1"}},
    ]
    return {"dim": d, "objects": objects, "queries": queries}


def _merge(parts: dict, mapping: dict) -> dict:
    """Coarse-grain outcome -> value along an outcome relabeling."""
    merged: dict = {}
    for x, value in parts.items():
        y = mapping[x]
        merged[y] = merged[y] + value if y in merged else value
    return merged


def _expected(objects: dict, o: dict, query: dict):
    """Oracle value of one scenario query; ``o`` holds the decoded objects."""
    kind = query["query"]
    if kind == "hat":
        return ("matrix", oracle.hat(o[query["of"]]))
    if kind == "apply":
        return ("matrix", oracle.apply(o[query["op"]], o[query["state"]]))
    if kind == "seq_product":
        return ("matrix", oracle.seq_product(o[query["a"]], o[query["b"]]))
    if kind == "complement":
        a = o[query["of"]]
        return ("matrix", np.eye(a.shape[0]) - a)
    if kind == "perp":
        a, b = o[query["a"]], o[query["b"]]
        return ("bool", np.linalg.eigvalsh(np.eye(a.shape[0]) - a - b).min() >= -oracle.PSD_TOL)
    if kind == "prob":
        return ("float", oracle.prob(o[query["state"]], o[query["effect"]]))
    if kind == "cond_prob":
        rho, b, a = o[query["state"]], o[query["effect"]], o[query["given"]]
        return ("float", oracle.prob(rho, oracle.seq_product(a, b)) / oracle.prob(rho, a))
    if kind == "is_channel":
        h = oracle.hat(o[query["of"]])
        return ("bool", oracle.max_gap(h, np.eye(len(h))) <= oracle.EQ_TOL)
    if kind == "compose":
        return ("operation", o[query["then"]] @ o[query["first"]])
    if kind == "equiv":
        return ("bool", oracle.max_gap(oracle.hat(o[query["a"]]), oracle.hat(o[query["b"]]))
                <= oracle.EQ_TOL)
    if kind == "op_then_effect":
        return ("matrix", oracle.dual(o[query["op"]], o[query["effect"]]))
    if kind == "effect_then_op":
        return ("operation", o[query["op"]] @ oracle.superop_luders(o[query["effect"]]))
    if kind == "distribution":
        target, rho = o[query["of"]], o[query["state"]]
        if objects[query["of"]]["type"] == "observable":
            return ("dist", {x: oracle.prob(rho, e) for x, e in target.items()})
        return ("dist", {x: min(1.0, max(0.0, oracle.trace_out(s, rho))) for x, s in target.items()})
    if kind == "obs_seq_product":
        a, b = o[query["a"]], o[query["b"]]
        return ("observable", {f"{x}{SEP}{y}": oracle.seq_product(a[x], b[y])
                               for x in a for y in b})
    if kind == "conditioned":
        target, given = o[query["of"]], o[query["given"]]
        t_kind = objects[query["of"]]["type"]
        g_kind = objects[query["given"]]["type"]
        if t_kind == "observable" and g_kind == "observable":
            return ("observable", {y: sum(oracle.seq_product(ax, by) for ax in given.values())
                                   for y, by in target.items()})
        if t_kind == "instrument" and g_kind == "instrument":
            channel = sum(given.values())
        elif t_kind == "instrument":
            channel = sum(oracle.superop_luders(ax) for ax in given.values())
        else:
            channel = sum(given.values())
            return ("observable", {y: oracle.dual(channel, by) for y, by in target.items()})
        return ("instrument", {y: sy @ channel for y, sy in target.items()})
    if kind == "measured_observable":
        return ("observable", {x: oracle.hat(s) for x, s in o[query["of"]].items()})
    if kind == "bar":
        return ("operation", sum(o[query["of"]].values()))
    if kind == "part":
        shape = "observable" if objects[query["of"]]["type"] == "observable" else "instrument"
        return (shape, _merge(o[query["of"]], query["map"]))
    if kind == "coexist-witness":
        ok = True
        for side, key in (("left", "f"), ("right", "g")):
            merged = _merge(o[query["joint"]], query[key])
            want = o[query[side]]
            ok = ok and set(merged) == set(want) and all(
                oracle.max_gap(merged[y], want[y]) <= oracle.EQ_TOL for y in want)
        return ("bool", ok)
    raise ValueError(f"no oracle for query {kind!r}")


def _compare(shape: str, want, got) -> str | None:
    if shape == "bool":
        return None if got is bool(want) else f"got {got!r}, oracle {bool(want)!r}"
    if shape == "float":
        return None if abs(got - want) <= MATCH_TOL else f"got {got!r}, oracle {want!r}"
    if shape == "dist":
        if list(got) != list(want):
            return f"outcomes {list(got)} vs {list(want)}"
        gap = max(abs(got[x] - want[x]) for x in want)
        return None if gap <= MATCH_TOL else f"distribution off by {gap:.3e}"
    if shape == "matrix":
        gap = oracle.max_gap(oracle.matrix(got), want)
    elif shape == "operation":
        gap = oracle.max_gap(oracle.superop_json(got), want)
    else:
        members = got["effects"] if shape == "observable" else got["ops"]
        decode = oracle.matrix if shape == "observable" else oracle.superop_json
        if list(got["outcomes"]) != list(want):
            return f"outcomes {got['outcomes']} vs {list(want)}"
        gap = max(oracle.max_gap(decode(m), want[x]) for x, m in zip(got["outcomes"], members))
    return None if gap <= MATCH_TOL else f"{shape} off by {gap:.3e}"


class EvalMixedDim:
    name = "eval-mixed-dim"

    def __init__(self, seed: int, workdir: Path):
        from seqmeas import cli

        self.cli = cli
        self.units = []
        for d in EVAL_DIMS:
            for k in range(EVAL_PER_DIM):
                scenario = _scenario(seed, d, k)
                path = workdir / f"scenario-d{d}-{k}.json"
                path.write_text(json.dumps(scenario), encoding="utf-8")
                self.units.append(Unit(f"d{d}-{k}", d, (str(path), scenario)))
        self.verified: dict[int, str] = {}

    def run(self, unit: Unit):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(["eval", unit.payload[0]])
        return code, out.getvalue(), err.getvalue()

    def check(self, index: int, unit: Unit, output) -> str | None:
        code, text, err = output
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        if self.verified.get(index) == text:
            return None
        scenario = unit.payload[1]
        decoded = {name: oracle.decode(data) for name, data in scenario["objects"].items()}
        lines = text.splitlines()
        if len(lines) != len(scenario["queries"]):
            return f"{len(lines)} output lines for {len(scenario['queries'])} queries"
        for idx, (line, query) in enumerate(zip(lines, scenario["queries"])):
            record = json.loads(line)
            if "result" not in record:
                return f"query #{idx} {query['query']}: {record.get('error')}"
            shape, want = _expected(scenario["objects"], decoded, query)
            problem = _compare(shape, want, record["result"])
            if problem:
                return f"query #{idx} {query['query']}: {problem}"
        self.verified[index] = text
        return None

    def extra_metrics(self) -> dict[str, float]:
        return {"serialize.out_bytes": float(sum(len(t.encode("utf-8"))
                                                 for t in self.verified.values()))}


# product-chains: fourfold instrument products over large Kraus families.

def _chain_inputs(seed: int, d: int, k: int) -> dict:
    rng = _rng(seed, 2, d, k)
    return {
        "inst1": _kraus_families(rng, d, (2, 2)),
        "inst2": _kraus_families(rng, d, (2, 2)),
        "semi_povm": _povm(rng, d, 2),
        "semi_states": [_state(rng, d), _state(rng, d)],
        "luders_povm": _povm(rng, d, 2),
        "rho": _state(rng, d),
    }


def _chain_oracle(x: dict) -> dict:
    s1 = [oracle.superop_kraus(f) for f in x["inst1"]]
    s2 = [oracle.superop_kraus(f) for f in x["inst2"]]
    ss = [oracle.superop_trivial(e, s) for e, s in zip(x["semi_povm"], x["semi_states"])]
    sl = [oracle.superop_luders(e) for e in x["luders_povm"]]
    members = {}
    for i, a in enumerate(s1):
        for j, b in enumerate(s2):
            for m, c in enumerate(ss):
                for n, e in enumerate(sl):
                    label = SEP.join((f"a{i}", f"b{j}", f"c{m}", f"e{n}"))
                    members[label] = e @ c @ b @ a
    bar = sum(members.values())
    conditioned = {f"e{n}": e @ bar for n, e in enumerate(sl)}
    dist = {y: oracle.trace_out(s, x["rho"]) for y, s in conditioned.items()}
    return {"members": members, "bar": bar, "conditioned": conditioned, "dist": dist}


class ProductChains:
    name = "product-chains"

    def __init__(self, seed: int, workdir: Path):
        import seqmeas

        self.lib = seqmeas
        self.units = []
        for d in CHAIN_DIMS:
            for k in range(CHAIN_PER_DIM):
                x = _chain_inputs(seed, d, k)
                self.units.append(Unit(f"d{d}-{k}", d, (x, _chain_oracle(x))))

    def run(self, unit: Unit):
        x = unit.payload[0]
        lib = self.lib
        Operation, Effect, State = lib.Operation, lib.Effect, lib.State
        Observable, Instrument, inst = lib.Observable, lib.Instrument, lib.instruments
        i1 = Instrument(("a0", "a1"), tuple(Operation(f) for f in x["inst1"]))
        i2 = Instrument(("b0", "b1"), tuple(Operation(f) for f in x["inst2"]))
        semi = inst.semi_trivial_instrument(
            Observable(("c0", "c1"), tuple(Effect(e) for e in x["semi_povm"])),
            [State(s) for s in x["semi_states"]])
        lud = inst.luders_instrument(
            Observable(("e0", "e1"), tuple(Effect(e) for e in x["luders_povm"])))
        product = inst.inst_seq_product(inst.inst_seq_product(inst.inst_seq_product(i1, i2), semi), lud)
        conditioned = inst.inst_conditioned(lud, given=product)
        dist = inst.distribution(conditioned, State(x["rho"]))
        return product, conditioned, dist, inst.bar(product)

    def check(self, index: int, unit: Unit, output) -> str | None:
        product, conditioned, dist, bar = output
        want = unit.payload[1]
        for label, members in (("product", product), ("conditioned", conditioned)):
            expect = want["members"] if label == "product" else want["conditioned"]
            if list(members.outcomes) != list(expect):
                return f"{label} outcomes {members.outcomes[:3]}... differ from the oracle"
            gap = max(oracle.max_gap(oracle.superop_kraus(o.kraus), expect[y])
                      for y, o in members.items())
            if gap > MATCH_TOL:
                return f"{label} member superoperator off by {gap:.3e}"
        gap = oracle.max_gap(oracle.superop_kraus(bar.kraus), want["bar"])
        if gap > MATCH_TOL:
            return f"bar superoperator off by {gap:.3e}"
        gap = max(abs(dist[y] - p) for y, p in want["dist"].items())
        if gap > MATCH_TOL or abs(sum(dist.values()) - 1.0) > MATCH_TOL:
            return f"distribution off by {gap:.3e} (sum {sum(dist.values())!r})"
        return None

    def extra_metrics(self) -> dict[str, float]:
        return {"serialize.out_bytes": 0.0}  # prints nothing


WORKLOADS = {w.name: w for w in (LawsAll, EvalMixedDim, ProductChains)}

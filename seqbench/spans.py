"""Spans around the public entry points of every seqmeas module.

The benchmark wraps functions from the outside; nothing under ``src/`` knows
about it. A module can bind a function under its own name
(``from ..effects import prob``), so installing a wrapper replaces every
binding of the original object in every loaded ``seqmeas`` module, not only
the defining module's attribute. Classes are traced through ``__init__``,
which runs the constructor's validation.

Each span stores its name, start, end, parent span and input dim in flat
arrays; they stay in memory until ``dump`` writes them out. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer.name, module, attribute, index of the positional argument that gives
# the input dim, or None). Classes are listed by their constructor.
ENTRIES = (
    ("matcore.eigenvalues_hermitian", "seqmeas.matcore", "eigenvalues_hermitian", 0),
    ("matcore.eig_hermitian", "seqmeas.matcore", "eig_hermitian", 0),
    ("matcore.sqrt_psd", "seqmeas.matcore", "sqrt_psd", 0),
    ("effects.Effect", "seqmeas.effects", "Effect", 1),
    ("effects.State", "seqmeas.effects", "State", 1),
    ("effects.seq_product", "seqmeas.effects", "seq_product", 0),
    ("effects.prob", "seqmeas.effects", "prob", 0),
    ("effects.cond_prob", "seqmeas.effects", "cond_prob", 0),
    ("operations.Operation", "seqmeas.operations", "Operation", 1),
    ("operations.compose", "seqmeas.operations", "compose", 0),
    ("operations.apply", "seqmeas.operations", "apply", 0),
    ("operations.hat", "seqmeas.operations", "hat", 0),
    ("operations.action_distance", "seqmeas.operations", "action_distance", 0),
    ("observables.Observable", "seqmeas.observables", "Observable", 2),
    ("observables.obs_seq_product", "seqmeas.observables", "obs_seq_product", 0),
    ("instruments.Instrument", "seqmeas.instruments", "Instrument", 2),
    ("instruments.inst_seq_product", "seqmeas.instruments", "inst_seq_product", 0),
    ("instruments.inst_conditioned", "seqmeas.instruments", "inst_conditioned", 0),
    ("instruments.bar", "seqmeas.instruments", "bar", 0),
    ("instruments.distribution", "seqmeas.instruments", "distribution", 0),
    ("serialize.typed_from_json", "seqmeas.serialize", "typed_from_json", 0),
    ("serialize.typed_to_json", "seqmeas.serialize", "typed_to_json", 0),
    ("cli.main", "seqmeas.cli", "main", None),
    ("laws.run_law", "seqmeas.laws.core", "run_law", None),
    ("laws.resample", "seqmeas.laws._common", "resample", None),
)

# Entry points that must record calls on each workload (the coverage check).
COVERAGE = {
    "laws-all": (
        "matcore.eigenvalues_hermitian", "matcore.eig_hermitian", "matcore.sqrt_psd",
        "effects.Effect", "effects.State", "effects.seq_product", "effects.prob",
        "effects.cond_prob", "operations.Operation", "operations.compose",
        "operations.apply", "operations.hat", "operations.action_distance",
        "laws.run_law", "laws.resample",
    ),
    "eval-mixed-dim": (
        "matcore.eigenvalues_hermitian", "matcore.eig_hermitian", "matcore.sqrt_psd",
        "observables.Observable", "observables.obs_seq_product",
        "serialize.typed_from_json", "serialize.typed_to_json", "cli.main",
    ),
    "product-chains": (
        "operations.Operation", "operations.compose", "operations.apply",
        "instruments.Instrument", "instruments.inst_seq_product",
        "instruments.inst_conditioned", "instruments.bar", "instruments.distribution",
    ),
}

# Per-call cost at these dims is reported for the kernels of the ROADMAP table.
KERNEL_DIMS = (2, 3, 5, 8)
PER_DIM = (
    "matcore.eigenvalues_hermitian", "matcore.eig_hermitian", "matcore.sqrt_psd",
    "effects.Effect", "effects.seq_product", "operations.compose", "operations.apply",
)


def _dim(x) -> int:
    d = getattr(x, "dim", None)
    if isinstance(d, int):
        return d
    shape = getattr(x, "shape", None)
    if shape:
        return int(shape[-1])
    if isinstance(x, dict):
        try:
            return int(x.get("dim", 0))
        except (TypeError, ValueError):
            return 0
    if isinstance(x, (list, tuple)) and x:
        return _dim(x[0])
    return 0


class Tracer:
    """Span recorder. Wrappers record only while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.names = [entry[0] for entry in ENTRIES]
        self.name = array("i")
        self.parent = array("i")
        self.dim = array("h")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.bindings: dict[str, int] = {}
        self.kraus_n = array("i")
        self.kraus_dim = array("h")
        self.draws = 0
        self.accepted = 0
        self.headroom: list[float] = []

    def install(self) -> None:
        """Wrap every entry point in ENTRIES, rebinding each name that refers to it."""
        for nid, (name, module, attr, argpos) in enumerate(ENTRIES):
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
            if isinstance(original, type):
                post = self._count_kraus if name == "operations.Operation" else None
                original.__init__ = self._wrap(nid, original.__init__, argpos, post)
                self.bindings[name] = 1
                continue
            fn, post = original, None
            if name == "laws.resample":
                fn = self._counting_resample(original)
            elif name == "laws.run_law":
                post = self._note_headroom
            wrapper = self._wrap(nid, fn, argpos, post, raw=original)
            count = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "seqmeas" or mod_name.startswith("seqmeas.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        count += 1
            self.bindings[name] = count

    def _wrap(self, nid, fn, argpos, post=None, raw=None):
        tracer = self
        clock = time.perf_counter
        names, parents, dims = self.name, self.parent, self.dim
        starts, ends, stack = self.start, self.end, self.stack
        plain = raw or fn

        @functools.wraps(plain)
        def traced(*args, **kwargs):
            if not tracer.on:
                return plain(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            dims.append(_dim(args[argpos]) if argpos is not None and len(args) > argpos else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _count_kraus(self, args, kwargs, result) -> None:
        kraus = args[0].kraus
        self.kraus_n.append(kraus.shape[0])
        self.kraus_dim.append(kraus.shape[1])

    def _note_headroom(self, args, kwargs, report) -> None:
        if report.kind == "identity":
            from seqmeas.matcore import EQ_TOL

            self.headroom.append(report.max_deviation / kwargs.get("eq_tol", EQ_TOL))

    def _counting_resample(self, original):
        def resample(draw, accept):
            def counted():
                self.draws += 1
                return draw()

            sample = original(counted, accept)
            self.accepted += 1
            return sample

        return resample

    def _columns(self):
        # Copies, so the arrays stay appendable while the columns are in use.
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.dim, dtype=np.int16).copy(),
                np.frombuffer(self.start).copy(),
                np.frombuffer(self.end).copy())

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per cycle of the workload."""
        name, parent, dim, start, end = self._columns()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[f"{label}.calls"] = float(mask.sum()) / cycles
            out[f"{label}.self_s"] = float(self_time[mask].sum()) / cycles
            if label in PER_DIM:
                for d in KERNEL_DIMS:
                    at = mask & (dim == d)
                    n = int(at.sum())
                    out[f"{label}.us_per_call.d{d}"] = float(dur[at].sum()) / n * 1e6 if n else 0.0
        kraus = np.frombuffer(self.kraus_n, dtype=np.int32).copy()
        kdim = np.frombuffer(self.kraus_dim, dtype=np.int16).copy()
        out["operations.kraus_per_op.mean"] = float(kraus.mean()) if kraus.size else 0.0
        out["operations.kraus_per_op.max"] = float(kraus.max()) if kraus.size else 0.0
        out["operations.kraus_excess.max"] = (
            float((kraus / kdim.astype(float) ** 2).max()) if kraus.size else 0.0)
        out["laws.resample.accept_ratio"] = self.accepted / self.draws if self.draws else 0.0
        out["laws.headroom.max"] = max(self.headroom, default=0.0)
        return out

    def calls(self) -> dict[str, int]:
        name = self._columns()[0]
        counts = np.bincount(name, minlength=len(self.names))
        return {label: int(counts[nid]) for nid, label in enumerate(self.names)}

    def uncovered(self, workload: str) -> list[str]:
        """Entry points the workload should reach but that recorded no call."""
        calls = self.calls()
        return [label for label in COVERAGE[workload] if calls[label] == 0]

    def dump(self, path) -> None:
        name, parent, dim, start, end = self._columns()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            dim=dim, start=start, end=end)

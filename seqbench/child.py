"""One benchmark run of one workload, in its own single-threaded process.

Started by run.py with BLAS thread counts pinned to 1. It imports seqmeas
from the checkout's ``src/`` (and refuses any other copy), builds the
workload's inputs, measures, checks every output and writes a JSON result.

Untraced: whole cycles of the workload run until the next cycle would pass
``--seconds``. Traced: one half of the time untraced, then the tracer is
installed and the other half runs traced; per-layer figures come from the
traced half, and the ratio of the halves' cycle times is the tracing overhead.
Every unit time is rescaled to the reference host speed by the probe samples
taken around it (probe.py); the raw times are kept in the record too.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_FAILURE_NOTES = 5


def import_library():
    sys.path.insert(0, str(SRC))
    import seqmeas

    where = Path(seqmeas.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"seqmeas imported from {where}, not from {SRC}")
    return seqmeas


def measure(workload, seconds: float, probe, tracer=None) -> dict:
    """Run whole cycles of the workload; check every output outside the timing.

    Each unit's (start, end) goes to ``spans``; host-speed probe samples are
    taken just before it."""
    units = workload.units
    spans: list[list[tuple[float, float]]] = [[] for _ in units]
    attempted = failed = cycles = 0
    notes: list[str] = []
    clock = time.perf_counter
    start = clock()
    while True:
        cycle_start = clock()
        for index, unit in enumerate(units):
            attempted += 1
            last = spans[index][-1] if spans[index] else (0.0, 0.0)
            probe.sample(last[1] - last[0])
            t0 = clock()
            try:
                output = workload.run(unit)
                problem = None
            except Exception as exc:  # a failed unit never aborts the workload
                output, problem = None, f"{type(exc).__name__}: {exc}"
            spans[index].append((t0, clock()))
            if problem is None:
                if tracer is not None:
                    tracer.on = False
                try:
                    problem = workload.check(index, unit, output)
                except Exception as exc:
                    problem = f"output check raised {type(exc).__name__}: {exc}"
                if tracer is not None:
                    tracer.on = True
            if problem is not None:
                failed += 1
                if len(notes) < MAX_FAILURE_NOTES:
                    notes.append(f"{unit.label}: {problem}")
        cycles += 1
        now = clock()
        if now - start + (now - cycle_start) > seconds:
            break
    return {"spans": spans, "attempted": attempted, "failed": failed,
            "cycles": cycles, "notes": notes}


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten samples beyond it, and its
    nearest-rank index into the sorted samples."""
    pct = max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0
    return pct, max(0, math.ceil(pct / 100 * n) - 1)


def summarize(units, run: dict, probe) -> dict:
    """One time per unit (its median over the run's cycles, each rescaled to
    the reference host speed) and their summary."""
    times = [[probe.normalize(t0, t1) for t0, t1 in spans] for spans in run["spans"]]
    raw = [[t1 - t0 for t0, t1 in spans] for spans in run["spans"]]
    medians = [statistics.median(t) for t in times]
    ordered = sorted(medians)
    pct, rank = tail_rank(len(ordered))
    return {
        "wall_s": sum(medians),
        "units_per_s": len(medians) / sum(medians),
        "unit_ms.p50": statistics.median(ordered) * 1e3,
        "unit_ms.tail": ordered[rank] * 1e3,
        "unit_ms.tail_pct": pct,
        "unit.n": len(ordered),
        "raw_wall_s": sum(statistics.median(t) for t in raw),
        "cycles": run["cycles"],
        "unit_ms": {u.label: [t * 1e3 for t in ts] for u, ts in zip(units, times)},
        "raw_unit_ms": {u.label: [t * 1e3 for t in ts] for u, ts in zip(units, raw)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    seqmeas = import_library()
    import numpy as np

    import kernels
    from probe import HostProbe
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result_path = Path(args.result)
    with tempfile.TemporaryDirectory(dir=result_path.parent) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        probe = HostProbe()
        if args.trace:
            base = measure(workload, args.seconds / 2, probe)
            tracer = Tracer()
            tracer.install()
            tracer.on = True
            run = measure(workload, args.seconds / 2, probe, tracer)
            tracer.on = False
        else:
            run = measure(workload, args.seconds, probe)
        extra = workload.extra_metrics()

    # End-to-end figures always come from untraced cycles.
    summary = summarize(workload.units, base if args.trace else run, probe)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["notes"],
        "units": [{"label": u.label, "dim": u.dim} for u in workload.units],
        **summary,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seqmeas": seqmeas.__version__,
        "probe": probe.summary(),
    }
    if args.trace:
        traced = summarize(workload.units, run, probe)
        per_layer = tracer.layer_metrics(run["cycles"])
        per_layer.update(extra)
        per_layer["trace.overhead_ratio"] = traced["wall_s"] / summary["wall_s"]
        result.update({
            "attempted": base["attempted"] + run["attempted"],
            "failed": base["failed"] + run["failed"],
            "failures": (base["notes"] + run["notes"])[:MAX_FAILURE_NOTES],
            "traced_wall_s": traced["wall_s"],
            "per_layer": per_layer,
            "bindings": tracer.bindings,
            "uncovered": tracer.uncovered(args.workload),
            "kernel_table": kernels.table(per_layer),
        })
        tracer.dump(result_path.with_suffix(".spans.npz"))
    timed = base if args.trace else run
    probe.dump(result_path.with_suffix(".probe.npz"),
               [(i, t0, t1) for i, spans in enumerate(timed["spans"]) for t0, t1 in spans])
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

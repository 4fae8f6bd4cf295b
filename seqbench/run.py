"""Benchmark entry point: one seed, one run of one workload (or of each in turn).

    python3 seqbench/run.py --workload laws-all --seed 42 --seconds 40 --trace 0
    python3 seqbench/run.py --workload all --seconds 40     # each workload in turn

Run from the root of a checkout. The workload itself runs in one child
process (child.py) with OMP/OpenBLAS/MKL thread counts set to 1 and a fixed
PYTHONHASHSEED in that child's environment only. Before it, set-up time is
measured in fresh interpreters. Set-up and unit times are rescaled to a
reference host speed by a fixed probe kernel (probe.py). Each workload
prints a readable report, then one JSON line: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The exit code is 0 only when every output check passed (and, traced, every
entry point was reached). A full record, with the machine description, goes
to ``seqbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_PROBE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170
SETUP_SAMPLES = 4  # before the workload, and as many again after it
# Child-only environment. A fixed string-hash seed gives every run the same
# dict layout: six alternating laws-all passes spanned 31% of their median
# with random hashing and 13% with the seed fixed.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

# Time, in a fresh interpreter, to import seqmeas and load the law registry;
# then, untimed, the host-speed probe in the same interpreter (probe.py).
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import seqmeas
seqmeas.laws.law_ids()
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import probe
print(elapsed, probe.spot_speed())
"""


def child_env() -> dict:
    return {**os.environ, **CHILD_ENV}


def setup_samples(count: int, env: dict, deadline: float) -> list[tuple[float, float]]:
    """Set-up time and probe speed, in seconds, of ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(BENCH)],
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"importing seqmeas failed:\n{proc.stderr.strip()}")
        elapsed, speed = proc.stdout.split()[-2:]
        samples.append((float(elapsed), float(speed)))
    return samples


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "cpu": cpu, "nproc": os.cpu_count()}


def report(record: dict, metrics: dict) -> None:
    r = record
    print(f"seqbench {r['workload']} seed={r['seed']} trace={r['trace']} "
          f"units={r['unit.n']} cycles={r['cycles']}")
    rows = [(name, r[name], unit) for name, unit in (
        ("setup_s", "s"), ("wall_s", "s"), ("units_per_s", "1/s"),
        ("unit_ms.p50", "ms"), ("unit_ms.tail", "ms"))]
    for name, value, unit in rows:
        note = f"  (p{r['unit_ms.tail_pct']}, unit.n={r['unit.n']})" if name == "unit_ms.tail" else ""
        print(f"  {name:<14} {value:12.4f} {unit}{note}")
    print(f"  {'failed_frac':<14} {r['failed'] / r['attempted']:12.4f}    "
          f"({r['failed']}/{r['attempted']} units)")
    print(f"  {'peak_rss_mb':<14} {r['peak_rss_mb']:12.4f} MB")
    print(f"  times are rescaled to the reference host speed (probe.py): "
          f"raw wall_s {r['raw_wall_s']:.4f} s, raw setup_s {r['raw_setup_s']:.4f} s, "
          f"probe median {r['probe']['median_us']:.1f} us over {r['probe']['samples']} samples")
    for note in r["failures"]:
        print(f"  FAILED {note}")
    if r["trace"]:
        print(f"  tracing overhead: traced wall_s {r['traced_wall_s']:.4f} s / "
              f"untraced {r['wall_s']:.4f} s = {r['per_layer']['trace.overhead_ratio']:.3f}")
        if r["uncovered"]:
            print(f"  COVERAGE: no calls recorded for {', '.join(r['uncovered'])}")
        print("  per-layer (per cycle of the workload):")
        for name, m in metrics.items():
            print(f"    {name:<46} {m['value']:14.6g} {m['unit']}")
        print("  kernel table (traced us/call beside the ROADMAP Baseline):")
        for row in r["kernel_table"]:
            ref = row["baseline_us"]
            ratio = f"x{row['us'] / ref:.2f}" if ref else "no baseline"
            print(f"    {row['kernel']:<20} d={row['dim']} {row['us']:10.1f} us  "
                  f"baseline {ref if ref is not None else '-'}  {ratio}")
    m = r["machine"]
    print(f"  env: commit={m['commit']} cpu={m['cpu']} nproc={m['nproc']} "
          f"python={r['python']} numpy={r['numpy']}")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"run-{workload}-s{seed}-t{trace}.json"
    result_path.unlink(missing_ok=True)
    try:
        # A discarded first import fills the bytecode cache. Sampling before
        # and after the workload spreads the samples over the run's length.
        setup = setup_samples(1 + SETUP_SAMPLES, env, deadline)[1:]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--result", str(result_path)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        setup += setup_samples(SETUP_SAMPLES, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: workload process exited {proc.returncode}:\n{proc.stderr.strip()}",
              file=sys.stderr)
        return 1

    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["setup_s"] = statistics.median(t * REF_PROBE_S / speed for t, speed in setup)
    record["raw_setup_s"] = statistics.median(t for t, _ in setup)
    record["machine"] = machine()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = record["per_layer"] if trace else record
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"error: run produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = record["failed"] == 0 and not (trace and record["uncovered"])
    report(record, metrics)
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "seqmeas" / "__init__.py").is_file():
        print(f"error: no seqmeas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    return max([run_workload(spec, name, args.seed, args.seconds, args.trace) for name in chosen])


if __name__ == "__main__":
    sys.exit(main())

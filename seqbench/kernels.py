"""Kernel table: traced per-call costs beside the ROADMAP Baseline.

Each traced run stores the table for its own workload. Run this file to
aggregate the traced results under ``seqbench/out`` (or the files given as
arguments): per workload it prints each entry's median over runs, the
run-to-run spread (distance between the quartiles) and the Baseline figure,
and marks every entry whose gap to the Baseline exceeds that spread.

    python3 seqbench/kernels.py [result.json ...]

Per-call figures are inclusive times of traced calls, so they carry the
tracer's own cost for nested spans, and they are taken on the workload's own
inputs (its Kraus family sizes, for example), not on isolated random inputs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

DIMS = (2, 3, 5, 8)

# ROADMAP "Kernel costs in us at d = 2 / 3 / 5 / 8" (None: not in the table).
BASELINE = {
    "matcore.eigenvalues_hermitian": ("Jacobi eigenvalues", (31, 60, 281, 934)),
    "matcore.eig_hermitian": ("Jacobi full eig", (38, 79, 336, 1647)),
    "matcore.sqrt_psd": ("sqrt_psd", (None, None, None, None)),
    "effects.Effect": ("Effect()", (47, 84, 331, 1346)),
    "effects.seq_product": ("seq_product", (128, 216, 713, 3321)),
    "operations.compose": ("compose", (33, 44, 50, 124)),
    "operations.apply": ("apply", (4.7, 5.3, 8.6, 42)),
}
ORDER = [label for label, _ in BASELINE.values()]


def table(per_layer: dict[str, float]) -> list[dict]:
    """One row per kernel and dim measured in this run (0 means no calls)."""
    rows = []
    for entry, (label, base) in BASELINE.items():
        for d, ref in zip(DIMS, base):
            us = per_layer[f"{entry}.us_per_call.d{d}"]
            if us:
                rows.append({"kernel": label, "dim": d, "us": us, "baseline_us": ref})
    return rows


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.1f}"


def aggregate(results: list[dict]) -> str:
    by_workload: dict[str, list[dict]] = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    lines = []
    for workload, runs in sorted(by_workload.items()):
        samples: dict[tuple, list[float]] = {}
        baseline: dict[tuple, float | None] = {}
        for r in runs:
            for row in r["kernel_table"]:
                key = (row["kernel"], row["dim"])
                samples.setdefault(key, []).append(row["us"])
                baseline[key] = row["baseline_us"]
        lines += [f"## {workload}: traced runs at seeds "
                  f"{', '.join(str(r['seed']) for r in runs)}", "",
                  "| kernel | d | median us | spread us | baseline us | differs |",
                  "|---|---|---|---|---|---|"]
        for key in sorted(samples, key=lambda k: (ORDER.index(k[0]), k[1])):
            vals = samples[key]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = q3 - q1
            ref = baseline[key]
            differs = "" if ref is None else ("yes" if abs(med - ref) > spread else "no")
            lines.append(f"| {key[0]} | {key[1]} | {med:.1f} | {spread:.1f} | {_fmt(ref)} | {differs} |")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(
        (Path(__file__).resolve().parent / "out").glob("run-*-t1.json"))
    results = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    results = [r for r in results if r.get("trace") == 1 and "kernel_table" in r]
    if not results:
        print("no traced results found", file=sys.stderr)
        return 1
    print(aggregate(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Steadiness check: repeat every workload and print each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--trace-check] [--spoil-check]

Run it from the repository root.  For each of the five workloads it makes
two passes of ``--runs`` runs of ``run.py`` at BENCHMARK.json's
``run_seconds``, every run with its own seed (first-seed, first-seed + 1,
...; the second pass goes on where the first stopped).  For every
end-to-end metric it prints each pass's median and spread, (q3 - q1) /
median with quartiles from ``statistics.quantiles(n=4)``, and how much
worse the second median is than the first, next to the metric's bound.  A
metric whose spread in either pass exceeds its bound is marked
``unresolved``: two medians of it can differ by more than the bound with no
change to the code.  ``--runs 1`` is the one command that runs all five
workloads (twice).

``--trace-check`` makes two traced runs of each workload with the first
seed.  Every operation must pass its checks and every per-layer ``calls``
count must repeat exactly.
``--spoil-check`` runs each workload once for each of its checks, with
that check's expected value spoiled, and requires the run to count failed
operations and wrong output.  The exit status is 1 if either check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "small-worlds", "tall-cut", "deep-session", "server-fanout")
SPOIL_SECONDS = 1  # every workload still runs at least one whole round


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0, spoil=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spoil:
        cmd += ["--spoil", spoil]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stderr"] = proc.stderr
    return result


def median_spread(values) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def spread_table(workload, passes, metrics) -> list[str]:
    lines = [f"{workload}: 2 passes of {len(passes[0])} runs"]
    for k, runs in enumerate(passes, 1):
        lines.append(
            f"  pass {k}: attempted {sorted({r['attempted'] for r in runs})}, "
            f"failed {sorted({r['failed'] for r in runs})}, "
            f"correct {all(r['correct'] for r in runs)}"
        )
    lines.append(
        f"  {'metric':<12} {'unit':<5} {'median1':>10} {'spread1':>7} "
        f"{'median2':>10} {'spread2':>7} {'worse':>7} {'bound':>6}"
    )
    for m in metrics:
        name = m["name"]
        (med1, sp1), (med2, sp2) = (
            median_spread([r["metrics"][name]["value"] for r in runs]) for runs in passes
        )
        worse = (med2 - med1) / med1 if m["better"] == "lower" else (med1 - med2) / med1
        notes = []
        if max(sp1, sp2) > m["bound"]:
            notes.append("unresolved")
        if worse > m["bound"]:
            notes.append("second median worse than bound")
        lines.append(
            f"  {name:<12} {m['unit']:<5} {med1:>10.4f} {sp1:>7.3f} "
            f"{med2:>10.4f} {sp2:>7.3f} {worse:>7.3f} {m['bound']:>6.2f}  {', '.join(notes)}"
        )
    return lines


def trace_check(workload, seed, seconds) -> tuple[str, bool]:
    a, b = (run_once(workload, seed, seconds, trace=1) for _ in range(2))
    calls = [k for k in a["metrics"] if k.endswith(".calls")]
    differ = [k for k in calls if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
    used = sum(1 for k in calls if a["metrics"][k]["value"])
    verdict = "repeat exactly" if not differ else f"DIFFER: {differ}"
    clean = all(r["failed"] == 0 and r["correct"] for r in (a, b))
    overhead = [re.search(r"op time (x[0-9.]+)", r["stderr"]).group(1) for r in (a, b)]
    line = (
        f"{workload}: {len(a['metrics'])} per-layer metrics, {used} of {len(calls)} "
        f"functions called, calls {verdict}, "
        f"{'no op failed' if clean else 'OPS FAILED'}; tracing overhead {' and '.join(overhead)}"
    )
    return line, clean and not differ


def spoil_check(workload, check, seed) -> tuple[str, bool]:
    r = run_once(workload, seed, SPOIL_SECONDS, spoil=check)
    bites = r["failed"] > 0 and not r["correct"]
    line = (
        f"{workload}: spoiled {check}: {r['failed']} of {r['attempted']} ops failed "
        f"-> {'bites' if bites else 'DOES NOT BITE'}"
    )
    return line, bites


def main() -> int:
    spec = bench_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-check", action="store_true")
    ap.add_argument("--spoil-check", action="store_true")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    results = []

    for workload in WORKLOADS if args.runs > 0 else ():
        seeds = [args.first_seed + k for k in range(2 * args.runs)]
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        passes = (runs[: args.runs], runs[args.runs :])
        print("\n".join(spread_table(workload, passes, spec["end_to_end"])), flush=True)
    if args.trace_check:
        for workload in WORKLOADS:
            results.append(trace_check(workload, args.first_seed, seconds))
            print(results[-1][0], flush=True)
    if args.spoil_check:
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        from workloads import WORKLOADS as classes

        for workload in WORKLOADS:
            for check in classes[workload].checks:
                results.append(spoil_check(workload, check, args.first_seed))
                print(results[-1][0], flush=True)
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())

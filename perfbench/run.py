"""Run one lmrl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads: corpus, small-worlds,
tall-cut, deep-session, server-fanout (see perfbench/README.md).

The workload runs in a fresh interpreter (``worker.py``) with
``PYTHONHASHSEED=0``, ``src/`` on the path and bytecode caching in
``.bench_build/pycache``.  ``--seconds`` fixes how many rounds of the
workload's operation list run (rounds of nominal length, so every commit
runs the same operations), not a deadline.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
over five fresh interpreters, after one more that warms the bytecode cache.
``--trace 1`` reports per-layer calls and self time from a traced run, and
the tracing overhead on standard error.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # setup_s is the median of this many interpreter starts
DEADLINE_S = 170.0
WORKLOADS = ("corpus", "small-worlds", "tall-cut", "deep-session", "server-fanout")
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def start_worker(args, deadline: float, *extra: str) -> dict:
    """Start a worker, wait for it within the deadline, return its JSON line."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload}: worker did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    from_start = time.perf_counter()
    deadline = from_start + DEADLINE_S
    for need in ("src/lmrl", "corpus"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            raise BenchError(f"no {need}/ next to the benchmark: run from a full checkout")
    extra = ["--spoil", args.spoil] if args.spoil else []
    if args.trace:
        res = start_worker(args, deadline, *extra)
        print(
            f"trace overhead on {args.workload}: op time x{res['trace_overhead']:.2f} "
            f"against an untraced pass of the same ops; table in {res['trace_file']}",
            file=sys.stderr,
        )
        metrics = res["spans"]
    else:
        # the first start fills the bytecode cache and is not counted
        setups = [
            start_worker(args, deadline, "--setup-only", *extra)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ][1:]
        res = start_worker(args, deadline, *extra)
        res["setup_s"] = statistics.median(setups + [res["setup_s"]])
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in UNITS.items()}
    if res["first_error"]:
        print(f"{args.workload}: first failure: {res['first_error']}", file=sys.stderr)
    print(
        f"{args.workload}: attempted {res['attempted']} ops, failed {res['failed']} "
        f"({res['wrong']} with wrong output), {time.perf_counter() - from_start:.1f}s wall",
        file=sys.stderr,
    )
    return {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--spoil",
        metavar="CHECK",
        help="spoil the expected value of this check (the ops that reach it must then fail)",
    )
    args = ap.parse_args()
    try:
        result = run(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

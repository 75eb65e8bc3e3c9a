"""One workload in one fresh interpreter: set up, run, verify, report.

Started by ``run.py`` (never directly), with ``PYTHONHASHSEED`` fixed and
``src/`` on the path.  ``--t0`` is the parent's ``time.perf_counter()``
just before it started this process; the clock is system-wide, so
``setup_s`` spans interpreter start, imports and input generation.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

MIN_OPS = 100  # so that at least ten op times lie beyond the 90th percentile
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spoil", help="the check whose expected value is spoiled")
    args = ap.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, spoil=args.spoil)
    ops = wl.ops
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Inputs made during set-up stay alive for the whole run; freezing them
    # keeps each between-op collection down to what the last op left behind.
    gc.collect()
    gc.freeze()
    rounds = max(-(-MIN_OPS // len(ops)), round(args.seconds / wl.round_s))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    result = measure(wl, ops, rounds, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # the same ops again with the originals restored, after the traced
        # pass so that the spans come from a first pass, as in an untraced run
        tracer.uninstall()
        plain = measure(wl, ops, rounds, None, verify=False)
        result["trace_overhead"] = sum(result.pop("times")) / sum(plain["times"])
        result["spans"] = tracer.metrics()
        result["trace_file"] = os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.seed}.json")
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(result["trace_file"], "w", encoding="utf-8") as f:
            table = {"workload": args.workload, "seed": args.seed, "spans": tracer.table()}
            json.dump(table, f, indent=1)
    else:
        result.update(summarize(result.pop("times"), len(ops), rounds))
    print(json.dumps(result))
    return 0


def measure(wl, ops, rounds, tracer, verify=True) -> dict:
    """Closed loop, one caller: each op starts when the previous returns."""
    times: list[int] = []
    failed = wrong = 0
    first_error = None
    clock = time.perf_counter_ns
    for _ in range(rounds):
        for op in ops:
            arg = wl.prepare(op)
            gc.collect()
            if tracer is not None:
                tracer.active = True
            start = clock()
            try:
                out = wl.run(arg)
                raised = None
            except Exception as e:  # the op failed; the run goes on
                raised = e
            took = clock() - start
            if tracer is not None:
                tracer.active = False
            times.append(took)
            if not verify:
                continue
            if raised is not None:
                failed += 1
                first_error = first_error or f"{type(raised).__name__}: {raised}"
                continue
            try:
                good = wl.verify(op, arg, out)
            except Exception as e:  # an output the checks cannot read is wrong
                good = False
                first_error = first_error or f"check raised {type(e).__name__}: {e}"
            if not good:
                failed += 1
                wrong += 1
    return {
        "times": times,
        "attempted": len(times),
        "failed": failed,
        "wrong": wrong,
        "first_error": first_error,
    }


def summarize(times: list[int], round_len: int, rounds: int) -> dict:
    """Percentiles over all ops; throughput as the median over blocks.

    Blocks are whole rounds when there are ten or more, otherwise thirty
    equal slices of the op sequence.
    """
    size = round_len if rounds >= 10 else max(1, len(times) // 30)
    blocks = [times[k : k + size] for k in range(0, len(times) - size + 1, size)]
    ms = sorted(t / 1e6 for t in times)
    return {
        "ops_per_s": statistics.median(len(b) / (sum(b) / 1e9) for b in blocks),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


if __name__ == "__main__":
    sys.exit(main())

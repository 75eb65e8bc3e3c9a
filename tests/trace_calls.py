"""Seed-1 traced call counts of every benchmark workload, pinned.

``golden/calls_seed1.json`` maps each workload to the ``.calls`` metrics of
``perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1``.  Counts
are deterministic for a seed, so a change that moves one either means to
(and regenerates the file) or shows an unintended change of work.

    python perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python tests/trace_calls.py W    # check one run
    python tests/trace_calls.py --write                # regenerate

Run from the repository root.  A check exits non-zero, printing each
metric that differs, when the run failed an operation or a count moved.
"""

import json
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "calls_seed1.json")
WORKLOADS = ("corpus", "small-worlds", "tall-cut", "deep-session", "server-fanout")


def calls(result: dict) -> dict:
    """The ``.calls`` metrics of one run.py result."""
    return {k: m["value"] for k, m in sorted(result["metrics"].items()) if k.endswith(".calls")}


def run(workload: str) -> dict:
    """The result line of one seed-1 traced run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload: str, result: dict) -> list[str]:
    """One line per way ``result`` differs from the pinned run."""
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)[workload]
    got = calls(result)
    bad = [
        f"{k}: {want.get(k)} pinned, {got.get(k)} now"
        for k in sorted(set(want) | set(got))
        if want.get(k) != got.get(k)
    ]
    if result["correct"] is not True or result["failed"] != 0:
        bad.insert(0, f"correct {result['correct']}, failed {result['failed']}")
    return bad


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        table = {w: calls(run(w)) for w in WORKLOADS}
        with open(GOLDEN, "w", encoding="utf-8", newline="\n") as f:
            json.dump(table, f, indent=1)
            f.write("\n")
    else:
        name = sys.argv[1]
        bad = check(name, json.loads(sys.stdin.read()))
        print(f"{name}: " + ("calls as pinned" if not bad else f"{len(bad)} differ"))
        for line in bad:
            print("  " + line)
        sys.exit(1 if bad else 0)

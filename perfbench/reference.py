"""Reference figures for the README; not part of the measured benchmark.

    python3 perfbench/reference.py

Run it from the repository root.  Prints:

- growth exponents: the op time of tall-cut, deep-session and
  server-fanout at doubling sizes, and the log-log slope between the two
  largest sizes;
- import time of ``lmrl.cli`` in a fresh interpreter, with and without a
  warm bytecode cache;
- the spread of a fixed pure-Python reference loop, as the median time per
  one-second window over 30 windows.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

SEED = 1
SWEEPS = {
    "tall-cut": (38, 75, 150, 300),
    "deep-session": (12, 25, 50, 100),
    "server-fanout": (10, 20, 40, 80),
}


def median_op_ms(name: str, size: int, reps: int = 5) -> float:
    import workloads as w
    from lmrl.cutelim import cut2
    from lmrl.derivation import DId, check
    from lmrl.parser import parse_problem
    from lmrl.processes import check_subject_reduction, normalize

    rng = random.Random(SEED)
    times = []
    for _ in range(reps):
        if name == "tall-cut":
            tower = w.build_tower(w.tower_spec(rng, size))
            ident = DId(w.ATOMS[0], (w.rl.roleset(w.B2, [0]), w.rl.roleset(w.B2, [1])))
            run = lambda: check(cut2(tower, 0, ident, 1))  # noqa: E731
        elif name == "deep-session":
            pf = parse_problem(w.deep_session(rng, size)[0])
            run = lambda: check_subject_reduction(pf.process, dict(pf.env), 10 * size)  # noqa: E731
        else:
            pf = parse_problem(w.server_fanout(rng, size)[0])
            run = lambda: normalize(pf.process, 20 * size)  # noqa: E731
        gc.collect()
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def import_ms(cache: bool) -> tuple[float, float]:
    """Median wall ms of 7 starts importing lmrl.cli, and of 7 bare starts."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if cache:
            env["PYTHONPYCACHEPREFIX"] = tmp
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, "-c", "import lmrl.cli"]
        subprocess.run(cmd, env=env, check=True)  # warms the cache when on
        times = []
        for _ in range(7):
            start = time.perf_counter()
            subprocess.run(cmd, env=env, check=True)
            times.append((time.perf_counter() - start) * 1e3)
        base = []
        for _ in range(7):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
            base.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), statistics.median(base)


def reference_loop(windows: int = 30) -> list[float]:
    def work():
        s = 0
        for i in range(20000):
            s += i * i
        return s

    medians = []
    for _ in range(windows):
        end = time.perf_counter() + 1.0
        xs = []
        while time.perf_counter() < end:
            start = time.perf_counter()
            work()
            xs.append((time.perf_counter() - start) * 1e3)
        medians.append(statistics.median(xs))
    return medians


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)

    print("growth (median of 5 fresh inputs per size; slope between the two largest):")
    for name, sizes in SWEEPS.items():
        ms = [median_op_ms(name, n) for n in sizes]
        slope = math.log(ms[-1] / ms[-2]) / math.log(sizes[-1] / sizes[-2])
        points = ", ".join(f"n={n}: {t:.1f} ms" for n, t in zip(sizes, ms))
        print(f"  {name}: {points}; exponent {slope:.2f}")

    for cache in (True, False):
        imp, bare = import_ms(cache)
        print(
            f"import lmrl.cli, bytecode cache {'on (warm)' if cache else 'off'}: "
            f"{imp:.0f} ms per interpreter start, of which {bare:.0f} ms is a bare start"
        )

    loop = reference_loop()
    q1, med, q3 = statistics.quantiles(loop, n=4)
    print(
        f"reference loop, median per 1 s window over {len(loop)} windows: "
        f"min {min(loop):.3f} ms, q1 {q1:.3f}, median {med:.3f}, q3 {q3:.3f}, "
        f"max {max(loop):.3f}; spread (q3 - q1) / median {(q3 - q1) / med:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing by wrapping the public functions of each lmrl module.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses, so self times add up to the
time covered by the outermost spans.  Spans are folded into per-function
totals in memory as they close (a small-worlds run makes millions of
them); nothing is written until the run ends.  Wrappers record only while
the tracer is switched on, which the harness does around the timed call
alone, so input preparation and output checks leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> functions ("Class.method" for methods, wrapped on the class and
# on every subclass that overrides it)
LAYERS = {
    "roles": ["roleset", "complement", "intersect", "is_disjoint", "is_partition_of_full"],
    "syntax": ["formula_key", "IFormula.key", "Sequent.__eq__", "subst_formula", "fresh_name"],
    "derivation": [
        "check",
        "height",
        "dualize",
        "Derivation.major_positions",
        "Derivation.context_maps",
    ],
    "cutelim": ["cut2", "cut2_spill", "cutn", "eta_expand", "prove_bounded", "subst_derivation"],
    "processes": [
        "typecheck",
        "free_names",
        "rename_free",
        "step_detailed",
        "normalize",
        "check_subject_reduction",
    ],
    "parser": ["parse_problem", "tokenize"],
    "printer": ["format_derivation", "format_process", "format_sequent"],
    "cli": ["main", "build_parser"],
}

SPANS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.calls = [0] * len(SPANS)
        self.self_ns = [0] * len(SPANS)
        self.total_ns = [0] * len(SPANS)
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace, name, original)

    def install(self, extra_modules=()):
        """Wrap every target in its module, in every module that imported
        it by name, and in every overriding subclass."""
        namespaces = [m for name, m in sys.modules.items() if name.startswith("lmrl")]
        namespaces += list(extra_modules)
        for idx, span in enumerate(SPANS):
            mod_name, _, attr = span.partition(".")
            mod = importlib.import_module(f"lmrl.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                for owner in (cls, *_subclasses(cls)):
                    if meth in owner.__dict__:
                        self._patch(owner, meth, self._wrap(owner.__dict__[meth], idx))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, idx)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, name, wrapped)

    def uninstall(self):
        """Put every original back, so later calls run the untraced program."""
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()

    def _patch(self, ns, name, new):
        self._patched.append((ns, name, vars(ns)[name]))
        setattr(ns, name, new)

    def _wrap(self, fn, idx):
        tracer, stack, clock = self, self._stack, time.perf_counter_ns
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = stack.pop()
                calls[idx] += 1
                self_ns[idx] += took - inner
                total_ns[idx] += took
                if stack:
                    stack[-1] += took

        return span

    def metrics(self) -> dict:
        out = {}
        for idx, span in enumerate(SPANS):
            out[f"{span}.calls"] = {"value": self.calls[idx], "unit": "count"}
            out[f"{span}.self_ms"] = {"value": self.self_ns[idx] / 1e6, "unit": "ms"}
        return out

    def table(self) -> list[dict]:
        return [
            {
                "span": span,
                "calls": self.calls[idx],
                "self_ms": self.self_ns[idx] / 1e6,
                "total_ms": self.total_ns[idx] / 1e6,
            }
            for idx, span in enumerate(SPANS)
        ]

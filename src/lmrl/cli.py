"""Command-line driver.

Exit codes: 0 success, 1 semantic failure (invalid proof, type error,
unprovable goal, stuck process where progress was expected), 2 usage or
syntax errors, 3 internal error (any other exception, such as running out
of Python stack on a very deep input).  A standard output closed early (as
by ``| head``) ends the command quietly with exit 1.  ``--json``, given
after the subcommand, switches diagnostics to flat ``key: value`` lines (one
pair per line; no quoting, values verbatim).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import roles as rl
from .cutelim import (
    CutSpec,
    CutError,
    cut2,
    cut2_disj,
    cut2_spill,
    cut2_spill_disj,
    cutn,
    cutn_disj,
    eta_expand,
    eta_expand_disj,
    prove_bounded,
    split,
    co_split_disj,
    translate_cll2,
)
from .derivation import Calculus, MalformedDerivation, RuleViolation, check, dualize
from .parser import (
    DerivationFormError,
    ParseError,
    parse_problem,
    parse_formula_text,
    parse_roleset_text,
    parse_terms_text,
)
from .printer import (
    format_derivation,
    format_formula,
    format_process,
    format_sequent,
)
from .processes import (
    ProcessTypeError,
    check_subject_reduction,
    has_cut,
    normalize,
    step_detailed,
    typecheck,
)


class Out:
    def __init__(self, as_kv: bool):
        self.as_kv = as_kv

    def kv(self, key: str, value):
        print(f"{key}: {value}")

    def payload(self, key: str, text: str):
        """Pretty output; under --json only single-line payloads appear."""
        if not self.as_kv:
            print(text)
        elif "\n" not in text:
            self.kv(key, text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _calc(ns) -> Calculus:
    return Calculus.DISJ if getattr(ns, "calc", "conj") == "disj" else Calculus.CONJ


def _load(path: str, kind: str):
    pf = parse_problem(_read(path))
    if pf.kind != kind:
        raise UsageError(f"{path}: expected a {kind} problem, found {pf.kind}")
    return pf


class UsageError(Exception):
    pass


def positive_int(text: str) -> int:
    """A count of at least one: a fuel, a depth or a number of steps."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return n


def role_base(text: str) -> rl.RoleBase:
    """``omega`` or a count of at least two roles."""
    return rl.OMEGA if text == "omega" else rl.finite_base(int(text))


def _occ_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s != "")
    except ValueError:
        raise UsageError(f"bad occurrence list {text!r}")


def _derive(ns, out: Out, conj, disj, *args) -> int:
    """Apply ``conj`` or, in the disjunctive calculus, ``disj`` to ``args``;
    re-check the derivation it returns and print it."""
    calc = _calc(ns)
    d = (conj if calc is Calculus.CONJ else disj)(*args)
    check(d, calc)
    out.kv("status", "ok")
    out.payload("derivation", format_derivation(d))
    return 0


def cmd_check(ns, out: Out) -> int:
    pf = _load(ns.file, "derivation")
    goal = check(pf.derivation, _calc(ns))
    out.kv("status", "ok")
    out.kv("conclusion", format_sequent(goal))
    return 0


def cmd_prove(ns, out: Out) -> int:
    pf = _load(ns.file, "sequent")
    pool = None
    if ns.witnesses:
        pool = parse_terms_text(ns.witnesses)
    d = prove_bounded(pf.sequent, _calc(ns), ns.depth, pool)
    if d is None:
        out.kv("status", "unproved")
        out.kv("depth", ns.depth)
        return 1
    out.kv("status", "proved")
    out.payload("derivation", format_derivation(d))
    return 0


def cmd_eta(ns, out: Out) -> int:
    a = parse_formula_text(ns.formula, ns.base)
    parts = [parse_roleset_text(s, ns.base) for s in ns.parts.split(";")]
    return _derive(ns, out, eta_expand, eta_expand_disj, a, parts)


def _two_derivations(ns):
    p1 = _load(ns.file1, "derivation")
    p2 = _load(ns.file2, "derivation")
    if p1.base != p2.base:
        raise UsageError("the two derivations use different bases")
    return p1.derivation, p2.derivation


def cmd_cut2(ns, out: Out) -> int:
    d1, d2 = _two_derivations(ns)
    return _derive(ns, out, cut2, cut2_disj, d1, ns.occ1, d2, ns.occ2)


def cmd_cutspill(ns, out: Out) -> int:
    d1, d2 = _two_derivations(ns)
    spec = CutSpec([(d1, _occ_list(ns.occs1)), (d2, _occ_list(ns.occs2))])
    return _derive(ns, out, cut2_spill, cut2_spill_disj, spec)


def cmd_cutn(ns, out: Out) -> int:
    groups = [_occ_list(g) for g in ns.occs.split(":")]
    if len(groups) != len(ns.files):
        raise UsageError("--occs needs one colon-separated group per file")
    parts = []
    base = None
    for path, occs in zip(ns.files, groups):
        pf = _load(path, "derivation")
        if base is None:
            base = pf.base
        elif pf.base != base:
            raise UsageError("derivations use different bases")
        parts.append((pf.derivation, occs))
    return _derive(ns, out, cutn, cutn_disj, CutSpec(parts))


def cmd_split(ns, out: Out) -> int:
    pf = _load(ns.file, "derivation")
    try:
        s1_txt, s2_txt = ns.into.split(";")
    except ValueError:
        raise UsageError("--into takes two role sets separated by ';'")
    r1 = parse_roleset_text(s1_txt, pf.base)
    r2 = parse_roleset_text(s2_txt, pf.base)
    return _derive(ns, out, split, co_split_disj, pf.derivation, ns.occ, r1, r2)


def cmd_dualize(ns, out: Out) -> int:
    pf = _load(ns.file, "derivation")
    d = dualize(pf.derivation)
    out.kv("status", "ok")
    out.payload("derivation", format_derivation(d))
    return 0


def cmd_cll2(ns, out: Out) -> int:
    pf = _load(ns.file, "sequent")
    left, right = translate_cll2(pf.sequent)
    out.kv("left", ", ".join(format_formula(a) for a in left))
    out.kv("right", ", ".join(format_formula(a) for a in right))
    return 0


def cmd_typecheck(ns, out: Out) -> int:
    pf = _load(ns.file, "process")
    td = typecheck(pf.process, dict(pf.env))
    out.kv("status", "ok")
    out.kv("rule", td.rule)
    return 0


def cmd_step(ns, out: Out) -> int:
    pf = _load(ns.file, "process")
    p = pf.process
    for k in range(ns.count):
        r = step_detailed(p)
        if r is None:
            out.kv("status", "normal-form")
            out.kv("steps", k)
            out.payload("process", format_process(p))
            return 0
        p = r.process
        out.kv(f"step{k + 1}", r.rule)
    out.payload("process", format_process(p))
    return 0


def cmd_run(ns, out: Out) -> int:
    pf = _load(ns.file, "process")
    res = normalize(pf.process, ns.fuel, keep_trace=ns.trace)
    if ns.trace:
        for k, t in enumerate(res.trace):
            out.kv(f"step{k + 1}", t.rule)
    out.kv("steps", res.steps)
    out.kv("exhausted", "yes" if res.exhausted else "no")
    stuck = has_cut(res.process)
    out.kv("cut-free", "no" if stuck else "yes")
    if stuck and not res.exhausted:
        out.kv("stuck", "a link matches no principal pattern and no conversion applies")
    out.payload("process", format_process(res.process))
    return 1 if res.exhausted or stuck else 0


def cmd_sr_check(ns, out: Out) -> int:
    pf = _load(ns.file, "process")
    rep = check_subject_reduction(pf.process, dict(pf.env), ns.fuel)
    out.kv("status", "ok" if rep.ok else "violated")
    out.kv("steps", rep.steps)
    out.kv("cut-free", "yes" if rep.cut_free else "no")
    if rep.failure:
        out.kv("failure", rep.failure)
    return 0 if rep.ok and not rep.exhausted else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lmrl", description="multirole proof kernel and process toolkit"
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="flat key: value diagnostics")

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, help="check a derivation")
    p.add_argument("file")
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")

    p = add("prove", cmd_prove, help="bounded proof search on a sequent")
    p.add_argument("file")
    p.add_argument("--depth", type=positive_int, required=True)
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")
    p.add_argument("--witnesses", help="comma-separated extra witness terms")

    p = add("eta", cmd_eta, help="identity expansion of a formula")
    p.add_argument("--base", type=role_base, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--parts", required=True, help="role sets separated by ';'")
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")

    p = add("cut2", cmd_cut2, help="cut two derivations at complementary occurrences")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--occ1", type=int, required=True)
    p.add_argument("--occ2", type=int, required=True)
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")

    p = add("cutspill", cmd_cutspill, help="two-cut with a residual occurrence")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--occs1", required=True)
    p.add_argument("--occs2", required=True)
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")

    p = add("cutn", cmd_cutn, help="cut across any number of derivations")
    p.add_argument("files", nargs="+")
    p.add_argument("--occs", required=True, help="per-file occurrence groups, ':'-separated")
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")

    p = add("split", cmd_split, help="split one occurrence into two role sets")
    p.add_argument("file")
    p.add_argument("--occ", type=int, required=True)
    p.add_argument("--into", required=True, help="two role sets separated by ';'")
    p.add_argument("--calc", choices=["conj", "disj"], default="conj")

    p = add("dualize", cmd_dualize, help="complement every role set")
    p.add_argument("file")

    p = add("cll2", cmd_cll2, help="two-role classical translation of a sequent")
    p.add_argument("file")

    p = add("typecheck", cmd_typecheck, help="typecheck a process against its environment")
    p.add_argument("file")

    p = add("step", cmd_step, help="single-step a process")
    p.add_argument("file")
    p.add_argument("-n", dest="count", type=positive_int, default=1)

    p = add("run", cmd_run, help="normalize a process")
    p.add_argument("file")
    p.add_argument("--fuel", type=positive_int, required=True)
    p.add_argument("--trace", action="store_true")

    p = add("sr-check", cmd_sr_check, help="re-typecheck along the whole reduction")
    p.add_argument("file")
    p.add_argument("--fuel", type=positive_int, required=True)

    return ap


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send the rest of the output, and the
        # flush at interpreter exit, to devnull so no traceback follows
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first command and kept for the rest."""
    return build_parser()


def _dispatch(argv) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    out = Out(ns.json)
    try:
        return ns.fn(ns, out)
    except (ParseError, UsageError) as e:
        out.kv("error", e)
        return 2
    except FileNotFoundError as e:
        out.kv("error", e)
        return 2
    except RuleViolation as e:
        out.kv("status", "invalid")
        out.kv("rule", e.rule)
        out.kv("at", ".".join(map(str, e.path)) or "root")
        out.kv("reason", e.reason)
        return 1
    except ProcessTypeError as e:
        out.kv("status", "ill-typed")
        out.kv("reason", e.reason)
        out.kv("at", ".".join(map(str, e.path)) or "root")
        return 1
    except (CutError, MalformedDerivation, DerivationFormError, ValueError) as e:
        out.kv("status", "failed")
        out.kv("reason", e)
        return 1
    except BrokenPipeError:
        raise
    except Exception as e:
        out.kv("status", "internal-error")
        out.kv("reason", f"{type(e).__name__}: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())

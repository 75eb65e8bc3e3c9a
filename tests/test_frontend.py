import glob
import os
import subprocess
import sys

import pytest

import lmrl
from lmrl import roles as rl
from lmrl.cli import main
from lmrl.parser import (
    Cursor,
    DerivationFormError,
    ParseError,
    parse_formula_text,
    parse_problem,
    parse_process,
    tokenize,
)
from lmrl.printer import (
    format_derivation,
    format_formula,
    format_process,
    format_sequent,
)
from lmrl.processes import Cut, alpha_equiv
from lmrl.syntax import Var
from worlds import deep_session

ROOT = os.path.join(os.path.dirname(__file__), "..")
LOGIC = os.path.join(ROOT, "corpus", "logic")
PROC = os.path.join(ROOT, "corpus", "proc")

B2 = rl.finite_base(2)


# ---------------------------------------------------------------------------
# grammar round trips


@pytest.mark.parametrize(
    "text",
    [
        "a",
        "p(x, f(y, z))",
        "one[1]",
        "a *[0] b",
        "(a *[0] b) &[1] one[0]",
        "![1] (a &[0] b)",
        "all[0] x. p(x) *[1] a",
        "msg[0,1] one[0]",
    ],
)
def test_formula_round_trip(text):
    f = parse_formula_text(text, B2)
    again = parse_formula_text(format_formula(f), B2)
    assert f == again


def test_formula_precedence():
    f = parse_formula_text("![0] a *[1] b", B2)
    # prefix binds tighter than the infix connectives
    assert format_formula(f) == "![0] a *[1] b"
    assert f == parse_formula_text("(![0] a) *[1] b", B2)


def test_sequent_round_trip_corpus():
    for path in glob.glob(os.path.join(LOGIC, "*.seq")):
        with open(path) as f:
            pf = parse_problem(f.read())
        again = parse_problem(f"base {pf.base.size}\n{format_sequent(pf.sequent)}")
        assert again.sequent == pf.sequent


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(LOGIC, "*.drv")))
)
def test_derivation_round_trip(path):
    with open(path) as f:
        pf = parse_problem(f.read())
    text = f"base {pf.base.size}\n{format_derivation(pf.derivation)}"
    again = parse_problem(text)
    assert again.derivation.concl == pf.derivation.concl
    assert format_derivation(again.derivation) == format_derivation(pf.derivation)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(PROC, "*.pi"))))
def test_process_round_trip(path):
    with open(path) as f:
        pf = parse_problem(f.read())
    text = format_process(pf.process)
    c = Cursor(tokenize(text))
    again = parse_process(c, pf.base)
    assert alpha_equiv(again, pf.process)


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as err:
        parse_problem("base 2\n|- [{0,1,2}] a")
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# rejection paths: one malformed input per way a node or header can fail

LEAF = "(rule id :concl |- [{0}] a, [{1}] a)"


def _nested(node: str) -> str:
    # ``node`` is the only premise of a valid one-neg step, at line 3, column 3
    return (
        "base 2\n(rule one-neg :major 2 :concl |- [{0}] a, [{1}] a, [{1}] one[0]\n  "
        + node
        + ")\n"
    )


BAD_NODES = [
    # wrong arity
    ("base 2\n(rule one-neg :major 2 :concl |- [{0}] a, [{1}] a, [{1}] one[0])\n",
     "2:1: one-neg takes 1 premise(s)"),
    (_nested(f"(rule id :concl |- [{{0}}] a, [{{1}}] a {LEAF})"), "3:3: id takes 0 premise(s)"),
    (_nested(f"(rule with-pos :major 2 :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: with-pos takes 2 premise(s)"),
    # missing and out-of-range :major
    (_nested(f"(rule one-neg :concl |- [{{0}}] a, [{{1}}] a, [{{1}}] one[0] {LEAF})"),
     "3:3: rule needs a valid :major index"),
    (_nested(f"(rule one-neg :major 3 :concl |- [{{0}}] a, [{{1}}] a, [{{1}}] one[0] {LEAF})"),
     "3:3: rule needs a valid :major index"),
    # wrong major connective
    (_nested(f"(rule one-neg :major 1 :concl |- [{{1}}] one[0], [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: major is not a unit"),
    (_nested(f"(rule tensor-neg :major 0 :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: major is not a tensor"),
    (_nested(f"(rule with-neg-l :major 1 :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: major is not an offer type"),
    (_nested(f"(rule bang-pos :major 1 :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: major is not banged"),
    (_nested(f"(rule bang-neg-derelict :major 0 :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: major is not banged"),
    (_nested(f"(rule forall-neg :major 1 :witness c :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: needs a quantified major and :witness"),
    (_nested(f"(rule forall-pos :major 1 :eigen z :concl |- [{{0}}] a, [{{1}}] a {LEAF})"),
     "3:3: needs a quantified major and :eigen"),
    # a premise lacking the occurrence the rule consumes
    (_nested(f"(rule tensor-neg :major 0 :concl |- [{{1}}] a *[0] b {LEAF})"),
     "3:3: premise conclusion lacks the needed occurrence"),
    ("base 2\n(rule tensor-pos :major 2 :concl |- [{0}] a, [{0}] a, [{1}] a *[0] b\n"
     f"  {LEAF}\n  {LEAF})\n",
     "2:1: premise conclusion lacks the needed occurrence"),
    (_nested(f"(rule bang-neg-contract :major 0 :concl |- [{{1}}] ![0] a {LEAF})"),
     "3:3: premise conclusion lacks the needed occurrence"),
    # forall rules without their term
    (_nested(f"(rule forall-neg :major 0 :concl |- [{{1}}] all[0] x. a {LEAF})"),
     "3:3: needs a quantified major and :witness"),
    (_nested(f"(rule forall-pos :major 0 :concl |- [{{0}}] all[0] x. a {LEAF})"),
     "3:3: needs a quantified major and :eigen"),
    # unknown rule, empty identity, one-pos over anything but one unit
    (_nested(f"(rule cut :major 0 :concl |- [{{0}}] a {LEAF})"), "3:3: unknown rule 'cut'"),
    ("base 2\n(rule id :concl |-)\n", "2:1: empty identity"),
    ("base 2\n(rule one-pos :concl |- [{0}] a)\n", "2:1: one-pos concludes a single unit"),
    ("base 2\n(rule one-pos :concl |- [{0}] one[0], [{0}] one[0])\n",
     "2:1: one-pos concludes a single unit"),
]


@pytest.mark.parametrize("text,message", BAD_NODES)
def test_malformed_rule_application_rejected(text, message, capsys, tmp_path):
    with pytest.raises(DerivationFormError) as err:
        parse_problem(text)
    assert str(err.value) == message
    p = tmp_path / "bad.drv"
    p.write_text(text)
    code, out = run(capsys, "check", str(p))
    assert code == 1 and "status: failed" in out and message in out


BAD_HEADERS = [
    # a single role where a transfer header needs a role pair
    ("x{0}[send]@1.x{0}()@0.end", 1, 12),
    ("x{0}(recv)@{0}.x{0}()@0.end", 1, 14),
    # empty input continues with end only
    ("x{0}()@0.x{0}()@0.end", 1, 10),
    ("x{0}()@0.(x{0}()@0.end)", 1, 10),
    # an offer separates its branches with a comma
    ("x{0}(case)@0.( x{0}()@0.end | x{0}()@0.end )", 1, 29),
    # name input separates its branches with a bar
    ("x{0}(y)@0.( y{0}()@0.end , x{0}()@0.end )", 1, 26),
    # an unknown bracket word reads as a bound name, so the role is wrong
    ("x{0}[sned]@{0,1}.x{0}()@0.end", 1, 12),
    # a bracket the sigil does not take, a sigil without a bound name
    ("!x{0}[y]@0.y{0}()@0.end", 1, 6),
    ("?x{0}(y)@0.y{0}()@0.end", 1, 6),
    ("!x{0}()@0.x{0}()@0.end", 1, 7),
    ("x{0}{1}@0.end", 1, 5),
]


@pytest.mark.parametrize("proc,line,col", BAD_HEADERS)
def test_malformed_process_header_rejected(proc, line, col, capsys, tmp_path):
    text = f"base 2\nproc {proc}\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    # reported on the file's second line, ``col`` columns into the process
    assert (err.value.line, err.value.col) == (line + 1, col + 5)
    p = tmp_path / "bad.pi"
    p.write_text(text)
    code, out = run(capsys, "typecheck", str(p))
    assert code == 2 and f"{line + 1}:{col + 5}:" in out


def test_role_out_of_base_rejected():
    with pytest.raises(ParseError):
        parse_problem("base 2\n|- [{0}] one[5]")


def test_comments_and_whitespace():
    pf = parse_problem("base 2  # two roles\n|- [{0}] a , [{1}] a\n# done\n")
    assert len(pf.sequent) == 2


def test_omega_base():
    pf = parse_problem("base omega\n|- [~{0}] a, [{0}] a")
    assert pf.sequent[0].roles.cofinite


def test_nested_lists_cost_one_frame_per_level():
    # argument lists and cut parts 600 deep parse at the default recursion
    # limit, which two frames per level would exceed
    n = 600
    assert sys.getrecursionlimit() < 2 * n
    t = parse_formula_text("p(" * n + "x" + ")" * n, rl.finite_base(2))
    for _ in range(n):
        (t,) = t.args
    assert t == Var("x")
    proc = "new x.(" * n + " x{0}()@0.end" + " | x{1}()@0.end )" * n
    assert isinstance(parse_process(Cursor(tokenize(proc)), rl.finite_base(2)), Cut)


# ---------------------------------------------------------------------------
# the command line


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_check_ok(capsys):
    code, out = run(capsys, "check", os.path.join(LOGIC, "id-pos.drv"))
    assert code == 0 and "status: ok" in out


def test_cli_check_partition_failure(capsys):
    code, out = run(capsys, "check", os.path.join(LOGIC, "id-neg.drv"))
    assert code == 1
    assert "partition" in out


def test_cli_check_disj(capsys):
    code, out = run(capsys, "check", os.path.join(LOGIC, "id-pos.drv"), "--calc", "disj")
    assert code == 1  # a conjunctive identity is not a disjunctive one


def test_cli_prove(capsys, tmp_path):
    code, out = run(capsys, "prove", os.path.join(LOGIC, "id3.seq"), "--depth", "1")
    assert code == 0 and "proved" in out
    code, out = run(capsys, "prove", os.path.join(LOGIC, "underivable.seq"), "--depth", "4")
    assert code == 1 and "unproved" in out


def test_cli_prove_output_reparses(capsys, tmp_path):
    code, out = run(capsys, "prove", os.path.join(LOGIC, "tensor-goal.seq"), "--depth", "3")
    assert code == 0
    body = out.split("\n", 1)[1]
    reparsed = parse_problem("base 2\n" + body)
    assert reparsed.kind == "derivation"


def test_cli_eta_and_cut2(capsys, tmp_path):
    code, out = run(capsys, "eta", "--base", "2", "--formula", "a *[0] a", "--parts", "{0};{1}")
    assert code == 0
    d1 = tmp_path / "d1.drv"
    d1.write_text("base 2\n(rule id :concl |- [{0}] a, [{1}] a)\n")
    d2 = tmp_path / "d2.drv"
    d2.write_text("base 2\n(rule id :concl |- [{1}] a, [{0}] a)\n")
    code, out = run(capsys, "cut2", str(d1), str(d2), "--occ1", "1", "--occ2", "1")
    assert code == 0 and "(rule id" in out


def test_cli_cutn_and_split(capsys, tmp_path):
    f = {}
    sets_by_name = {"a": "[{0,1}] a, [{2}] a", "b": "[{0,2}] a, [{1}] a", "c": "[{1,2}] a, [{0}] a"}
    for name, sets in sets_by_name.items():
        p = tmp_path / f"{name}.drv"
        p.write_text(f"base 3\n(rule id :concl |- {sets})\n")
        f[name] = str(p)
    code, out = run(capsys, "cutn", f["a"], f["b"], f["c"], "--occs", "0:0:0")
    assert code == 0
    code, out = run(capsys, "split", f["a"], "--occ", "0", "--into", "{0};{1}")
    assert code == 0


def test_cli_dualize_and_cll2(capsys):
    code, out = run(capsys, "dualize", os.path.join(LOGIC, "id-pos.drv"))
    assert code == 0 and "[{1,2}]" in out
    code, out = run(capsys, "cll2", os.path.join(LOGIC, "cll-mixed.seq"))
    assert code == 0
    assert "left: b, one[0]" in out
    assert "right: a, one[0]" in out


def test_cli_typecheck_run_sr(capsys):
    unit3 = os.path.join(PROC, "unit3.pi")
    code, out = run(capsys, "typecheck", unit3)
    assert code == 0
    code, out = run(capsys, "run", unit3, "--fuel", "100")
    assert code == 0 and "cut-free: yes" in out
    code, out = run(capsys, "sr-check", unit3, "--fuel", "100")
    assert code == 0 and "status: ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        "sr-check proc/unit2.pi --fuel 0",
        "run proc/unit2.pi --fuel 0",
        "run proc/unit2.pi --fuel -3",
        "prove logic/id3.seq --depth 0",
        "step proc/unit2.pi -n -1",
        "step proc/unit2.pi -n 0",
    ],
)
def test_cli_counts_must_be_positive(argv, capsys):
    cmd, path, *rest = argv.split()
    assert main([cmd, os.path.join(LOGIC, "..", path), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be a positive integer" in captured.err


def test_cli_json_follows_the_subcommand(capsys):
    unit3 = os.path.join(PROC, "unit3.pi")
    code, out = run(capsys, "run", unit3, "--fuel", "10", "--json")
    assert code == 0 and out.strip().split("\n")[-1].startswith("process: ")
    # before the subcommand it is a usage error, not silently ignored
    code, out = run(capsys, "--json", "run", unit3, "--fuel", "10")
    assert code == 2 and out == ""


def test_cli_typecheck_rejects(capsys):
    code, out = run(capsys, "typecheck", os.path.join(PROC, "neg-ncut.pi"))
    assert code == 1 and "ill-typed" in out


def test_cli_step_and_trace(capsys):
    code, out = run(capsys, "step", os.path.join(PROC, "bang-replicate.pi"), "-n", "2")
    assert code == 0 and "step1: bang-replicate" in out and "step2: bang-spawn" in out
    code, out = run(capsys, "run", os.path.join(PROC, "msg-transfer.pi"), "--fuel", "10", "--trace")
    assert code == 0 and "step1: msg-transfer" in out


def test_cli_run_output_reparses(capsys):
    code, out = run(capsys, "run", os.path.join(PROC, "tensor3.pi"), "--fuel", "100")
    assert code == 0
    final = out.strip().split("\n")[-1]
    c = Cursor(tokenize(final))
    parse_process(c, rl.finite_base(3))


def test_cli_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.seq"
    p.write_text("base 2\n|- [{5}] a\n")
    code, out = run(capsys, "prove", str(p), "--depth", "1")
    assert code == 2

    q = tmp_path / "junk.seq"
    q.write_text("% nonsense\n")
    code, out = run(capsys, "prove", str(q), "--depth", "1")
    assert code == 2


def test_cli_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("base 2\n|- [{0}] a, [{1}] a\n"))
    code, out = run(capsys, "prove", "-", "--depth", "1")
    assert code == 0


def test_cli_matches_library(capsys):
    # the driver is a thin adapter over the kernel calls
    from lmrl.cutelim import prove_bounded
    from lmrl.derivation import Calculus

    with open(os.path.join(LOGIC, "tensor-goal.seq")) as f:
        pf = parse_problem(f.read())
    direct = prove_bounded(pf.sequent, Calculus.CONJ, 3)
    code, out = run(capsys, "prove", os.path.join(LOGIC, "tensor-goal.seq"), "--depth", "3")
    assert code == 0
    assert format_derivation(direct) in out


def test_cli_malformed_rule_application_exit_1(capsys, tmp_path):
    # readable s-expression, but the stated conclusion is not the rule's
    p = tmp_path / "wrong.drv"
    p.write_text("base 2\n(rule id :concl |- [{0}] a, [{1}] b)\n")
    code, out = run(capsys, "check", str(p))
    assert code == 1 and "status: failed" in out


def test_cli_run_flags_stuck_cut(capsys, tmp_path):
    # ill-typed mixture of headers on the linked name: no rule applies
    p = tmp_path / "stuck.pi"
    p.write_text(
        "base 2\nproc new x: one[0] .( x{0}()@0.end"
        " | x{1}(case)@0.( x{1}()@0.end , x{1}()@0.end ) )\n"
    )
    code, out = run(capsys, "run", str(p), "--fuel", "10")
    assert code == 1 and "stuck" in out


def test_cli_prove_with_witness_pool(capsys, tmp_path):
    p = tmp_path / "q.seq"
    p.write_text("base 2\n|- [{0}] all[1] x. one[0], [{1}] all[1] x. one[0]\n")
    code, out = run(capsys, "prove", str(p), "--depth", "4")
    assert code == 1  # no witness available anywhere
    code, out = run(capsys, "prove", str(p), "--depth", "4", "--witnesses", "c")
    assert code == 0 and "proved" in out


def test_cli_prove_rejects_trailing_witness_input(capsys):
    goal = os.path.join(LOGIC, "tensor-goal.seq")
    for text, rest in (("c )", ")"), ("c d", "d"), ("c, f(x) g", "g")):
        code, out = run(capsys, "prove", goal, "--depth", "3", "--witnesses", text)
        assert code == 2 and out.startswith(f"error: 1:{text.index(rest) + 1}: trailing input")
        assert f"trailing input {rest!r}" in out
    code, out = run(capsys, "prove", goal, "--depth", "3", "--witnesses", "c, f(x)")
    assert code == 0 and "proved" in out


def test_cli_internal_error_exit_3(capsys, tmp_path):
    # deeper than the Python stack allows: reported, not a traceback
    p = tmp_path / "deep.pi"
    p.write_text(deep_session(1500))
    for argv in (["typecheck", str(p)], ["run", str(p), "--fuel", "5000"]):
        code, out = run(capsys, *argv)
        assert code == 3
        assert "status: internal-error" in out and "reason: RecursionError" in out


def test_cli_closed_stdout_prints_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    src = os.path.dirname(os.path.dirname(os.path.abspath(lmrl.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lmrl.cli", "typecheck", os.path.join(PROC, "unit3.pi")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == b""

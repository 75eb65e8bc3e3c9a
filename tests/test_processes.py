import glob
import os
import time
from dataclasses import fields

import pytest

from lmrl import processes
from lmrl import roles as rl
from lmrl.derivation import Calculus, check
from lmrl.parser import Cursor, parse_problem, parse_process, tokenize
from lmrl.printer import PROCESS_HEADERS, format_process
from lmrl.processes import (
    Case,
    ClientRequest,
    Cut,
    EraseError,
    InEmpty,
    InName,
    Msg,
    MsgRecv,
    MsgSend,
    MsgSkipIn,
    MsgSkipOut,
    OutEmpty,
    OutName,
    ProcessTypeError,
    SelL,
    SelR,
    ServerAccept,
    alpha_equiv,
    canonical_key,
    check_subject_reduction,
    env_sequent,
    erase_to_sequent,
    free_names,
    has_cut,
    is_principal_cut,
    normalize,
    rename_free,
    step_detailed,
    strip_cut_annotations,
    struct_equiv,
    td_uses_msg,
    typecheck,
)
from lmrl.syntax import Bang, IFormula, One, Tensor, With, fresh_name
from test_typing_golden import entries as typing_entries
from worlds import deep_session

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus", "proc")

B2 = rl.finite_base(2)
S0, S1 = rl.roleset(B2, [0]), rl.roleset(B2, [1])


def load(name):
    with open(os.path.join(CORPUS, name + ".pi")) as f:
        pf = parse_problem(f.read())
    return pf.process, dict(pf.env)


ALL = sorted(os.path.basename(p)[:-3] for p in glob.glob(os.path.join(CORPUS, "*.pi")))
POSITIVE = [n for n in ALL if not n.startswith("neg-")]
NEGATIVE = [n for n in ALL if n.startswith("neg-")]


# ---------------------------------------------------------------------------
# free names and structural equivalence


def test_free_names_examples():
    p = InEmpty("x", S0, 0)
    assert free_names(p) == {"x"}
    q = Cut("x", None, (OutEmpty("x", S1, 0, InEmpty("z", S0, 0)),))
    assert free_names(q) == {"z"}
    # input binds only in the first branch
    r = InName("x", S0, "y", 0, InEmpty("y", S0, 0), InEmpty("y", S0, 0))
    assert "y" in free_names(r)


def test_rename_free_capture_avoiding():
    p = OutName("x", S1, "y", 0, InEmpty("z", S0, 0))
    q = rename_free(p, "z", "y")
    # the binder moved out of the way
    assert isinstance(q, OutName) and q.y != "y"
    assert free_names(q) == {"x", "y"}


def test_rename_free_stops_at_a_shadowing_binder():
    # y is bound in the left branch and free in the right one
    p = InName("x", S0, "y", 0, InEmpty("y", S0, 0), InEmpty("y", S0, 0))
    q = rename_free(p, "y", "b")
    assert q.left is p.left and q.right == InEmpty("b", S0, 0)


def test_free_names_of_a_deep_chain_does_not_recurse():
    p = InEmpty("x", S0, 0)
    for k in range(5000):
        p = (OutEmpty if k % 2 else SelL)(f"a{k % 7}", S1, 0, p)
    assert free_names(p) == {"x"} | {f"a{k}" for k in range(7)}


def test_free_names_fills_a_shared_subterm_once(monkeypatch):
    # x is a child of the cut and of the cut's other part, both unfilled
    x = OutEmpty("b", S1, 0, InEmpty("z", S0, 0))
    p = Cut("y", None, (x, OutEmpty("a", S1, 0, x)))
    seen = []
    compute = processes._free_names
    monkeypatch.setattr(processes, "_free_names", lambda q: seen.append(q) or compute(q))
    assert free_names(p) == {"a", "b", "z"}
    assert len(seen) == len({id(q) for q in seen}) == 4


def test_free_names_of_a_wide_cut_grows_linearly_in_its_parts():
    # joining the parts one union at a time copies the growing set at each
    # part, so four times the parts cost about 16x; one union costs about 4x
    def seconds(n):
        parts = tuple(InEmpty(f"n{k}", S0, 0) for k in range(n))
        for q in parts:
            free_names(q)
        best = float("inf")
        for _ in range(5):
            cut = Cut("n0", None, parts)
            t0 = time.perf_counter()
            free_names(cut)
            best = min(best, time.perf_counter() - t0)
        assert len(free_names(cut)) == n - 1
        return best

    assert seconds(8000) < 12 * seconds(2000)


def subterms(p):
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        out.append(q)
        stack.extend(processes._children(q))
    return out


def typed_terms(td):
    yield td.process
    for sub in td.premises:
        yield from typed_terms(sub)


def uncached_free_names(p):
    """Free names recomputed over the whole term, reading no cached set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "free_names", processes._free_names)
        return processes._free_names(p)


@pytest.mark.parametrize("name", ALL)
def test_cached_free_names_match_recomputation(name):
    p, env = load(name)
    terms = [p]
    res = normalize(p, 200, keep_trace=True)
    for r in res.trace:
        terms += [r.process] + ([r.alt] if r.alt is not None else [])
    if name in POSITIVE:
        terms += typed_terms(typecheck(p, env))
    for t in terms:
        for q in subterms(t):
            cached = free_names(q)
            assert type(cached) is frozenset
            assert cached == uncached_free_names(q)


def test_rename_free_shares_untouched_subterms():
    p, _ = load("commute-case")
    assert rename_free(p, "nowhere", "y") is p
    c = Case("x", S0, 0, InEmpty("z", S0, 0), InEmpty("x", S0, 0))
    d = rename_free(c, "z", "u")
    assert d.left == InEmpty("u", S0, 0) and d.right is c.right


@pytest.mark.parametrize("name", POSITIVE)
def test_filled_cache_leaves_equality_and_hash(name):
    p, env = load(name)
    typecheck(p, env)
    for q in subterms(p):
        free_names(q)
    fresh, _ = load(name)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


def test_typecheck_computes_each_free_name_set_once(monkeypatch):
    pf = parse_problem(deep_session(200))
    seen = []
    compute = processes._free_names

    def counting(q):
        seen.append(q)
        return compute(q)

    monkeypatch.setattr(processes, "_free_names", counting)
    typecheck(pf.process, dict(pf.env))
    assert len({id(q) for q in seen}) == len(seen)
    assert len(seen) <= len(subterms(pf.process))


def test_struct_equiv_permutation():
    p1 = InEmpty("x", S0, 0)
    p2 = OutEmpty("x", S1, 0, InEmpty("z", S0, 0))
    assert struct_equiv(Cut("x", None, (p1, p2)), Cut("x", None, (p2, p1)))


def test_struct_equiv_alpha():
    p = Cut("x", None, (InEmpty("x", S0, 0), OutEmpty("x", S1, 0, InEmpty("z", S0, 0))))
    q = Cut("w", None, (InEmpty("w", S0, 0), OutEmpty("w", S1, 0, InEmpty("z", S0, 0))))
    assert struct_equiv(p, q)
    assert alpha_equiv(p, q)


def test_struct_equiv_assoc_exchange():
    pivot = OutEmpty("x", S1, 0, OutEmpty("y", S1, 0, InEmpty("z", S0, 0)))
    px = InEmpty("x", S0, 0)
    py = InEmpty("y", S0, 0)
    p = Cut("x", None, (Cut("y", None, (pivot, py)), px))
    q = Cut("y", None, (Cut("x", None, (pivot, px)), py))
    assert struct_equiv(p, q)
    assert not alpha_equiv(p, q)


def test_struct_equiv_assoc_blocked_by_scope():
    # the exchanged shape would capture y inside the other part
    pivot = OutEmpty("x", S1, 0, InEmpty("z", S0, 0))
    px = InEmpty("x", S0, 0)
    py = InEmpty("y", S0, 0)
    p = Cut("x", None, (Cut("y", None, (pivot, py)), px))
    # pivot does not even use y, so the exchange condition fails
    q = Cut("y", None, (Cut("x", None, (pivot, px)), py))
    assert not struct_equiv(p, q)


def test_canonical_key_orders_annotated_and_bare_cuts():
    # a cut whose parts are one bare and one annotated cut
    p = Cut(
        "x",
        None,
        (Cut("y", None, (InEmpty("y", S0, 0),)), Cut("w", One(0), (InEmpty("w", S0, 0),))),
    )
    q = Cut("x", None, tuple(reversed(p.parts)))
    assert canonical_key(p) == canonical_key(q)
    assert alpha_equiv(p, q)
    assert struct_equiv(p, q)
    assert not alpha_equiv(p, strip_cut_annotations(p))


# ---------------------------------------------------------------------------
# typing


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_typechecks(name):
    p, env = load(name)
    typecheck(p, env)


@pytest.mark.parametrize("name", NEGATIVE)
def test_corpus_negative_rejected(name):
    p, env = load(name)
    with pytest.raises(ProcessTypeError):
        typecheck(p, env)


def test_one_pos_leaf():
    td = typecheck(InEmpty("x", S0, 0), {"x": IFormula(S0, One(0))})
    assert td.rule == "one-pos"
    # a leaf's environment holds only its channel: a linear leftover is unused
    with pytest.raises(ProcessTypeError) as err:
        typecheck(InEmpty("x", S0, 0), {"x": IFormula(S0, One(0)), "z": IFormula(S0, One(1))})
    assert err.value.reason == "unused association z : [{0}]one[1] is not weakenable"


def test_polarity_violation_on_output():
    p = OutName("x", S0, "y", 0, InEmpty("y", S0, 0))
    with pytest.raises(ProcessTypeError) as err:
        typecheck(p, {"x": IFormula(S0, Tensor(0, One(0), One(0)))})
    assert "outside" in err.value.reason


B3 = rl.finite_base(3)
_END, _ONE = InEmpty("x", rl.roleset(B3, [0]), 0), One(0)
_IN, _OUT = rl.roleset(B3, [0]), rl.roleset(B3, [1, 2])  # role 0 in / outside
_T, _W, _B, _M = Tensor(0, _ONE, _ONE), With(0, _ONE, _ONE), Bang(0, _ONE), Msg(0, 1, _ONE)
# per header on x: the header over a role set, the role set its rule wants,
# the type it reads, a type of another connective or role, and the reasons
# for (role set differs, wrong type, role on the wrong side)
HEADER_FAULTS = [
    (lambda rs: InEmpty("x", rs, 0), _IN, One(0), One(1), (
        "header roles {0} on x disagree with [{1,2}]",
        "x has type one[1], wanted one[0]",
        "empty input on x needs role 0 in {1,2}")),
    (lambda rs: OutEmpty("x", rs, 0, _END), _OUT, One(0), One(1), (
        "header roles {1,2} on x disagree with [{0}]",
        "x has type one[1], wanted one[0]",
        "empty output on x needs role 0 outside {0}")),
    (lambda rs: OutName("x", rs, "y", 0, _END), _OUT, _T, _W, (
        "header roles {1,2} on x disagree with [{0}]",
        "x has type one[0] &[0] one[0], which does not match the header",
        "name output on x needs role 0 outside {0}")),
    (lambda rs: InName("x", rs, "y", 0, _END, _END), _IN, _T, Tensor(1, _ONE, _ONE), (
        "header roles {0} on x disagree with [{1,2}]",
        "x has type one[0] *[1] one[0], which does not match the header",
        "name input on x needs role 0 in {1,2}")),
    (lambda rs: SelL("x", rs, 0, _END), _OUT, _W, _T, (
        "header roles {1,2} on x disagree with [{0}]",
        "x has type one[0] *[0] one[0], which does not match the header",
        "selection on x needs role 0 outside {0}")),
    (lambda rs: SelR("x", rs, 0, _END), _OUT, _W, With(1, _ONE, _ONE), (
        "header roles {1,2} on x disagree with [{0}]",
        "x has type one[0] &[1] one[0], which does not match the header",
        "selection on x needs role 0 outside {0}")),
    (lambda rs: Case("x", rs, 0, _END, _END), _IN, _W, _B, (
        "header roles {0} on x disagree with [{1,2}]",
        "x has type ![0] one[0], which does not match the header",
        "case offer on x needs role 0 in {1,2}")),
    (lambda rs: ServerAccept("x", rs, "y", 0, _END), _IN, _B, Bang(1, _ONE), (
        "header roles {0} on x disagree with [{1,2}]",
        "x has type ![1] one[0], which does not match the header",
        "server accept on x needs role 0 in {1,2}")),
    (lambda rs: ClientRequest("x", rs, "y", 0, _END), _OUT, _B, _ONE, (
        "header roles {1,2} on x disagree with [{0}]",
        "x has type one[0], which does not match the header",
        "client request on x needs role 0 outside {0}")),
    (lambda rs: MsgSkipIn("x", rs, 0, 1, _END), rl.roleset(B3, [0, 1]), _M, Msg(1, 0, _ONE), (
        "header roles {0,1} on x disagree with [{2}]",
        "x has type msg[1,0] one[0], which does not match the transfer header",
        "transfer header on x disagrees with roles 0,1 against {2}")),
    (lambda rs: MsgSkipOut("x", rs, 0, 1, _END), rl.roleset(B3, [2]), _M, Msg(0, 2, _ONE), (
        "header roles {2} on x disagree with [{0,1}]",
        "x has type msg[0,2] one[0], which does not match the transfer header",
        "transfer header on x disagrees with roles 0,1 against {0,1}")),
    (lambda rs: MsgRecv("x", rs, 0, 1, _END), _IN, _M, _ONE, (
        "header roles {0} on x disagree with [{1,2}]",
        "x has type one[0], which does not match the transfer header",
        "transfer header on x disagrees with roles 0,1 against {1,2}")),
    (lambda rs: MsgSend("x", rs, 0, 1, _END), rl.roleset(B3, [1]), _M, _B, (
        "header roles {1} on x disagree with [{0,2}]",
        "x has type ![0] one[0], which does not match the transfer header",
        "transfer header on x disagrees with roles 0,1 against {0,2}")),
]


@pytest.mark.parametrize(
    "header,rs,good,bad,reasons",
    HEADER_FAULTS,
    ids=[type(row[0](_IN)).__name__ for row in HEADER_FAULTS],
)
def test_each_header_fault_has_its_reason(header, rs, good, bad, reasons):
    other = rl.complement(rs)
    wrong = [
        (header(rs), IFormula(other, good)),  # the association's role set differs
        (header(rs), IFormula(rs, bad)),  # another connective or role
        (header(other), IFormula(other, good)),  # the role on the wrong side
    ]
    for (p, f), reason in zip(wrong, reasons):
        with pytest.raises(ProcessTypeError) as err:
            typecheck(p, {"x": f})
        assert err.value.reason == reason


def test_typing_rule_coverage():
    wanted = {
        "n-cut",
        "one-pos",
        "one-neg",
        "tensor-neg",
        "tensor-pos",
        "with-neg-l",
        "with-neg-r",
        "with-pos",
        "bang-pos",
        "bang-neg-weaken",
        "bang-neg-derelict",
        "bang-neg-contract",
        "msg-pos-pos",
        "msg-neg-neg",
        "msg-pos-neg",
        "msg-neg-pos",
    }
    seen = set()

    def walk(td):
        seen.add(td.rule)
        for s in td.premises:
            walk(s)

    for name in POSITIVE:
        p, env = load(name)
        walk(typecheck(p, env))
    assert wanted <= seen, f"missing rules: {wanted - seen}"


# ---------------------------------------------------------------------------
# erasure


def test_erase_leaf_and_headers():
    td = typecheck(InEmpty("x", S0, 0), {"x": IFormula(S0, One(0))})
    d = erase_to_sequent(td)
    assert d.rule == "one-pos"
    assert check(d) == env_sequent({"x": IFormula(S0, One(0))})


@pytest.mark.parametrize("name", [n for n in POSITIVE])
def test_erase_corpus_coherence(name):
    p, env = load(name)
    td = typecheck(p, env)
    if td_uses_msg(td):
        with pytest.raises(EraseError):
            erase_to_sequent(td)
    else:
        d = erase_to_sequent(td)
        assert check(d, Calculus.CONJ) == env_sequent(env)


# ---------------------------------------------------------------------------
# reduction


def test_unit_step_drops_terminated_inputs():
    p, env = load("unit3")
    r = step_detailed(p)
    assert r.rule == "one"
    assert not isinstance(r.process, Cut)


def test_selection_steps():
    p, _ = load("select-left")
    r = step_detailed(p)
    assert r.rule == "with-l"
    p, _ = load("select-right")
    r = step_detailed(p)
    assert r.rule == "with-r"


def test_msg_steps():
    p, _ = load("msg-skip")
    assert step_detailed(p).rule == "msg-skip"
    p, _ = load("msg-transfer")
    assert step_detailed(p).rule == "msg-transfer"


def test_bang_subcases():
    p, _ = load("bang-gc")
    assert step_detailed(p).rule == "bang-gc"
    p, _ = load("bang-spawn")
    assert step_detailed(p).rule == "bang-spawn"
    p, _ = load("bang-replicate")
    r = step_detailed(p)
    assert r.rule == "bang-replicate"
    rules = [t.rule for t in normalize(p, 100, keep_trace=True).trace]
    assert rules.count("bang-spawn") == 2


def test_commuting_conversions_fire():
    p, _ = load("commute-request")
    assert step_detailed(p).rule == "commute-req"
    p, _ = load("commute-case")
    assert step_detailed(p).rule == "commute-case"
    p, _ = load("commute-input")
    assert step_detailed(p).rule == "commute-in-l"


def test_normal_form_steps_zero():
    p = InEmpty("x", S0, 0)
    res = normalize(p, 10)
    assert res.steps == 0 and res.process is p and not res.exhausted


def test_tensor_confluence_on_corpus():
    for name in ("tensor2", "tensor3"):
        p, env = load(name)
        while True:
            r = step_detailed(p)
            if r is None:
                break
            if r.rule == "tensor":
                assert r.alt is not None and struct_equiv(r.process, r.alt)
            p = r.process


def test_annotation_blindness():
    for name in POSITIVE:
        p, _ = load(name)
        r1 = step_detailed(p)
        r2 = step_detailed(strip_cut_annotations(p))
        if r1 is None:
            assert r2 is None
            continue
        assert r2 is not None and r1.rule == r2.rule
        assert alpha_equiv(strip_cut_annotations(r1.process), r2.process)


def test_subject_reduction_corpus():
    for name in POSITIVE:
        p, env = load(name)
        rep = check_subject_reduction(p, env, 10_000)
        assert rep.ok, f"{name}: {rep.failure}"
        assert rep.cut_free, f"{name} left a cut behind"
        assert rep.progress_ok, f"{name} got stuck"


def test_subject_reduction_reports_a_step_that_breaks_typing(monkeypatch):
    # a step to a term with a name outside the environment: the report names
    # the step and the typechecker's reason, and stops there
    p, env = load("unit2")
    bad = InEmpty("z", S0, 0)
    monkeypatch.setattr(processes, "step_detailed", lambda q: processes.StepResult(bad, "one"))
    rep = check_subject_reduction(p, env, 10)
    assert rep == processes.SRReport(
        False, 1, bad, False, True, True,
        "step 1 broke typing: free names not in the environment: ['z']",
    )


def test_subject_reduction_reports_a_stuck_cut(monkeypatch):
    p, env = load("unit2")
    monkeypatch.setattr(processes, "step_detailed", lambda q: None)
    rep = check_subject_reduction(p, env, 10)
    assert rep == processes.SRReport(False, 0, p, False, False, False, "stuck cut")


def rule_tree(td):
    return (td.rule, tuple(rule_tree(s) for s in td.premises))


def sr_typings(p, env, fuel):
    """Run ``check_subject_reduction`` with ``_tc`` counted.  Returns the
    report and, per whole-term typing, the term, its derivation and the
    number of ``_tc`` calls that typing made."""
    real, roots, state = processes._tc, [], {"calls": 0, "depth": 0}

    def spy(q, *args):
        state["calls"] += 1
        state["depth"] += 1
        start = state["calls"]
        try:
            td = real(q, *args)
        finally:
            state["depth"] -= 1
        if state["depth"] == 0:
            roots.append((q, td, state["calls"] - start + 1))
        return td

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "_tc", spy)
        rep = check_subject_reduction(p, env, fuel)
    return rep, roots


def load_deep_session(depth):
    pf = parse_problem(deep_session(depth))
    return pf.process, dict(pf.env)


SR_CASES = [(n, *load(n)) for n in POSITIVE] + [("deep-session-25", *load_deep_session(25))]


@pytest.mark.parametrize("name,p,env", SR_CASES, ids=[c[0] for c in SR_CASES])
def test_memoised_typings_match_fresh_ones(name, p, env):
    rep, roots = sr_typings(p, env, 10_000)
    assert rep.ok and len(roots) == rep.steps + 1
    for q, td, _ in roots:
        assert rule_tree(td) == rule_tree(typecheck(q, env))
    # memo hits mint no fresh names, so only alpha-equivalence is expected
    assert alpha_equiv(rep.normal_form, normalize(p, 10_000).process)


@pytest.mark.parametrize("name", NEGATIVE)
def test_subject_reduction_rejects_as_typecheck_does(name):
    p, env = load(name)
    with pytest.raises(ProcessTypeError) as memoised:
        check_subject_reduction(p, env, 10)
    with pytest.raises(ProcessTypeError) as fresh:
        typecheck(p, env)
    assert str(memoised.value) == str(fresh.value)


def test_subject_reduction_types_only_what_each_step_built():
    rep, roots = sr_typings(*load_deep_session(200), 2000)
    assert rep.ok and rep.steps == 201
    assert max(calls for _, _, calls in roots[1:]) <= 8


@pytest.mark.parametrize("fuel", [0, -1])
def test_subject_reduction_needs_positive_fuel(fuel):
    p, env = load("unit2")
    with pytest.raises(ValueError, match="fuel must be positive"):
        check_subject_reduction(p, env, fuel)


def test_corrupted_process_fails_before_running():
    p, env = load("neg-swap-inl")
    with pytest.raises(ProcessTypeError):
        check_subject_reduction(p, env, 10)


def test_is_principal_cut():
    p, env = load("unit2")
    td = typecheck(p, env)
    assert is_principal_cut(p, td)
    q, env2 = load("commute-request")
    td2 = typecheck(q, env2)
    assert not is_principal_cut(q, td2)
    gc, env3 = load("bang-gc")
    td3 = typecheck(gc, env3)
    # the weakening part introduces the link invisibly: not principal
    assert not is_principal_cut(gc, td3)
    # both parts use w, so typing contracts it before it reaches the headers
    sel, env4 = load("select-left")
    assert is_principal_cut(sel, typecheck(sel, env4))


PRINCIPAL_STEPS = {"one", "tensor", "with-l", "with-r", "msg-skip", "msg-transfer", "bang-spawn"}


def test_principal_steps_are_the_principal_cuts():
    """At every cut state of the well-typed corpus, seeded-session and
    hand-written reductions, the cut's own step is a principal one exactly
    when its typing says the cut is principal."""
    mismatches, seen = [], 0
    for name, text in typing_entries():
        pf = parse_problem(text)
        q, env = pf.process, dict(pf.env)
        try:
            typecheck(q, env)
        except ProcessTypeError:
            continue
        for k in range(200):
            if isinstance(q, Cut):
                seen += 1
                r = processes._reduce_cut(q)
                fires = r is not None and r.rule in PRINCIPAL_STEPS
                if fires != is_principal_cut(q, typecheck(q, env)):
                    mismatches.append((name, k, r and r.rule))
            r = step_detailed(q)
            if r is None:
                break
            q = r.process
    assert seen > 100 and mismatches == []


def test_fresh_names_are_disjoint_from_user_names():
    p, env = load("bang-replicate")
    res = normalize(p, 100)
    assert not has_cut(res.process)


def test_part_permutation_preserves_typing_and_runs():
    # typing and normalization are insensitive to the order of linked parts
    for name in POSITIVE:
        p, env = load(name)
        if not isinstance(p, Cut) or len(p.parts) < 2:
            continue
        q = Cut(p.x, p.ann, tuple(reversed(p.parts)))
        typecheck(q, env)
        rep = check_subject_reduction(q, env, 10_000)
        assert rep.ok and rep.cut_free, f"{name} reversed: {rep.failure}"


def test_cut_binder_shadowing_env_name():
    # the linked name may collide with an environment name; checking renames
    w_ty = IFormula(S0, Bang(1, One(0)))
    p, env = load("unit2")
    env2 = {"x": w_ty}
    q = rename_free(p, "w", "x")
    td = typecheck(q, env2)
    assert td.rule == "n-cut"


def test_omega_base_process():
    # the calculus is generic over the unbounded role base: one endpoint at a
    # finite set, the other at its cofinite complement
    om = rl.OMEGA
    s0 = rl.roleset(om, [0])
    c0 = rl.complement(s0)
    w_ty = IFormula(s0, Bang(1, One(0)))
    p = Cut(
        "x",
        One(0),
        (
            InEmpty("x", s0, 0),
            OutEmpty("x", c0, 0, ClientRequest("w", s0, "v", 1, InEmpty("v", s0, 0))),
        ),
    )
    td = typecheck(p, {"w": w_ty})
    rep = check_subject_reduction(p, {"w": w_ty}, 100)
    assert rep.ok and rep.cut_free
    from lmrl.derivation import check as kcheck

    assert kcheck(erase_to_sequent(td)) == env_sequent({"w": w_ty})


def test_single_part_cut_reduces():
    # a link over one process (the empty-interpretation cut) erases layer by
    # layer: the unattached headers discharge without partners
    p, env = load("onecut")
    td = typecheck(p, env)
    assert td.rolesets and td.rolesets[0].is_empty
    rep = check_subject_reduction(p, env, 100)
    assert rep.ok and rep.cut_free and rep.progress_ok
    rules = [t.rule for t in normalize(p, 100, keep_trace=True).trace]
    assert rules[0] == "tensor"


# ---------------------------------------------------------------------------
# field schemas


def process_classes(cls=processes.Process):
    """Every concrete constructor, skipping the shared layout bases."""
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from process_classes(sub)


def corpus_subterms():
    for name in ALL:
        yield from subterms(load(name)[0])


def test_every_constructor_occurs_in_the_corpus():
    seen = {type(q) for q in corpus_subterms()}
    assert set(process_classes()) <= seen


@pytest.mark.parametrize("cls", list(process_classes()), ids=lambda c: c.__name__)
def test_process_schema_names_own_fields(cls):
    own = {f.name for f in fields(cls)}
    assert set(cls.kids) <= own and set(cls.scope) <= set(cls.kids)
    assert (cls.binder is not None) == bool(cls.scope)
    assert cls.binder is None or cls.binder in own


def test_rename_free_round_trip_on_corpus_subterms():
    for p in corpus_subterms():
        for a in sorted(free_names(p)):
            b = fresh_name("b")
            q = rename_free(p, a, b)
            assert free_names(q) == (free_names(p) - {a}) | {b}
            assert canonical_key(rename_free(q, b, a)) == canonical_key(p)


def test_every_header_has_one_table_row():
    assert set(PROCESS_HEADERS) == set(process_classes()) - {Cut}
    rows = [row[:3] for row in PROCESS_HEADERS.values()]
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("cls", list(PROCESS_HEADERS), ids=lambda c: c.__name__)
def test_header_row_prints_and_parses(cls):
    sigil, brackets, word, sep = PROCESS_HEADERS[cls]
    # the bound name stands where a binder's word would
    assert (word is None) == (cls.binder is not None)
    assert bool(sep) == (len(cls.kids) == 2)
    terms = [q for q in corpus_subterms() if type(q) is cls]
    assert terms
    for q in terms:
        text = format_process(q)
        head = word if word is not None else getattr(q, cls.binder)
        assert text.startswith(f"{sigil}{q.x}{q.rs}{brackets[0]}{head}{brackets[1]}@")
        assert parse_process(Cursor(tokenize(text)), q.rs.base) == q

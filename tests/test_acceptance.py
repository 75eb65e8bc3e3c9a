"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import glob
import os
import random
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from worlds import (
    enumerate_derivations,
    eligible_spill_pairs,
    session_formulas,
    small_formulas,
)

from lmrl import roles as rl
from lmrl.cutelim import (
    CutSpec,
    cut2,
    cut2_spill,
    cut2_spill_disj,
    cutn,
    eta_expand,
    eta_expand_disj,
    prove_bounded,
)
from lmrl.derivation import Calculus, check, checks, dualize
from lmrl.parser import parse_problem
from lmrl.processes import (
    ProcessTypeError,
    check_subject_reduction,
    step_detailed,
    struct_equiv,
    typecheck,
)
from lmrl.syntax import Atom, IFormula, One, Sequent

ROOT = os.path.join(os.path.dirname(__file__), "..")
LOGIC = os.path.join(ROOT, "corpus", "logic")
PROC = os.path.join(ROOT, "corpus", "proc")

B2 = rl.finite_base(2)
B3 = rl.finite_base(3)


def _verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _drv_fixtures():
    for path in sorted(glob.glob(os.path.join(LOGIC, "*.drv"))):
        name = os.path.basename(path)[:-4]
        yield name, parse_problem(open(path).read()).derivation


def _proc_fixtures():
    for path in sorted(glob.glob(os.path.join(PROC, "*.pi"))):
        name = os.path.basename(path)[:-3]
        pf = parse_problem(open(path).read())
        yield name, pf.process, dict(pf.env)


KERNEL_RULES = [
    "id",
    "tensor-neg",
    "tensor-pos",
    "with-neg-l",
    "with-neg-r",
    "with-pos",
    "bang-pos",
    "bang-neg-weaken",
    "bang-neg-derelict",
    "bang-neg-contract",
    "forall-neg",
    "forall-pos",
    "one-neg",
    "one-pos",
]

TYPING_RULES = [
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
]


def test_criterion_1_rule_coverage():
    t0 = time.time()
    pos_rules, neg_rules = set(), set()
    n_fix = 0
    for name, d in _drv_fixtures():
        n_fix += 1
        ok = checks(d, Calculus.CONJ)
        if name.endswith("-pos"):
            assert ok, f"positive fixture {name} rejected"
            pos_rules.add(name[: -len("-pos")])
        else:
            assert not ok, f"negative fixture {name} accepted"
            neg_rules.add(name[: -len("-neg")])
    for rule in KERNEL_RULES:
        assert rule in pos_rules and rule in neg_rules, f"kernel rule {rule} uncovered"

    pos_typing, neg_typing = set(), set()
    for name, p, env in _proc_fixtures():
        n_fix += 1
        if name.startswith("neg-"):
            with pytest.raises(ProcessTypeError):
                typecheck(p, env)
            neg_typing.add(name[len("neg-") :].replace("ncut", "n-cut"))
        else:
            td = typecheck(p, env)

            def walk(t):
                pos_typing.add(t.rule)
                for s in t.premises:
                    walk(s)

            walk(td)
    for rule in TYPING_RULES:
        assert rule in pos_typing, f"typing rule {rule} has no positive instance"
    # negative fixtures exist per typing rule family (the swap fixture covers
    # the deep mismatch case on top of the per-rule ones)
    named = {
        "n-cut", "one-pos", "one-neg", "tensor-neg", "tensor-pos", "with-neg-l",
        "with-neg-r", "with-pos", "bang-pos", "bang-neg-weaken",
        "bang-neg-derelict", "bang-neg-contract", "msg-pos-pos", "msg-neg-neg",
        "msg-pos-neg", "msg-neg-pos",
    }
    assert named <= neg_typing, f"missing negative fixtures: {named - neg_typing}"
    took = time.time() - t0
    _verdict(1, took < 1.0, f"{n_fix} fixtures classified in {took:.2f}s")


def test_criterion_2_exhaustive_small_world_cuts():
    t0 = time.time()
    instances = 0
    for base in (B2, B3):
        world = enumerate_derivations(base, level_cap=60, binary_base_cap=12)
        for d in world:
            assert checks(d, Calculus.CONJ)
        pairs = list(eligible_spill_pairs(world))
        for d1, i, d2, j in pairs:
            f1, f2 = d1.concl[i], d2.concl[j]
            out = cut2_spill(CutSpec([(d1, (i,)), (d2, (j,))]))
            expect = Sequent(
                tuple(f for k, f in enumerate(d1.concl.items) if k != i)
                + tuple(f for k, f in enumerate(d2.concl.items) if k != j)
                + (IFormula(rl.intersect(f1.roles, f2.roles), f1.body),)
            )
            assert check(out) == expect
            instances += 1
            if f2.roles == rl.complement(f1.roles):
                out2 = cut2(d1, i, d2, j)
                expect2 = Sequent(
                    tuple(f for k, f in enumerate(d1.concl.items) if k != i)
                    + tuple(f for k, f in enumerate(d2.concl.items) if k != j)
                )
                assert check(out2) == expect2
                instances += 1
        # n-sequent cuts over eta expansions at every 3-part partition
        from worlds import ordered_partitions

        atom = Atom("a")
        for parts in ordered_partitions(base, 3):
            sets = [rl.complement(p) for p in parts]
            ds = [eta_expand(atom, [s, rl.complement(s)]) for s in sets]
            occs = []
            for d, s in zip(ds, sets):
                occs.append(
                    next(k for k, f in enumerate(d.concl) if f.roles == s)
                )
            out = cutn(CutSpec([(d, (o,)) for d, o in zip(ds, occs)]))
            expect = Sequent(tuple(IFormula(rl.complement(s), atom) for s in sets))
            assert check(out) == expect
            instances += 1
    took = time.time() - t0
    _verdict(
        2,
        instances >= 500 and took < 60.0,
        f"{instances} cut instances re-checked in {took:.1f}s",
    )


def test_criterion_3_oracle_agreement():
    t0 = time.time()
    rng = random.Random(20260809)
    formulas = small_formulas(B2, 2)
    rolesets = [rl.roleset(B2, s) for s in ([], [0], [1], [0, 1])]

    sampled = 0
    for _ in range(220):
        k = rng.randint(1, 3)
        items = tuple(
            IFormula(rng.choice(rolesets), rng.choice(formulas)) for _ in range(k)
        )
        g = Sequent(items)
        d = prove_bounded(g, Calculus.CONJ, 5)
        if d is not None:
            assert check(d) == g, "oracle proof does not conclude its goal"
        sampled += 1

    # transformer endpoints are oracle-derivable; size <= 2 needs depth 6
    # (the minimal proof interleaves a negative and a positive step per
    # connective plus two for the innermost unit)
    transformed = 0
    rng2 = random.Random(7)
    session = [f for f in session_formulas(B2, 2)]
    for f in session:
        rs = rng2.choice(rolesets)
        d = eta_expand(f, [rs, rl.complement(rs)])
        assert prove_bounded(check(d), Calculus.CONJ, 6) is not None, (
            f"oracle rejects eta endpoint for {f} at {rs}"
        )
        transformed += 1
        if transformed % 3 == 0:
            e = eta_expand(f, [rl.complement(rs), rs])
            i = next(k for k, g in enumerate(d.concl) if g.roles == rl.complement(rs))
            j = next(k for k, g in enumerate(e.concl) if g.roles == rs)
            out = cut2(d, i, e, j)
            assert prove_bounded(check(out), Calculus.CONJ, 6) is not None
            transformed += 1
    took = time.time() - t0
    _verdict(
        3,
        sampled + transformed >= 200 and took < 60.0,
        f"{sampled} sampled + {transformed} transformer endpoints agreed in {took:.1f}s",
    )


def test_criterion_4_duality():
    t0 = time.time()
    n = 0
    for base in (B2, B3):
        world = enumerate_derivations(base, level_cap=40, binary_base_cap=8)
        for d in world:
            assert checks(d, Calculus.CONJ) == checks(dualize(d), Calculus.DISJ)
            n += 1
    # invalid mutants flip neither way
    for name, d in _drv_fixtures():
        assert checks(d, Calculus.CONJ) == checks(dualize(d), Calculus.DISJ)
        n += 1
    # disjunctive lemma outputs re-check against the disjunctive rules
    atom = Atom("a")
    S0, S1 = rl.roleset(B2, [0]), rl.roleset(B2, [1])
    d = eta_expand_disj(atom, [S0, S1])
    assert checks(d, Calculus.DISJ)
    r0, r1 = rl.roleset(B3, [0]), rl.roleset(B3, [1])
    e1 = eta_expand_disj(atom, [r0, rl.complement(r0)])
    e2 = eta_expand_disj(atom, [r1, rl.complement(r1)])
    i = next(k for k, f in enumerate(e1.concl) if f.roles == r0)
    j = next(k for k, f in enumerate(e2.concl) if f.roles == r1)
    out = cut2_spill_disj(CutSpec([(e1, (i,)), (e2, (j,))]))
    assert checks(out, Calculus.DISJ)
    n += 2
    took = time.time() - t0
    _verdict(4, True, f"{n} derivations agreed across the duality in {took:.1f}s")


def test_criterion_5_eta_cut_identity():
    t0 = time.time()
    count = 0
    for base in (B2, B3):
        full3 = session_formulas(base, 3)
        by_size = {}
        from lmrl.syntax import size as fsize

        for f in full3:
            by_size.setdefault(fsize(f), []).append(f)
        # every formula of size <= 2 under the two-role base; the larger
        # worlds are covered by a deterministic stride to stay in budget
        picked = list(by_size.get(0, [])) + list(by_size.get(1, []))
        if base is B2:
            picked += by_size.get(2, [])
            picked += by_size.get(3, [])[::97]
        else:
            picked += by_size.get(2, [])[::13]
            picked += by_size.get(3, [])[::971]
        sets = [rl.roleset(base, s) for s in ([0], [1], [])] + [rl.full_set(base)]
        for f in picked:
            for rs in sets:
                d = eta_expand(f, [rs, rl.complement(rs)])
                e = eta_expand(f, [rl.complement(rs), rs])
                i = next(k for k, g in enumerate(d.concl) if g.roles == rl.complement(rs))
                j = next(k for k, g in enumerate(e.concl) if g.roles == rs)
                out = cut2(d, i, e, j)
                assert check(out) == d.concl, f"eta-cut identity failed for {f} at {rs}"
                count += 1
    took = time.time() - t0
    _verdict(5, took < 10.0, f"{count} eta-cut identities exact in {took:.1f}s")


def test_criterion_6_subject_reduction_and_progress():
    t0 = time.time()
    names = []
    for name, p, env in _proc_fixtures():
        if name.startswith("neg-"):
            continue
        rep = check_subject_reduction(p, env, 10_000)
        assert rep.ok, f"{name}: {rep.failure}"
        assert not rep.exhausted, f"{name} ran out of fuel"
        assert rep.cut_free, f"{name} did not reach a cut-free form"
        assert rep.progress_ok, f"{name} had a stuck cut"
        names.append(name)
    assert len(names) >= 15, f"corpus too small: {len(names)}"
    took = time.time() - t0
    _verdict(6, took < 10.0, f"{len(names)} processes normalized cleanly in {took:.1f}s")


def test_criterion_7_tensor_confluence():
    t0 = time.time()
    checked = 0
    for name, p, env in _proc_fixtures():
        if name.startswith("neg-"):
            continue
        while True:
            r = step_detailed(p)
            if r is None:
                break
            if r.rule == "tensor":
                assert r.alt is not None
                assert struct_equiv(r.process, r.alt), f"{name}: orderings differ"
                checked += 1
            p = r.process
    assert checked >= 2, "no tensor principal steps in the corpus"
    took = time.time() - t0
    _verdict(7, True, f"{checked} tensor steps confluent in {took:.1f}s")


def test_criterion_8_cll_translation():
    from lmrl.cutelim import translate_cll2

    t0 = time.time()
    a, b = Atom("a"), Atom("b")
    S0, S1 = rl.roleset(B2, [0]), rl.roleset(B2, [1])
    S01, E = rl.roleset(B2, [0, 1]), rl.empty_set(B2)
    unit = One(0)
    cases = [
        (Sequent((IFormula(S0, a),)), [], [a]),
        (Sequent((IFormula(S1, a),)), [a], []),
        (Sequent((IFormula(S01, a),)), [], [unit]),
        (Sequent((IFormula(E, a),)), [unit], []),
        (Sequent((IFormula(S0, a), IFormula(S1, b))), [b], [a]),
        (
            Sequent((IFormula(S01, b), IFormula(E, a), IFormula(S1, a), IFormula(S0, b))),
            [unit, a],
            [unit, b],
        ),
    ]
    for g, want_left, want_right in cases:
        left, right = translate_cll2(g)
        assert left == want_left and right == want_right, f"translation differs on {g}"
    took = time.time() - t0
    _verdict(8, True, f"{len(cases)} translation cases exact in {took:.2f}s")

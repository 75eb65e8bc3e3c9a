import glob
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from worlds import eligible_spill_pairs, enumerate_derivations

from lmrl import cutelim
from lmrl import roles as rl
from lmrl.cutelim import (
    CutError,
    CutSpec,
    co_split_disj,
    cut1,
    cut2,
    cut2_disj,
    cut2_spill,
    cut2_spill_disj,
    cutn,
    cutn_disj,
    eta_expand,
    eta_expand_disj,
    fulset_disj,
    prove_bounded,
    split,
    subst_derivation,
)
from lmrl.derivation import (
    Calculus,
    DBangNegDerelict,
    DBangNegWeaken,
    DForallNeg,
    DForallPos,
    DId,
    DOneNeg,
    DOnePos,
    Derivation,
    check,
    checks,
    dualize,
    height,
)
from lmrl.parser import parse_problem
from lmrl.syntax import (
    Atom,
    Bang,
    Forall,
    IFormula,
    One,
    Sequent,
    Tensor,
    Var,
    With,
)

B2 = rl.finite_base(2)
B3 = rl.finite_base(3)
S0, S1, S01 = rl.roleset(B2, [0]), rl.roleset(B2, [1]), rl.roleset(B2, [0, 1])
E2 = rl.empty_set(B2)
a, b = Atom("a"), Atom("b")
ROOT = os.path.join(os.path.dirname(__file__), "..")


def iseq(*pairs):
    return Sequent(tuple(IFormula(rs, f) for rs, f in pairs))


def occ_of(d: Derivation, rs, body=None) -> int:
    for k, f in enumerate(d.concl):
        if f.roles == rs and (body is None or f.body == body):
            return k
    raise AssertionError("occurrence not found")


# ---------------------------------------------------------------------------
# substitution on derivations


def test_subst_derivation_homomorphic():
    px = Atom("p", (Var("x"),))
    py = Atom("p", (Var("y"),))
    d = DId(px, (S0, S1))
    out = subst_derivation(d, "x", Var("y"))
    assert check(out) == iseq((S0, py), (S1, py))


def test_subst_derivation_identity_when_not_free():
    from lmrl.printer import format_derivation

    d = DId(a, (S0, S1))
    assert format_derivation(subst_derivation(d, "x", Var("y"))) == format_derivation(d)


def test_subst_derivation_renames_captured_eigen():
    # forall-pos with eigenvariable x; substituting {x/z} for a different z
    # must rename the eigenvariable and still check
    px = Atom("p", (Var("x"), Var("z")))
    idp = DId(px, (S0, S1))
    step = DForallNeg(0, "u", Atom("p", (Var("u"), Var("z"))), Var("x"), idp, 1)
    d = DForallPos(0, "x", step, 0)
    assert checks(d)
    out = subst_derivation(d, "z", Var("x"))
    assert checks(out)
    assert out.eigen != "x"


# ---------------------------------------------------------------------------
# the single-sequent cut


def test_cut1_weaken_example():
    base_d = DId(a, (S0, S1))
    d = DBangNegWeaken(0, E2, b, base_d)
    out = cut1(d, 2)
    assert check(out) == iseq((S0, a), (S1, a))


def test_cut1_recurses_past_negative_rules():
    base_d = DId(Atom("p", (Var("y"),)), (S0, S1))
    d = DForallNeg(0, "x", Atom("p", (Var("x"),)), Var("y"), base_d, 1)
    # reinterpret the major at the empty set by weakening a fresh copy instead
    w = DBangNegWeaken(0, E2, a, d)
    out = cut1(w, 2)
    assert check(out) == d.concl


def test_cut1_requires_empty_roles():
    d = DId(a, (S0, S1))
    with pytest.raises(CutError):
        cut1(d, 0)


def test_cut1_two_empties_commute():
    base_d = DId(a, (S0, S1))
    d = DBangNegWeaken(0, E2, b, DBangNegWeaken(1, E2, a, base_d))
    first = cut1(cut1(d, 3), 2)
    second = cut1(cut1(d, 2), 2)
    assert check(first) == check(second) == iseq((S0, a), (S1, a))


def test_cut1_through_one_neg():
    inner = DOneNeg(E2, 0, DId(a, (S0, S1)))
    assert check(inner) == iseq((S0, a), (S1, a), (E2, One(0)))
    out = cut1(inner, 2)
    assert check(out) == iseq((S0, a), (S1, a))


# ---------------------------------------------------------------------------
# eta expansion


def test_eta_atom_is_identity():
    d = eta_expand(a, [S0, S1])
    assert isinstance(d, DId)
    assert check(d) == iseq((S0, a), (S1, a))


def test_eta_atom_three_parts():
    parts = [rl.roleset(B3, [0]), rl.roleset(B3, [1]), rl.roleset(B3, [2])]
    d = eta_expand(a, parts)
    assert isinstance(d, DId) and len(d.rolesets) == 3
    assert checks(d)


def test_eta_tensor_height_and_oracle():
    t = Tensor(0, a, a)
    d = eta_expand(t, [S0, S1])
    assert check(d) == iseq((S0, t), (S1, t))
    assert height(d) == 3
    oracle = prove_bounded(check(d), Calculus.CONJ, 3)
    assert oracle is not None and check(oracle) == check(d)


def test_eta_partition_required():
    with pytest.raises(CutError):
        eta_expand(a, [S0, S0])


@pytest.mark.parametrize(
    "formula",
    [
        One(0),
        One(1),
        Bang(0, a),
        With(1, One(0), Bang(0, One(1))),
        Tensor(0, With(1, One(0), One(1)), Bang(1, One(0))),
        Forall(0, "x", Atom("p", (Var("x"),))),
    ],
)
def test_eta_checks_for_connectives(formula):
    d = eta_expand(formula, [S0, S1])
    assert check(d) == iseq((S0, formula), (S1, formula))


# ---------------------------------------------------------------------------
# two-sequent cuts


def test_spill_atoms_merge_to_identity():
    r01 = rl.roleset(B3, [0, 1])
    r02 = rl.roleset(B3, [0, 2])
    r1 = rl.roleset(B3, [1])
    r2 = rl.roleset(B3, [2])
    d1 = DId(a, (r01, r2))
    d2 = DId(a, (r02, r1))
    out = cut2_spill(CutSpec([(d1, (0,)), (d2, (0,))]))
    assert isinstance(out, DId)
    assert check(out) == Sequent(
        (IFormula(r2, a), IFormula(r1, a), IFormula(rl.roleset(B3, [0]), a))
    )


def test_spill_requires_disjoint_complements():
    d1 = DId(a, (S0, S1))
    d2 = DId(a, (S0, S1))
    with pytest.raises(CutError):
        cut2_spill(CutSpec([(d1, (0,)), (d2, (0,))]))


def test_spill_tensor_principal_three_party():
    # both sides end in the positive tensor rule; the result re-checks and is
    # confirmed derivable by the bounded oracle
    r01 = rl.roleset(B3, [0, 1])
    r02 = rl.roleset(B3, [0, 2])
    t = Tensor(0, a, a)
    d1 = eta_expand(t, [r01, rl.complement(r01)])
    d2 = eta_expand(t, [r02, rl.complement(r02)])
    o1 = occ_of(d1, r01)
    o2 = occ_of(d2, r02)
    out = cut2_spill(CutSpec([(d1, (o1,)), (d2, (o2,))]))
    got = check(out)
    expect = Sequent(
        (
            IFormula(rl.complement(r01), t),
            IFormula(rl.complement(r02), t),
            IFormula(rl.roleset(B3, [0]), t),
        )
    )
    assert got == expect
    assert prove_bounded(got, Calculus.CONJ, 6) is not None


def test_spill_nonprincipal_commutes():
    # the left side ends in a rule on a context formula; the cut is pushed
    # above it and the rule reapplied below
    d1 = DBangNegWeaken(1, S0, b, DId(a, (S0, S1)))
    d2 = DId(a, (S0, S1))
    out = cut2_spill(CutSpec([(d1, (1,)), (d2, (0,))]))
    assert check(out) == iseq((S0, a), (S0, Bang(1, b)), (S1, a), (E2, a))
    assert any(isinstance(n, DBangNegWeaken) for n in (out, *out.premises))


def test_cut2_identity_pair():
    d1 = DId(a, (S0, S1))
    d2 = DId(a, (S1, S0))
    out = cut2(d1, 1, d2, 1)
    assert check(out) == iseq((S0, a), (S1, a))


def test_cut2_requires_complementary():
    d1 = DId(a, (S0, S1))
    with pytest.raises(CutError):
        cut2(d1, 1, d1, 1)


def test_cut2_unit_case():
    d2 = DOnePos(S1, 1)
    d1 = DOneNeg(S0, 1, DId(a, (S0, S1)))
    out = cut2(d1, 2, d2, 0)
    assert check(out) == iseq((S0, a), (S1, a))


def test_eta_cut_identity_small():
    for formula in (One(0), Bang(0, a), Tensor(0, a, a), With(1, a, b)):
        for rs in (S0, S1):
            d = eta_expand(formula, [rs, rl.complement(rs)])
            e = eta_expand(formula, [rl.complement(rs), rs])
            out = cut2(d, occ_of(d, rl.complement(rs)), e, occ_of(e, rs))
            assert check(out) == d.concl


# ---------------------------------------------------------------------------
# erasure keeps the order of the other occurrences


def corpus_derivations():
    """Every corpus derivation that checks, the disjunctive ones dualized."""
    pattern = os.path.join(ROOT, "corpus", "logic", "**", "*.drv")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as f:
            d = parse_problem(f.read()).derivation
        if checks(d, Calculus.CONJ):
            yield d
        elif checks(d, Calculus.DISJ):
            yield dualize(d)


def test_erase_keeps_the_order_of_the_other_occurrences(monkeypatch):
    # the cuts translate positions after an erasure by p -> p - (p > occ);
    # every recursive call goes through the wrapper too
    erase, calls = cutelim._erase, []

    def checked(d, occ):
        out = erase(d, occ)
        keys = [f.key() for f in d.concl]
        assert [f.key() for f in out.concl] == keys[:occ] + keys[occ + 1 :]
        calls.append(occ)
        return out

    monkeypatch.setattr(cutelim, "_erase", checked)
    # the criterion-2 world: the complementary pairs are the ones whose cut
    # erases its spill
    for base in (B2, B3):
        world = enumerate_derivations(base, level_cap=60, binary_base_cap=12)
        for d1, i, d2, j in eligible_spill_pairs(world):
            if d2.concl[j].roles == rl.complement(d1.concl[i].roles):
                cut2(d1, i, d2, j)
    # every corpus occurrence, cut against its eta expansion
    for d in corpus_derivations():
        for i, f in enumerate(d.concl):
            e = eta_expand(f.body, [rl.complement(f.roles), f.roles])
            cut2(d, i, e, occ_of(e, rl.complement(f.roles), f.body))
    assert len(calls) > 1000


# ---------------------------------------------------------------------------
# n-sequent cuts and splitting


def test_cutn_single_part_is_empty_erasure():
    d = DBangNegWeaken(0, E2, b, DId(a, (S0, S1)))
    out = cutn(CutSpec([(d, (2,))]))
    assert check(out) == iseq((S0, a), (S1, a))


def test_cutn_pair_matches_cut2():
    d1 = DId(a, (S0, S1))
    d2 = DId(a, (S1, S0))
    out = cutn(CutSpec([(d1, (1,)), (d2, (1,))]))
    assert check(out) == check(cut2(d1, 1, d2, 1))


def test_cutn_three_etas():
    parts = [rl.roleset(B3, [0, 1]), rl.roleset(B3, [0, 2]), rl.roleset(B3, [1, 2])]
    ds = [eta_expand(a, [p, rl.complement(p)]) for p in parts]
    spec = CutSpec([(d, (occ_of(d, p),)) for d, p in zip(ds, parts)])
    out = cutn(spec)
    expect = Sequent(tuple(IFormula(rl.complement(p), a) for p in parts))
    assert check(out) == expect
    assert prove_bounded(check(out), Calculus.CONJ, 4) is not None


def test_cutn_partition_required():
    d1 = DId(a, (S0, S1))
    with pytest.raises(CutError):
        cutn(CutSpec([(d1, (0,)), (d1, (0,))]))


def test_split_example():
    r01 = rl.roleset(B3, [0, 1])
    d = DId(a, (r01, rl.roleset(B3, [2])))
    out = split(d, 0, rl.roleset(B3, [0]), rl.roleset(B3, [1]))
    assert check(out) == Sequent(
        (
            IFormula(rl.roleset(B3, [2]), a),
            IFormula(rl.roleset(B3, [0]), a),
            IFormula(rl.roleset(B3, [1]), a),
        )
    )


def test_split_with_empty_piece_then_cut1_recovers():
    d = DId(a, (S0, S1))
    out = split(d, 0, S0, rl.empty_set(B2))
    got = check(out)
    assert got == iseq((S1, a), (S0, a), (E2, a))
    empty_at = occ_of(out, E2)
    back = cut1(out, empty_at)
    assert check(back) == d.concl


def test_split_endpoint_is_derivable():
    r01 = rl.roleset(B3, [0, 1])
    d = DId(a, (r01, rl.roleset(B3, [2])))
    s = split(d, 0, rl.roleset(B3, [0]), rl.roleset(B3, [1]))
    assert prove_bounded(check(s), Calculus.CONJ, 4) is not None


def test_split_requires_disjoint():
    d = DId(a, (S01, rl.empty_set(B2)))
    with pytest.raises(CutError):
        split(d, 0, S0, S0)


# ---------------------------------------------------------------------------
# disjunctive variants (by duality)


def test_fulset_disj():
    # (G, [full]A) => G in the disjunctive calculus
    d = dualize(DBangNegWeaken(0, E2, b, DId(a, (S0, S1))))
    assert checks(d, Calculus.DISJ)
    full_at = occ_of(d, S01)
    out = fulset_disj(d, full_at)
    assert checks(out, Calculus.DISJ)
    assert check(out, Calculus.DISJ) == iseq((S1, a), (S0, a))


def test_eta_disj():
    d = eta_expand_disj(a, [S0, S1])
    assert check(d, Calculus.DISJ) == iseq((S0, a), (S1, a))


def test_cut2_disj():
    d1 = eta_expand_disj(a, [S0, S1])
    d2 = eta_expand_disj(a, [S1, S0])
    out = cut2_disj(d1, occ_of(d1, S1), d2, occ_of(d2, S0))
    assert checks(out, Calculus.DISJ)
    assert check(out, Calculus.DISJ) == iseq((S0, a), (S1, a))


def test_spill_disj_residue_is_union():
    # disjoint designated sets leave their disjoint union behind
    r0, r1 = rl.roleset(B3, [0]), rl.roleset(B3, [1])
    d1 = eta_expand_disj(a, [r0, rl.complement(r0)])
    d2 = eta_expand_disj(a, [r1, rl.complement(r1)])
    spec = CutSpec([(d1, (occ_of(d1, r0),)), (d2, (occ_of(d2, r1),))])
    out = cut2_spill_disj(spec)
    got = check(out, Calculus.DISJ)
    assert IFormula(rl.roleset(B3, [0, 1]), a) in list(got)


def test_cutn_disj_partition_on_sets_themselves():
    parts = [rl.roleset(B3, [0]), rl.roleset(B3, [1]), rl.roleset(B3, [2])]
    ds = [eta_expand_disj(a, [p, rl.complement(p)]) for p in parts]
    spec = CutSpec([(d, (occ_of(d, p),)) for d, p in zip(ds, parts)])
    out = cutn_disj(spec)
    assert checks(out, Calculus.DISJ)
    assert check(out, Calculus.DISJ) == Sequent(
        tuple(IFormula(rl.complement(p), a) for p in parts)
    )


def test_co_split_recombines():
    r01 = rl.roleset(B3, [0, 1])
    r02 = rl.roleset(B3, [0, 2])
    inter = rl.intersect(r01, r02)
    d = dualize(DId(a, (rl.complement(inter), rl.complement(rl.complement(inter)))))
    assert checks(d, Calculus.DISJ)
    out = co_split_disj(d, occ_of(d, inter), r01, r02)
    assert checks(out, Calculus.DISJ)
    got = check(out, Calculus.DISJ)
    assert IFormula(r01, a) in list(got) and IFormula(r02, a) in list(got)


def test_duality_of_transformers():
    # dualize(cut2(args)) concludes what the disjunctive cut concludes on
    # dualized arguments
    d1 = DId(a, (S0, S1))
    d2 = DId(a, (S1, S0))
    conj_out = cut2(d1, 1, d2, 1)
    disj_out = cut2_disj(dualize(d1), 1, dualize(d2), 1)
    assert dualize(conj_out).concl == disj_out.concl


def test_forall_neg_over_identity_derived_example():
    # the witness-instantiated quantifier over a two-part identity; the
    # endpoint is confirmed by the bounded oracle at depth 2
    py = Atom("p", (Var("y"),))
    px = Atom("p", (Var("x"),))
    d = DForallNeg(1, "x", px, Var("y"), DId(py, (S0, S1)), 0)
    got = check(d)
    assert got == iseq((S1, py), (S0, Forall(1, "x", px)))
    assert prove_bounded(got, Calculus.CONJ, 2) is not None


def test_cut_over_omega_base():
    s = rl.roleset(rl.OMEGA, [1])
    d1 = DId(a, (s, rl.complement(s)))
    d2 = DId(a, (rl.complement(s), s))
    out = cut2(d1, 1, d2, 1)
    assert check(out) == Sequent((IFormula(s, a), IFormula(rl.complement(s), a)))


# ---------------------------------------------------------------------------
# the hard paths of the generalized cut: the ! analysis


def _bang_pos_side(body=One(0), r=0):
    # |- [{0,1}] !r(body) with an empty (vacuously ?-shaped) context
    inner = eta_expand(body, [S01, rl.empty_set(B2)])
    at = occ_of(inner, S01)
    cleaned = cut1(inner, occ_of(inner, rl.empty_set(B2)))
    from lmrl.derivation import DBangPos

    return DBangPos(r, cleaned, occ_of(cleaned, S01))


def test_bang_weaken_principal_runs_out():
    # the designated occurrence on the weakenable side is introduced by the
    # weakening itself: the recursion bottoms out by weakening everything in
    pos = _bang_pos_side()
    neg = DBangNegWeaken(0, S1, One(0), DId(a, (S0, S1)))
    out = cut2_spill(CutSpec([(pos, (0,)), (neg, (2,))]))
    assert check(out) == iseq((S0, a), (S1, a), (S1, Bang(0, One(0))))


def test_bang_derelict_principal_dance():
    pos = _bang_pos_side()
    prem = DOneNeg(S1, 0, DId(a, (S0, S1)))
    neg = DBangNegDerelict(0, prem, 2)
    assert check(neg) == iseq((S0, a), (S1, a), (S1, Bang(0, One(0))))
    out = cut2_spill(CutSpec([(pos, (0,)), (neg, (2,))]))
    assert check(out) == iseq((S0, a), (S1, a), (S1, Bang(0, One(0))))
    assert prove_bounded(check(out), Calculus.CONJ, 6) is not None


def test_bang_contract_principal():
    from lmrl.derivation import DBangNegContract

    pos = _bang_pos_side()
    w1 = DBangNegWeaken(0, S1, One(0), DId(a, (S0, S1)))
    w2 = DBangNegWeaken(0, S1, One(0), w1)
    neg = DBangNegContract(w2, 2, 3)
    assert check(neg) == iseq((S0, a), (S1, a), (S1, Bang(0, One(0))))
    out = cut2_spill(CutSpec([(pos, (0,)), (neg, (2,))]))
    assert check(out) == iseq((S0, a), (S1, a), (S1, Bang(0, One(0))))


def test_bang_multi_designated_occurrences():
    # the repeated-occurrence convention: one part designates two copies
    pos = _bang_pos_side()
    w1 = DBangNegWeaken(0, S1, One(0), DId(a, (S0, S1)))
    w2 = DBangNegWeaken(0, S1, One(0), w1)
    out = cut2_spill(CutSpec([(pos, (0,)), (w2, (2, 3))]))
    assert check(out) == iseq((S0, a), (S1, a), (S1, Bang(0, One(0))))


def test_multi_designation_rejected_for_plain_formulas():
    d = DId(a, (S0, S0, S1))  # not even valid, but the spec check fires first
    with pytest.raises(CutError):
        cut2_spill(CutSpec([(d, (0, 1)), (DId(a, (S1, S0)), (0,))]))


def test_tensor_split_designated_duplicates_and_recontracts():
    from lmrl.derivation import DTensorPos

    pos = _bang_pos_side(body=a, r=0)
    left = DBangNegWeaken(0, S1, a, DId(a, (S0, S1)))
    right = DBangNegWeaken(0, S1, a, DId(a, (S1, S0)))
    both = DTensorPos(0, left, 0, right, 1)
    # conclusion: [{1}]a, [{1}]!a, [{1}]a, [{1}]!a, [{0}] a*a
    bang_positions = [k for k, f in enumerate(both.concl) if f.body == Bang(0, a)]
    assert len(bang_positions) == 2
    out = cut2_spill(CutSpec([(pos, (0,)), (both, tuple(bang_positions))]))
    assert check(out) == iseq(
        (S1, a), (S1, a), (S0, Tensor(0, a, a)), (S1, Bang(0, a))
    )


def test_with_shared_designated_commutes():
    from lmrl.derivation import DWithPos

    pos = _bang_pos_side(body=a, r=0)
    left = DBangNegWeaken(0, S1, a, DId(a, (S0, S1)))
    right = DBangNegWeaken(0, S1, a, DId(a, (S0, S1)))
    shared = DWithPos(0, left, 0, right, 0)
    bang_at = next(k for k, f in enumerate(shared.concl) if f.body == Bang(0, a))
    out = cut2_spill(CutSpec([(pos, (0,)), (shared, (bang_at,))]))
    assert check(out) == iseq((S1, a), (S0, With(0, a, a)), (S1, Bang(0, a)))


def test_bang_both_positive_sides():
    from lmrl.derivation import DBangPos

    p1 = _bang_pos_side(body=One(0), r=0)
    # a second positive side at a strictly smaller member set
    inner = DOnePos(S0, 0)
    p2 = DBangPos(0, inner, 0)
    assert check(p2) == iseq((S0, Bang(0, One(0))),)
    out = cut2_spill(CutSpec([(p1, (0,)), (p2, (0,))]))
    assert check(out) == iseq((S0, Bang(0, One(0))),)


def test_cut1_through_banged_context():
    from lmrl.derivation import DBangPos

    inner = DBangNegWeaken(0, E2, b, DOnePos(S01, 0))
    d = DBangPos(0, inner, 0)
    assert check(d) == iseq((E2, Bang(0, b)), (S01, Bang(0, One(0))))
    out = cut1(d, 0)
    assert check(out) == iseq((S01, Bang(0, One(0))),)


def test_eta_cut_identity_against_oracle_proof():
    # the identity also holds when the cut partner is a proof the bounded
    # search built, not another expansion
    t = Tensor(0, a, a)
    g = iseq((S0, t), (S1, t))
    d = prove_bounded(g, Calculus.CONJ, 3)
    e = eta_expand(t, [rl.complement(S1), S1])
    out = cut2(d, occ_of(d, S1), e, occ_of(e, rl.complement(S1)))
    assert check(out) == g


def test_cutn_disj_single_part_is_fulset():
    # the one-part disjunctive cut erases a full-set occurrence, mirroring
    # the conjunctive empty-set erasure through the duality
    d = dualize(DBangNegWeaken(0, E2, b, DId(a, (S0, S1))))
    full_at = occ_of(d, S01)
    out = cutn_disj(CutSpec([(d, (full_at,))]))
    assert checks(out, Calculus.DISJ)
    assert check(out, Calculus.DISJ) == iseq((S1, a), (S0, a))

"""Cut elimination as total derivation transformations.

Every operation here consumes checking conjunctive derivations and builds a
new derivation whose conclusion is the transformed sequent; outputs re-check.
Disjunctive counterparts are obtained by conjugating with the duality
transform.  A bounded brute-force prover doubles as an independent oracle.

All transformations work on the canonical conclusion layout produced by the
node constructors, tracking occurrences by position.  The generalized cut
carries the lexicographic measure (cut-formula size, height sum) and asserts
strict decrease on every recursive call.

Identity expansion, every principal cut but the atom's and the bang's, and
the prover's backward steps read the rule figures that ``derivation`` states
as data (each rule's index fields, the parts of the major they address, and
the side of the role set its role lies on) rather than restating them per
connective.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import roles as rl
from .roles import RoleSet
from .derivation import (
    Calculus,
    DBangNegContract,
    DBangNegDerelict,
    DBangNegWeaken,
    DBangPos,
    DForallNeg,
    DForallPos,
    DId,
    DOnePos,
    DTensorPos,
    DWithNegL,
    DWithNegR,
    DWithPos,
    Derivation,
    MalformedDerivation,
    MissingOccurrence,
    RULES,
    _wants_member,
    build_rule,
    dualize,
    height,
    is_query_shaped,
    major_part,
    rule_node,
)
from .syntax import (
    Atom,
    Bang,
    Forall,
    Formula,
    IFormula,
    One,
    Sequent,
    Term,
    Var,
    formula_key,
    fresh_name,
    size,
    subst_formula,
    subst_term,
    subterms_of,
    term_vars,
)


class CutError(Exception):
    """Precondition of a transformation violated."""


# ---------------------------------------------------------------------------
# derivation-level substitution


def subst_derivation(d: Derivation, x: str, t: Term) -> Derivation:
    """Substitute ``t`` for the free term variable ``x`` throughout ``d``.

    Structure-preserving (heights unchanged) except that eigenvariables are
    renamed fresh where ``t`` would be captured.
    """
    changes = {}
    match d:
        case DId(atom=a):
            changes["atom"] = subst_formula(a, x, t)
        case DWithNegL(other=o) | DWithNegR(other=o):
            changes["other"] = subst_formula(o, x, t)
        case DBangNegWeaken(body=b):
            changes["body"] = subst_formula(b, x, t)
        case DForallNeg(var=v, body=b, witness=w):
            changes["witness"] = subst_term(w, x, t)
            if v != x:
                changes["body"] = subst_formula(b, x, t)
        case DForallPos(eigen=z):
            if z == x:
                return d
            if z in term_vars(t):
                d = _freshen_eigen(d)
    return d.rebuild([subst_derivation(p, x, t) for p in d.premises], **changes)


def _freshen_eigen(d: DForallPos, z: str | None = None) -> DForallPos:
    """``d`` with its eigenvariable renamed to ``z``, by default a fresh name."""
    z = z or fresh_name(d.eigen)
    return d.rebuild([subst_derivation(d.premise, d.eigen, Var(z))], eigen=z)


# ---------------------------------------------------------------------------
# position bookkeeping helpers
#
# Every node lays its conclusion out canonically (see derivation.py): each
# premise's kept occurrences in premise order, then the major last.  So
# removing or consuming occurrences only closes up the positions after them:
# where the rule is known, positions shift by arithmetic, and elsewhere they
# are read a whole premise block at a time from ``Derivation.blocks``.


def _context(d: Derivation, occs, only: int = 0) -> list[tuple[int, int, int]]:
    """(position, premise, premise position) of each context occurrence of
    ``d`` outside ``occs``, in conclusion order.  A with-pos node's context
    is shared by both branches; it is read from branch ``only``."""
    bs = list(enumerate(d.blocks()))
    bs = bs[only : only + 1] if isinstance(d, DWithPos) else bs
    return [(s + j, k, p) for k, (s, kept) in bs for j, p in enumerate(kept) if s + j not in occs]


def _concl_maps(node: Derivation) -> list[dict[int, int]]:
    """Per premise, kept premise positions -> ``node`` conclusion positions."""
    return [dict(zip(kept, range(s, s + len(kept)))) for s, kept in node.blocks()]


def _contract_chain(d: Derivation, pairs) -> tuple[Derivation, list[int]]:
    """Contract each (keep, drop) position pair in turn.

    Returns the final derivation and a translation for surviving positions;
    both members of a pair translate to the contracted occurrence.
    """
    trans = list(range(len(d.concl)))
    for a, b in pairs:
        ia, ib = trans[a], trans[b]
        d = DBangNegContract(d, ia, ib)
        top = len(d.concl) - 1
        trans = [top if c in (ia, ib) else c - (c > ia) - (c > ib) for c in trans]
    return d, trans


# ---------------------------------------------------------------------------
# cut for one sequent: erasing an empty-role occurrence


def _occurrence(d: Derivation, occ: int) -> IFormula:
    """Conclusion occurrence ``occ`` of ``d``, counted from 0."""
    if not 0 <= occ < len(d.concl):
        raise CutError(f"occurrence {occ} out of range 0..{len(d.concl) - 1}")
    return d.concl[occ]


def cut1(d: Derivation, occ: int) -> Derivation:
    """Remove an occurrence interpreted at the empty role set."""
    item = _occurrence(d, occ)
    if not item.roles.is_empty:
        raise CutError(f"occurrence {occ} has roles {item.roles}, not {{}}")
    return _erase(d, occ)


def _erase(d: Derivation, occ: int) -> Derivation:
    """``d`` without conclusion occurrence ``occ``.  The other occurrences
    keep their order, so position ``p`` moves to ``p - (p > occ)``."""
    if isinstance(d, DId):
        if len(d.rolesets) == 1:
            raise MalformedDerivation("identity over the empty role set alone")
        return DId(d.atom, d.rolesets[:occ] + d.rolesets[occ + 1 :])
    if occ == len(d.concl) - 1:
        if _wants_member(d.rule, Calculus.CONJ):
            raise MalformedDerivation(f"empty-role occurrence introduced by positive rule {d.rule}")
        # a negative rule's one premise without the occurrences it consumed
        p, gone = d.premise, []
        for i in d._indices[0]:
            q = getattr(d, i)
            p = _erase(p, q - sum(q > g for g in gone))
            gone.append(q)
        return p
    # context occurrence: erase it in the premise(s) holding it (both
    # branches of a with-pos) and close up the rule's index fields there
    prems = list(d.premises)
    maps = [None] * len(prems)
    for k, (s, kept) in enumerate(d.blocks()):
        if s <= occ < s + len(kept):
            p = kept[occ - s]
            prems[k] = _erase(prems[k], p)
            maps[k] = {q: q - (q > p) for q in (getattr(d, i) for i in d._indices[k])}
    return d.rebuild(prems, maps)


# ---------------------------------------------------------------------------
# eta expansion


def eta_expand(a: Formula, parts: list[RoleSet]) -> Derivation:
    """Derive ([R1]A, ..., [Rn]A) for a partition of the full role set."""
    if not rl.is_partition_of_full(parts):
        raise CutError("role sets do not partition the base")
    d, _ = _eta(a, list(parts))
    return d


def _lift(node: Derivation, pos: list[int], j: int | None = None) -> list[int]:
    """Positions in ``node``'s first premise moved to its conclusion: those
    after an occurrence the rule consumed close up, and part ``j``'s
    occurrence becomes the new major."""
    gone = [getattr(node, i) for i in node._indices[0]]
    out = [p - sum(p > g for g in gone) for p in pos]
    if j is not None:
        out[j] = len(node.concl) - 1
    return out


def _eta_rules(con: type[Formula]):
    """``con``'s positive rule; the negative rules consuming just the part one
    of its premises adds, by that part; else the one consuming every part."""
    rules = [cls for cls in RULES.values() if cls.connective is con]
    pos = next(cls for cls in rules if _wants_member(cls.rule, Calculus.CONJ))
    negs = {tuple(c.parts[i] for idx in c._indices for i in idx): c for c in rules if c is not pos}
    parts = tuple(pos.parts[i] for (i,) in pos._indices)
    before = {p: negs[(p,)] for p in parts if (p,) in negs}
    return pos, before, None if before else negs[parts]


_ETA = {con: _eta_rules(con) for con in dict.fromkeys(c.connective for c in RULES.values()) if con}


def _eta(a: Formula, parts: list[RoleSet]) -> tuple[Derivation, list[int]]:
    """The expansion of ``a`` over ``parts``, and where each part's occurrence
    lies.  Each premise of the positive rule expands the part it adds.  A
    negative rule consuming just that part then turns every other part's
    occurrence into ``a`` there, so that the positive rule's context
    conditions hold; otherwise the one consuming every part does so below it."""
    n = len(parts)
    if isinstance(a, Atom):
        return DId(a, tuple(parts)), list(range(n))
    if type(a) not in _ETA:
        raise CutError(f"{a._tag} has no logic rule to expand")
    pos_rule, before, after = _ETA[type(a)]
    k = next((k for k, s in enumerate(parts) if a.r in s), None)
    if k is None:
        raise CutError(f"role {a.r} missing from every part")
    t = Var(fresh_name(a.var)) if isinstance(a, Forall) else None

    def negate(rule, d, ps, pos):
        # ``ps``: the positions of each part's occurrences, ``pos``: the result's
        for j in range(n):
            if j != k:
                at = {i: ps[rule.parts[i]][j] for i in rule._indices[0]}
                d = rule_node(rule, IFormula(parts[j], a), [d], at, t)
                ps = {name: _lift(d, p) for name, p in ps.items()}
                pos = _lift(d, pos, j)
        return d, pos

    names = [pos_rule.parts[i] for (i,) in pos_rule._indices]
    prems = []
    for name in names:
        d, p = _eta(major_part(a, name, t), parts)
        prems.append(negate(before[name], d, {name: p}, p) if name in before else (d, p))
    at = {i: p[k] for (i,), (_, p) in zip(pos_rule._indices, prems)}
    d = rule_node(pos_rule, IFormula(parts[k], a), [e for e, _ in prems], at, t)
    if after is None:
        return d, _lift(d, prems[0][1], k)
    m = len(d.concl) - 1  # part k's occurrences became the major
    ps = {name: [sh.get(q, m) for q in p] for name, sh, (_, p) in zip(names, _concl_maps(d), prems)}
    return negate(after, d, ps, [m] * n)


# ---------------------------------------------------------------------------
# the generalized two-sequent cut


@dataclass(slots=True)
class _Side:
    d: Derivation
    occs: frozenset[int]
    rs: RoleSet


@dataclass
class CutSpec:
    """Designated cut occurrences, one group per participating derivation."""

    parts: list[tuple[Derivation, tuple[int, ...]]]

    def sides(self) -> tuple[list[_Side], Formula]:
        if not self.parts:
            raise CutError("cut over no sequents")
        cutf = None
        sides = []
        for d, occs in self.parts:
            if not occs:
                raise CutError("every part needs at least one designated occurrence")
            items = [_occurrence(d, o) for o in occs]
            rs = items[0].roles
            for it in items:
                if it.roles != rs or formula_key(it.body) != formula_key(items[0].body):
                    raise CutError("designated occurrences within a part differ")
            if cutf is None:
                cutf = items[0].body
            elif formula_key(cutf) != formula_key(items[0].body):
                raise CutError("parts designate different cut formulas")
            if len(occs) > 1 and not (isinstance(cutf, Bang) and cutf.r not in rs):
                raise CutError("repeated designation is only for ?-shaped formulas")
            sides.append(_Side(d, frozenset(occs), rs))
        return sides, cutf


def _is_principal(d: Derivation, occs: frozenset[int]) -> bool:
    return isinstance(d, DId) or len(d.concl) - 1 in occs


def _spill(s1: _Side, s2: _Side, cutf: Formula, parent) -> tuple[Derivation, dict, dict, int]:
    """Core of the two-cut with spill.

    Returns (E, out1, out2, spill_pos) where out_i maps every non-designated
    conclusion position of side i to its position in E, and spill_pos locates
    the residual [R1 n R2] occurrence.
    """
    measure = (size(cutf), height(s1.d) + height(s2.d))
    assert parent is None or measure < parent, "cut measure failed to decrease"

    if not s1.occs or not s2.occs:
        e, oe, oo, sp = _spill_terminal(
            (s1, s2) if not s1.occs else (s2, s1), cutf
        )
        return (e, oe, oo, sp) if not s1.occs else (e, oo, oe, sp)

    p1 = _is_principal(s1.d, s1.occs)
    p2 = _is_principal(s2.d, s2.occs)
    if p1 and p2:
        return _principal_pair(s1, s2, cutf, measure)

    # Commute s1 unless it is principal.  With a banged cut formula whose
    # positive side is s2 alone, s2 goes first, so that context-duplicating
    # steps on the negative side can re-contract against a ?-shaped context.
    pos2 = isinstance(cutf, Bang) and cutf.r not in s1.rs and cutf.r in s2.rs
    if p1 or (pos2 and not p2):
        e, o2, o1, sp = _commute(s2, s1, cutf, measure)
        return e, o1, o2, sp
    return _commute(s1, s2, cutf, measure)


def _spill_terminal(sides, cutf) -> tuple[Derivation, dict, dict, int]:
    """No designated occurrences remain on one side: weaken everything in.

    Only reachable through the ! analysis, so the other side ends bang-pos and
    its whole context is ?-shaped.
    """
    empty, other = sides
    if not (isinstance(cutf, Bang) and isinstance(other.d, DBangPos)):
        raise AssertionError("exhausted designation outside the ! analysis")
    e: Derivation = empty.d
    out_empty = {p: p for p in range(len(empty.d.concl))}
    out_other = {}
    for c in range(len(other.d.concl)):
        if c in other.occs:
            continue
        item = other.d.concl[c]
        assert is_query_shaped(item, Calculus.CONJ)
        e = DBangNegWeaken(item.body.r, item.roles, item.body.body, e)
        out_other[c] = len(e.concl) - 1
    spillset = rl.intersect(empty.rs, other.rs)
    e = DBangNegWeaken(cutf.r, spillset, cutf.body, e)
    return e, out_empty, out_other, len(e.concl) - 1


def _commute(sc: _Side, so: _Side, cutf: Formula, measure):
    """Push the cut above ``sc``'s last rule (not principal on its side).

    Each premise holding a designated occurrence is cut against ``so``; a
    with-pos holds them all in both branches, whose shared context is read
    from the left.  The rule is rebuilt once over the cut premises.
    """
    d = sc.d
    if isinstance(d, DForallPos):
        d = _freshen_eigen(d)
    occs, blocks = sc.occs, d.blocks()
    prems, ops, cuts = list(d.premises), [None] * len(blocks), []
    for k, (s, kept) in enumerate(blocks):
        des = frozenset(kept[q - s] for q in occs if s <= q < s + len(kept))
        if des:
            prems[k], ops[k], oo, sp = _spill(_Side(prems[k], des, sc.rs), so, cutf, measure)
            cuts.append((k, oo, sp))
    node = d.rebuild(prems, ops)
    shs = _concl_maps(node)
    out_c = {}
    for (s, kept), sh, op in zip(blocks[:1] if isinstance(d, DWithPos) else blocks, shs, ops):
        for q, p in enumerate(kept, s):
            if q not in occs:
                out_c[q] = sh[p if op is None else op[p]]
    out_c[len(d.concl) - 1] = len(node.concl) - 1
    k, oo, sp = cuts[0]
    sh = shs[k]
    out_o = {q: sh[c] for q, c in oo.items()}
    sp = sh[sp]
    if len(cuts) == 2 and isinstance(d, DTensorPos):
        # Designated occurrences split across both premises: ``so`` was cut
        # into each, so re-contract its duplicated ?-context and spill.
        assert isinstance(cutf, Bang) and isinstance(so.d, DBangPos)
        _, oo1, sp1 = cuts[1]
        pairs = [(sp, shs[1][sp1])] + [(out_o[q], shs[1][oo1[q]]) for q in oo]
        node, tr = _contract_chain(node, pairs)
        out_c = {q: tr[c] for q, c in out_c.items()}
        out_o = {q: tr[c] for q, c in out_o.items()}
        sp = tr[sp]
    return node, out_c, out_o, sp


def _principal_pair(s1: _Side, s2: _Side, cutf: Formula, measure):
    """Both sides principal.  Past atoms, the side whose role set holds the
    cut formula's role goes first, and the output maps swap back once."""
    if isinstance(cutf, Atom):
        d1, d2 = s1.d, s2.d
        assert isinstance(d1, DId) and isinstance(d2, DId)
        (k1,) = s1.occs
        (k2,) = s2.occs
        parts = (
            tuple(s for q, s in enumerate(d1.rolesets) if q != k1)
            + tuple(s for q, s in enumerate(d2.rolesets) if q != k2)
            + (rl.intersect(s1.rs, s2.rs),)
        )
        e = DId(d1.atom, parts)
        n1 = len(d1.rolesets) - 1
        o1 = {q: (q if q < k1 else q - 1) for q in range(len(d1.rolesets)) if q != k1}
        o2 = {q: n1 + (q if q < k2 else q - 1) for q in range(len(d2.rolesets)) if q != k2}
        return e, o1, o2, len(parts) - 1

    swap = cutf.r not in s1.rs
    pos, neg = (s2, s1) if swap else (s1, s2)
    # a unit states its role set, which no figure supplies: the spill's
    changes = {"rs": rl.intersect(s1.rs, s2.rs)} if "rs" in pos.d.__match_args__ else {}
    if cutf.r in neg.rs:
        return _principal_spill(pos, neg, cutf, measure, changes)
    if isinstance(cutf, Bang):
        res = _principal_bang(pos, neg, cutf, measure)
    else:
        res = _principal_neg(pos, neg, cutf, measure, changes)
    e, op, on, sp = res
    return (e, on, op, sp) if swap else res


def _premise_side(s: _Side, k: str) -> _Side:
    """The premise of ``s``'s rule that index field ``k`` addresses (``j``
    a right premise), with that occurrence designated."""
    d = s.d
    return _Side(d.right if k == "j" else d.premises[0], frozenset((getattr(d, k),)), s.rs)


def _cut_part(prem: Derivation, q: int, cutf: Formula, name: str) -> Formula:
    """The part ``name`` of the cut formula, which premise ``prem`` holds at
    ``q``: an instance is read off the instantiated premise."""
    return prem.concl[q].body if name == "instance" else getattr(cutf, name)


def _principal_spill(s1: _Side, s2: _Side, cutf: Formula, measure, changes):
    """Both sides positive, so both end in the cut formula's positive rule.
    Premise ``k`` of each side is cut at the occurrence its ``_indices[k]``
    field names, against the part of the cut formula the rule's ``parts``
    names there, and the rule is applied to the spills with ``changes``.
    Both forall-pos premises are first instantiated at one fresh
    eigenvariable; a with-pos reads its shared context from the left branch."""
    if isinstance(s1.d, DForallPos):
        z = fresh_name(cutf.var)
        s1, s2 = (_Side(_freshen_eigen(s.d, z), s.occs, s.rs) for s in (s1, s2))
    d1, d2 = s1.d, s2.d
    cuts = []
    for (i,) in d1._indices:
        p1 = _premise_side(s1, i)
        a = _cut_part(p1.d, getattr(d1, i), cutf, d1.parts[i])
        cuts.append(_spill(p1, _premise_side(s2, i), a, measure))
    posmaps = [{getattr(d1, i): c[3]} for (i,), c in zip(d1._indices, cuts)]
    node = d1.rebuild([c[0] for c in cuts], posmaps, **changes)
    shs = _concl_maps(node)
    o1 = {q: shs[k][cuts[k][1][p]] for q, k, p in _context(d1, s1.occs)}
    o2 = {q: shs[k][cuts[k][2][p]] for q, k, p in _context(d2, s2.occs)}
    return node, o1, o2, len(node.concl) - 1


def _principal_neg(pos: _Side, neg: _Side, cutf: Formula, measure, changes):
    """One side positive, the other negative.  For each index field of the
    negative rule, in order, the positive premise whose field names the same
    part is cut into the negative side at that field's occurrence, and the
    negative rule is rebuilt over the result with ``changes``.  A forall-pos
    premise is first instantiated at the witness, and the rebuilt forall-neg
    keeps the positive side's binder; a with-pos reads its shared context
    from the branch cut."""
    dp, dn = pos.d, neg.d
    prems = list(dp.premises)
    if isinstance(dp, DForallPos):
        prems[0] = subst_derivation(dp.premise, dp.eigen, dn.witness)
        changes = {"var": dp.eigen, "body": dp.premise.concl[dp.i].body}
    by_part = {dp.parts[i]: (k, getattr(dp, i)) for k, (i,) in enumerate(dp._indices)}
    # negative premise, positive premise k and spill positions -> current ones
    maps: dict = {"neg": {p: p for p in range(len(dn.premise.concl))}, "at": {}}
    cur, k = dn.premise, 0
    for i in dn._indices[0]:
        k, q = by_part[dn.parts[i]]
        side = _Side(cur, frozenset((maps["neg"][getattr(dn, i)],)), neg.rs)
        a = _cut_part(prems[k], q, cutf, dn.parts[i])
        cur, ok, oc, sp = _spill(_Side(prems[k], frozenset((q,)), pos.rs), side, a, measure)
        maps = {m: {p: oc[c] for p, c in mp.items() if c in oc} for m, mp in maps.items()}
        maps[k], maps["at"][getattr(dn, i)] = ok, sp
    node = dn.rebuild([cur], [maps["at"]], **changes)
    (sh,) = _concl_maps(node)
    op = {q: sh[maps[m][p]] for q, m, p in _context(dp, pos.occs, k)}
    on = {q: sh[maps["neg"][p]] for q, _, p in _context(dn, neg.occs)}
    return node, op, on, len(node.concl) - 1


def _principal_bang(pos: _Side, neg: _Side, cutf: Bang, measure):
    bp, nd = pos.d, neg.d
    assert isinstance(bp, DBangPos)
    assert isinstance(nd, (DBangNegWeaken, DBangNegContract, DBangNegDerelict))
    # Cut the positive side into the negative rule's premise against the
    # designated occurrences left there: a contraction's two copies, or none
    # after a weakening (the spill then weakens in).
    ctx = _context(nd, ())
    prem_occs = frozenset(p for q, _, p in ctx if q in neg.occs)
    if isinstance(nd, DBangNegContract):
        prem_occs |= {nd.i, nd.j}
    e, op, onp, sp = _spill(pos, _Side(nd.premise, prem_occs, neg.rs), cutf, measure)
    on = {q: onp[p] for q, _, p in ctx if q not in neg.occs}
    if isinstance(nd, DBangNegDerelict):
        # a dereliction's body is then cut against the positive premise,
        # duplicating its ?-context, which is contracted back
        e2, o2pp, o2e1, sp2 = _spill(
            _premise_side(pos, "i"),
            _Side(e, frozenset((onp[nd.i],)), neg.rs),
            cutf.body,
            measure,
        )
        e3 = DBangNegDerelict(cutf.r, e2, sp2)
        (sh3,) = _concl_maps(e3)
        c_old = sh3[o2e1[sp]]
        pairs = [(c_old, len(e3.concl) - 1)]
        for q, _, p in _context(bp, pos.occs):
            pairs.append((sh3[o2e1[op[q]]], sh3[o2pp[p]]))
        e, tr = _contract_chain(e3, pairs)
        op = {q: tr[sh3[o2e1[c]]] for q, c in op.items()}
        on = {q: tr[sh3[o2e1[c]]] for q, c in on.items()}
        sp = tr[c_old]
    return e, op, on, sp


# ---------------------------------------------------------------------------
# public cut operations


def cut2_spill(spec: CutSpec) -> Derivation:
    """(G1, {[R1]A}; G2, {[R2]A}) => (G1, G2, [R1 n R2]A), complements disjoint."""
    sides, cutf = spec.sides()
    if len(sides) != 2:
        raise CutError("spill cut takes exactly two parts")
    s1, s2 = sides
    if not rl.is_disjoint(rl.complement(s1.rs), rl.complement(s2.rs)):
        raise CutError("role-set complements overlap")
    e, _, _, _ = _spill(s1, s2, cutf, None)
    return e


def cut2(d1: Derivation, occ1: int, d2: Derivation, occ2: int) -> Derivation:
    """(G1, [R]A; G2, [comp R]A) => (G1, G2)."""
    item1, item2 = _occurrence(d1, occ1), _occurrence(d2, occ2)
    rs1, rs2, cutf = item1.roles, item2.roles, item1.body
    if rs2 != rl.complement(rs1):
        raise CutError(f"role sets {rs1} and {rs2} are not complementary")
    if formula_key(cutf) != formula_key(item2.body):
        raise CutError("cut occurrences carry different formulas")
    e, _, _, sp = _spill(
        _Side(d1, frozenset((occ1,)), rs1),
        _Side(d2, frozenset((occ2,)), rs2),
        cutf,
        None,
    )
    return cut1(e, sp)


def cutn(spec: CutSpec) -> Derivation:
    """The n-sequent cut: complements of the designated role sets partition."""
    sides, cutf = spec.sides()
    if not rl.is_partition_of_full([rl.complement(s.rs) for s in sides]):
        raise CutError("role-set complements do not partition the base")
    if len(sides) == 1:
        (s,) = sides
        e: Derivation = s.d
        occs = sorted(s.occs)
        while occs:
            occ = occs.pop(0)
            e = cut1(e, occ)
            occs = [o - (o > occ) for o in occs]
        return e
    cur = sides[0]
    for nxt in sides[1:]:
        e, _, _, sp = _spill(cur, nxt, cutf, None)
        cur = _Side(e, frozenset((sp,)), rl.intersect(cur.rs, nxt.rs))
    assert cur.rs.is_empty
    (sp,) = cur.occs
    return cut1(cur.d, sp)


def split(d: Derivation, occ: int, r1: RoleSet, r2: RoleSet) -> Derivation:
    """(G, [R1 + R2]A) => (G, [R1]A, [R2]A) for disjoint R1, R2."""
    if not rl.is_disjoint(r1, r2):
        raise CutError("splitting role sets overlap")
    item = _occurrence(d, occ)
    if item.roles != rl.union(r1, r2):
        raise CutError("occurrence roles are not the stated disjoint union")
    residue = rl.intersect(rl.complement(r1), rl.complement(r2))
    ed, pos = _eta(item.body, [residue, r1, r2])
    return cut2(d, occ, ed, pos[0])


# ---------------------------------------------------------------------------
# disjunctive lemmas, by duality


def _dual_spec(spec: CutSpec) -> CutSpec:
    return CutSpec([(dualize(d), occs) for d, occs in spec.parts])


def fulset_disj(d: Derivation, occ: int) -> Derivation:
    """(G, [full]A) => G in the disjunctive calculus."""
    return dualize(cut1(dualize(d), occ))


def eta_expand_disj(a: Formula, parts: list[RoleSet]) -> Derivation:
    return dualize(eta_expand(a, [rl.complement(s) for s in parts]))


def cut2_disj(d1, occ1, d2, occ2) -> Derivation:
    return dualize(cut2(dualize(d1), occ1, dualize(d2), occ2))


def cut2_spill_disj(spec: CutSpec) -> Derivation:
    """(G1, [R1]A; G2, [R2]A) => (G1, G2, [R1 + R2]A) for disjoint R1, R2."""
    return dualize(cut2_spill(_dual_spec(spec)))


def cutn_disj(spec: CutSpec) -> Derivation:
    return dualize(cutn(_dual_spec(spec)))


def co_split_disj(d: Derivation, occ: int, r1: RoleSet, r2: RoleSet) -> Derivation:
    """(G, [R1 n R2]A) => (G, [R1]A, [R2]A), complements disjoint."""
    return dualize(split(dualize(d), occ, rl.complement(r1), rl.complement(r2)))


# ---------------------------------------------------------------------------
# bounded proof search (independent oracle)

_SPLIT_CAP = 8  # tensor context splits are enumerated only up to this width


def prove_bounded(
    goal: Sequent,
    calc: Calculus = Calculus.CONJ,
    depth: int = 4,
    witness_pool: list[Term] | None = None,
) -> Derivation | None:
    """Exhaustive backward search up to ``depth`` rule applications deep.

    Universal-negative witnesses are drawn from ``witness_pool`` plus the
    subterms occurring in the goal.  Returns None when no derivation exists
    within the bounds.
    """
    pool: list[Term] = list(witness_pool or [])
    seen = set()
    for f in goal:
        for t in sorted(subterms_of(f.body), key=str):
            k = str(t)
            if k not in seen:
                seen.add(k)
                pool.append(t)
    memo_fail: dict = {}
    try:
        return _prove(goal, calc, depth, tuple(pool), memo_fail)
    except MissingOccurrence:
        raise AssertionError("occurrence vanished from subproof conclusion") from None


def _goal_key(goal: Sequent):
    return tuple(sorted(f.key() for f in goal.items))


def _prove(goal, calc, depth, pool, memo_fail):
    if depth < 1:
        return None
    key = _goal_key(goal)
    if memo_fail.get(key, 0) >= depth:
        return None

    items = goal.items
    # leaves
    if items and all(isinstance(f.body, Atom) for f in items):
        k0 = formula_key(items[0].body)
        if all(formula_key(f.body) == k0 for f in items):
            parts = [f.roles for f in items]
            if calc is Calculus.DISJ:
                parts = [rl.complement(s) for s in parts]
            if rl.is_partition_of_full(parts):
                return DId(items[0].body, tuple(f.roles for f in items))
    if len(items) == 1 and isinstance(items[0].body, One):
        f = items[0]
        if (f.body.r in f.roles) == _wants_member("one-pos", calc):
            return DOnePos(f.roles, f.body.r)

    if depth >= 2:
        d = _prove_steps(goal, calc, depth, pool, memo_fail)
        if d is not None:
            return d
    memo_fail[key] = max(memo_fail.get(key, 0), depth)
    return None


def _step_rows(calc: Calculus) -> dict:
    """Per connective, and then by whether the major's role lies in its role
    set, the rules with premises named for the connective, in ``RULES``
    order: (rule, the term field it takes or None, the major's parts each
    premise adds)."""
    rows: dict = {c: ([], []) for c in _ETA}
    for rule, cls in RULES.items():
        conn = next((c for c in rows if rule.startswith(c.__name__.lower() + "-")), None)
        if conn is not None and cls.schema:
            term = next((f for f in ("witness", "eigen") if f in cls.__match_args__), None)
            adds = tuple(tuple(cls.parts[i] for i in idx) for idx in cls._indices)
            rows[conn][_wants_member(rule, calc)].append((rule, term, adds))
    return rows


_STEPS = {calc: _step_rows(calc) for calc in Calculus}


def _prove_steps(goal, calc, depth, pool, memo_fail):
    """Try each rule with premises on each occurrence as its major: the
    premises keep the rest of the goal and add the parts the rule names.
    Tensor-pos splits the rest every way, bang-pos needs it ?-shaped."""
    steps = _STEPS[calc]
    items = goal.items
    for i, f in enumerate(items):
        body = f.body
        rows = steps.get(type(body))
        if rows is None:
            continue
        rest = items[:i] + items[i + 1 :]
        for rule, term, adds in rows[body.r in f.roles]:
            if rule == "tensor-pos":
                if len(rest) > _SPLIT_CAP:
                    continue
                ctxs = _splits(rest)
            elif rule == "bang-pos" and not all(is_query_shaped(g, calc) for g in rest):
                continue
            else:
                # every premise keeps the whole rest
                ctxs = ((rest, rest),)
            # forall-neg tries every witness, forall-pos one fresh eigenvariable
            for t in pool if term == "witness" else (fresh_name(body.var),) if term else (None,):
                inst = Var(t) if term == "eigen" else t
                parts = [
                    tuple([IFormula(f.roles, major_part(body, p, inst)) for p in a]) for a in adds
                ]
                for ctx in ctxs:
                    subs = []
                    for g, a in zip(ctx, parts):
                        sub = _prove(Sequent(g + a), calc, depth - 1, pool, memo_fail)
                        if sub is None:
                            break
                        subs.append(sub)
                    else:
                        return build_rule(rule, f, subs, **({term: t} if term else {}))
    return None


def _splits(items: tuple):
    """Every split of ``items`` into two ordered parts."""
    n = len(items)
    for mask in range(1 << n):
        yield (
            tuple([items[q] for q in range(n) if mask >> q & 1]),
            tuple([items[q] for q in range(n) if not mask >> q & 1]),
        )


# ---------------------------------------------------------------------------
# the two-role classical translation


def translate_cll2(goal: Sequent) -> tuple[list[Formula], list[Formula]]:
    """Map a two-role sequent onto a left/right classical pair.

    Role-{0} occurrences land on the right, role-{1} on the left; full and
    empty interpretations become the multiplicative unit (rendered here as
    the role-0 unit) on the right and left respectively.
    """
    left: list[Formula] = []
    right: list[Formula] = []
    for f in goal:
        base = f.roles.base
        if not base.is_finite or base.size != 2:
            raise ValueError("translation requires the two-role base")
        s = set(f.roles.carrier)
        if s == {0}:
            right.append(f.body)
        elif s == {1}:
            left.append(f.body)
        elif s == {0, 1}:
            right.append(One(0))
        else:
            left.append(One(0))
    return left, right

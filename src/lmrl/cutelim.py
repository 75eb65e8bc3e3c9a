"""Cut elimination as total derivation transformations.

Every operation here consumes checking conjunctive derivations and builds a
new derivation whose conclusion is the transformed sequent; outputs re-check.
Disjunctive counterparts are obtained by conjugating with the duality
transform.  A bounded brute-force prover doubles as an independent oracle.

All transformations work on the canonical conclusion layout produced by the
node constructors, tracking occurrences by position.  The generalized cut
carries the lexicographic measure (cut-formula size, height sum) and asserts
strict decrease on every recursive call.
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
    DOneNeg,
    DOnePos,
    DTensorNeg,
    DTensorPos,
    DWithNegL,
    DWithNegR,
    DWithPos,
    Derivation,
    MalformedDerivation,
    MissingOccurrence,
    build_rule,
    dualize,
    height,
    is_query_shaped,
)
from .syntax import (
    Atom,
    Bang,
    Forall,
    Formula,
    IFormula,
    One,
    Sequent,
    Tensor,
    Term,
    Var,
    With,
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


def _freshen_eigen(d: DForallPos) -> DForallPos:
    z2 = fresh_name(d.eigen)
    return d.rebuild([subst_derivation(d.premise, d.eigen, Var(z2))], eigen=z2)


# ---------------------------------------------------------------------------
# position bookkeeping helpers


def _prem_to_concl(node: Derivation, k: int) -> dict[int, int]:
    """Premise-``k`` kept positions -> node conclusion positions."""
    return {ppos: cpos for cpos, ppos in node.context_maps()[k].items()}


def _contract_chain(d: Derivation, pairs) -> tuple[Derivation, dict[int, int]]:
    """Contract each (keep, drop) position pair in turn.

    Returns the final derivation and a translation for surviving positions;
    both members of a pair translate to the contracted occurrence.
    """
    trans = {p: p for p in range(len(d.concl))}
    cur = d
    for a, b in pairs:
        ia, ib = trans[a], trans[b]
        node = DBangNegContract(cur, ia, ib)
        shift = _prem_to_concl(node, 0)
        major = len(node.concl) - 1
        trans = {old: major if cpos in (ia, ib) else shift[cpos] for old, cpos in trans.items()}
        cur = node
    return cur, trans


# ---------------------------------------------------------------------------
# cut for one sequent: erasing an empty-role occurrence


def cut1(d: Derivation, occ: int) -> Derivation:
    """Remove an occurrence interpreted at the empty role set."""
    return _cut1(d, occ)[0]


def _cut1(d: Derivation, occ: int) -> tuple[Derivation, dict[int, int]]:
    item = d.concl[occ]
    if not item.roles.is_empty:
        raise CutError(f"occurrence {occ} has roles {item.roles}, not {{}}")
    return _erase(d, occ)


def _erase(d: Derivation, occ: int) -> tuple[Derivation, dict[int, int]]:
    n = len(d.concl)
    majors = d.major_positions()
    if occ in majors:
        match d:
            case DId(atom=a, rolesets=rss):
                if len(rss) == 1:
                    raise MalformedDerivation("identity over the empty role set alone")
                rest = tuple(s for k, s in enumerate(rss) if k != occ)
                e = DId(a, rest)
                return e, {p: (p if p < occ else p - 1) for p in range(n) if p != occ}
            case DOneNeg(premise=p):
                return p, {q: q for q in range(n - 1)}
            case DBangNegWeaken(premise=p):
                return p, {q: q for q in range(n - 1)}
            case DTensorNeg(premise=p, i=i, j=j) | DBangNegContract(premise=p, i=i, j=j):
                e1, m1 = _erase(p, i)
                e2, m2 = _erase(e1, m1[j])
                cmap = d.context_maps()[0]
                return e2, {q: m2[m1[cmap[q]]] for q in range(n) if q != occ}
            case DWithNegL(premise=p, i=i) | DWithNegR(premise=p, i=i) | DBangNegDerelict(
                premise=p, i=i
            ) | DForallNeg(premise=p, i=i):
                e, m = _erase(p, i)
                cmap = d.context_maps()[0]
                return e, {q: m[cmap[q]] for q in range(n) if q != occ}
            case _:
                raise MalformedDerivation(
                    f"empty-role occurrence introduced by positive rule {d.rule}"
                )
    # context occurrence: recurse into the contributing premise(s)
    cmaps = d.context_maps()
    if isinstance(d, DWithPos):
        e1, m1 = _erase(d.left, cmaps[0][occ])
        e2, m2 = _erase(d.right, cmaps[1][occ])
        node = d.rebuild((e1, e2), (m1, m2))
    else:
        k = 0 if occ in cmaps[0] else 1
        prems = list(d.premises)
        e, m = _erase(prems[k], cmaps[k][occ])
        prems[k] = e
        maps = [dict() for _ in d.premises]
        maps[k] = m
        for other in range(len(d.premises)):
            if other != k:
                maps[other] = {p: p for p in range(len(d.premises[other].concl))}
        node = d.rebuild(prems, maps)
        m1, m2 = (maps + [None])[0], (maps + [None, None])[1]
    out = {}
    shifts = [_prem_to_concl(node, k) for k in range(len(node.premises))]
    for q in range(n):
        if q == occ:
            continue
        if q in majors:
            out[q] = len(node.concl) - 1
            continue
        for k, cm in enumerate(cmaps):
            if q in cm:
                src = cm[q]
                mapped = (m1 if k == 0 else m2)[src] if isinstance(d, DWithPos) else (
                    maps[k][src]
                )
                out[q] = shifts[k][mapped]
                break
    return node, out


# ---------------------------------------------------------------------------
# eta expansion


def eta_expand(a: Formula, parts: list[RoleSet]) -> Derivation:
    """Derive ([R1]A, ..., [Rn]A) for a partition of the full role set."""
    if not rl.is_partition_of_full(parts):
        raise CutError("role sets do not partition the base")
    d, _ = _eta(a, list(parts))
    return d


def _pos_part(parts: list[RoleSet], r: int) -> int:
    for k, s in enumerate(parts):
        if r in s:
            return k
    raise CutError(f"role {r} missing from every part")


def _eta(a: Formula, parts: list[RoleSet]) -> tuple[Derivation, list[int]]:
    n = len(parts)
    match a:
        case Atom():
            return DId(a, tuple(parts)), list(range(n))
        case One(r):
            k = _pos_part(parts, r)
            d: Derivation = DOnePos(parts[k], r)
            pos = {k: 0}
            for j in range(n):
                if j != k:
                    d = DOneNeg(parts[j], r, d)
                    pos[j] = len(d.concl) - 1
            return d, [pos[j] for j in range(n)]
        case Tensor(r, a1, a2):
            k = _pos_part(parts, r)
            d1, p1 = _eta(a1, parts)
            d2, p2 = _eta(a2, parts)
            d = DTensorPos(r, d1, p1[k], d2, p2[k])
            sh1, sh2 = _prem_to_concl(d, 0), _prem_to_concl(d, 1)
            left = {j: sh1[p1[j]] for j in range(n) if j != k}
            right = {j: sh2[p2[j]] for j in range(n) if j != k}
            pos = {k: len(d.concl) - 1}
            for j in range(n):
                if j == k:
                    continue
                d2n = DTensorNeg(r, d, left[j], right[j])
                sh = _prem_to_concl(d2n, 0)
                left = {q: sh[p] for q, p in left.items() if q != j}
                right = {q: sh[p] for q, p in right.items() if q != j}
                pos = {q: sh[p] for q, p in pos.items()}
                pos[j] = len(d2n.concl) - 1
                d = d2n
            return d, [pos[j] for j in range(n)]
        case With(r, a1, a2):
            k = _pos_part(parts, r)
            d1, p1 = _eta(a1, parts)
            d2, p2 = _eta(a2, parts)
            for j in range(n):
                if j == k:
                    continue
                node = DWithNegL(r, a2, d1, p1[j])
                sh = _prem_to_concl(node, 0)
                p1 = [len(node.concl) - 1 if q == j else sh[p1[q]] for q in range(n)]
                d1 = node
                node = DWithNegR(r, a1, d2, p2[j])
                sh = _prem_to_concl(node, 0)
                p2 = [len(node.concl) - 1 if q == j else sh[p2[q]] for q in range(n)]
                d2 = node
            d = DWithPos(r, d1, p1[k], d2, p2[k])
            sh = _prem_to_concl(d, 0)
            out = [len(d.concl) - 1 if j == k else sh[p1[j]] for j in range(n)]
            return d, out
        case Bang(r, b):
            k = _pos_part(parts, r)
            d, p = _eta(b, parts)
            for j in range(n):
                if j == k:
                    continue
                node = DBangNegDerelict(r, d, p[j])
                sh = _prem_to_concl(node, 0)
                p = [len(node.concl) - 1 if q == j else sh[p[q]] for q in range(n)]
                d = node
            node = DBangPos(r, d, p[k])
            sh = _prem_to_concl(node, 0)
            return node, [len(node.concl) - 1 if j == k else sh[p[j]] for j in range(n)]
        case Forall(r, x, b):
            k = _pos_part(parts, r)
            z = fresh_name(x)
            bz = subst_formula(b, x, Var(z))
            d, p = _eta(bz, parts)
            for j in range(n):
                if j == k:
                    continue
                node = DForallNeg(r, x, b, Var(z), d, p[j])
                sh = _prem_to_concl(node, 0)
                p = [len(node.concl) - 1 if q == j else sh[p[q]] for q in range(n)]
                d = node
            node = DForallPos(r, z, d, p[k])
            sh = _prem_to_concl(node, 0)
            return node, [len(node.concl) - 1 if j == k else sh[p[j]] for j in range(n)]
    raise TypeError(a)


# ---------------------------------------------------------------------------
# the generalized two-sequent cut


@dataclass(frozen=True)
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
            items = [d.concl[o] for o in occs]
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
    return bool(set(d.major_positions()) & occs)


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
    """Push the cut above ``sc``'s last rule (not principal on its side)."""
    d = sc.d
    if isinstance(d, DForallPos):
        d = _freshen_eigen(d)
    cmaps = d.context_maps()
    majors = d.major_positions()

    if len(d.premises) == 1:
        cmap = cmaps[0]
        prem_occs = frozenset(cmap[p] for p in sc.occs)
        e, op, oo, sp = _spill(_Side(d.premises[0], prem_occs, sc.rs), so, cutf, measure)
        node = d.rebuild((e,), (op,))
        shift = _prem_to_concl(node, 0)
        out_c = {}
        for q in range(len(d.concl)):
            if q in sc.occs:
                continue
            if q in majors:
                out_c[q] = len(node.concl) - 1
            else:
                out_c[q] = shift[op[cmap[q]]]
        out_o = {q: shift[oo[q]] for q in oo}
        return node, out_c, out_o, shift[sp]

    cm0, cm1 = cmaps
    des0 = frozenset(cm0[p] for p in sc.occs if p in cm0)
    des1 = frozenset(cm1[p] for p in sc.occs if p in cm1)

    if isinstance(d, DWithPos):
        e1, o1p, o1o, sp1 = _spill(_Side(d.left, des0, sc.rs), so, cutf, measure)
        e2, o2p, o2o, sp2 = _spill(_Side(d.right, des1, sc.rs), so, cutf, measure)
        node = d.rebuild((e1, e2), (o1p, o2p))
        shift = _prem_to_concl(node, 0)
        out_c = {}
        for q in range(len(d.concl)):
            if q in sc.occs:
                continue
            if q in majors:
                out_c[q] = len(node.concl) - 1
            else:
                out_c[q] = shift[o1p[cm0[q]]]
        out_o = {q: shift[o1o[q]] for q in o1o}
        return node, out_c, out_o, shift[sp1]

    assert isinstance(d, DTensorPos)
    if not des1 or not des0:
        k = 0 if des1 == frozenset() else 1
        prem = d.premises[k]
        des = des0 if k == 0 else des1
        e, op, oo, sp = _spill(_Side(prem, des, sc.rs), so, cutf, measure)
        prems, maps = [d.left, d.right], [None, None]
        prems[k], maps[k] = e, op
        node = d.rebuild(prems, maps)
        sh_new = _prem_to_concl(node, k)
        sh_old = _prem_to_concl(node, 1 - k)
        out_c = {}
        for q in range(len(d.concl)):
            if q in sc.occs:
                continue
            if q in majors:
                out_c[q] = len(node.concl) - 1
            elif q in cmaps[k]:
                out_c[q] = sh_new[op[cmaps[k][q]]]
            else:
                out_c[q] = sh_old[cmaps[1 - k][q]]
        out_o = {q: sh_new[oo[q]] for q in oo}
        return node, out_c, out_o, sh_new[sp]

    # Designated occurrences split across both premises: cut each premise
    # against the other side, then re-contract the duplicated ?-context.
    assert isinstance(cutf, Bang) and isinstance(so.d, DBangPos)
    e1, o1p, o1o, sp1 = _spill(_Side(d.left, des0, sc.rs), so, cutf, measure)
    e2, o2p, o2o, sp2 = _spill(_Side(d.right, des1, sc.rs), so, cutf, measure)
    node = DTensorPos(d.r, e1, o1p[d.i], e2, o2p[d.j])
    shl, shr = _prem_to_concl(node, 0), _prem_to_concl(node, 1)
    pairs = [(shl[sp1], shr[sp2])]
    for q in o1o:
        pairs.append((shl[o1o[q]], shr[o2o[q]]))
    final, tr = _contract_chain(node, pairs)
    out_c = {}
    for q in range(len(d.concl)):
        if q in sc.occs:
            continue
        if q in majors:
            out_c[q] = tr[len(node.concl) - 1]
        elif q in cm0:
            out_c[q] = tr[shl[o1p[cm0[q]]]]
        else:
            out_c[q] = tr[shr[o2p[cm1[q]]]]
    out_o = {q: tr[shl[o1o[q]]] for q in o1o}
    return final, out_c, out_o, tr[shl[sp1]]


def _principal_pair(s1: _Side, s2: _Side, cutf: Formula, measure):
    spillset = rl.intersect(s1.rs, s2.rs)

    match cutf:
        case Atom():
            d1, d2 = s1.d, s2.d
            assert isinstance(d1, DId) and isinstance(d2, DId)
            (k1,) = s1.occs
            (k2,) = s2.occs
            parts = (
                tuple(s for q, s in enumerate(d1.rolesets) if q != k1)
                + tuple(s for q, s in enumerate(d2.rolesets) if q != k2)
                + (spillset,)
            )
            e = DId(d1.atom, parts)
            n1 = len(d1.rolesets) - 1
            o1 = {q: (q if q < k1 else q - 1) for q in range(len(d1.rolesets)) if q != k1}
            o2 = {q: n1 + (q if q < k2 else q - 1) for q in range(len(d2.rolesets)) if q != k2}
            return e, o1, o2, len(parts) - 1

        case One(ro):
            in1, in2 = ro in s1.rs, ro in s2.rs
            if in1 and in2:
                return DOnePos(spillset, ro), {}, {}, 0
            sp_, sn_ = (s1, s2) if in1 else (s2, s1)
            assert isinstance(sp_.d, DOnePos) and isinstance(sn_.d, DOneNeg)
            prem = sn_.d.premise
            e = DOneNeg(spillset, ro, prem)
            on = {q: q for q in range(len(prem.concl))}
            res = (e, {}, on, len(e.concl) - 1)
            return res if in1 else (e, on, {}, len(e.concl) - 1)

        case Tensor(ro, a1, a2):
            return _principal_tensor(s1, s2, cutf, measure, spillset)
        case With(ro, a1, a2):
            return _principal_with(s1, s2, cutf, measure, spillset)
        case Forall():
            return _principal_forall(s1, s2, cutf, measure, spillset)
        case Bang():
            return _principal_bang(s1, s2, cutf, measure, spillset)
    raise TypeError(cutf)


def _principal_tensor(s1, s2, cutf, measure, spillset):
    ro, a1, a2 = cutf.r, cutf.left, cutf.right
    in1, in2 = ro in s1.rs, ro in s2.rs
    if in1 and in2:
        d1, d2 = s1.d, s2.d
        e1, oL1, oL2, sp1 = _spill(
            _Side(d1.left, frozenset((d1.i,)), s1.rs),
            _Side(d2.left, frozenset((d2.i,)), s2.rs),
            a1,
            measure,
        )
        e2, oR1, oR2, sp2 = _spill(
            _Side(d1.right, frozenset((d1.j,)), s1.rs),
            _Side(d2.right, frozenset((d2.j,)), s2.rs),
            a2,
            measure,
        )
        node = DTensorPos(ro, e1, sp1, e2, sp2)
        shl, shr = _prem_to_concl(node, 0), _prem_to_concl(node, 1)
        cm1l, cm1r = d1.context_maps()
        cm2l, cm2r = d2.context_maps()
        o1, o2 = {}, {}
        for q in range(len(d1.concl)):
            if q in s1.occs:
                continue
            o1[q] = shl[oL1[cm1l[q]]] if q in cm1l else shr[oR1[cm1r[q]]]
        for q in range(len(d2.concl)):
            if q in s2.occs:
                continue
            o2[q] = shl[oL2[cm2l[q]]] if q in cm2l else shr[oR2[cm2r[q]]]
        return node, o1, o2, len(node.concl) - 1

    sp_, sn_, pos_is_1 = ((s1, s2, True) if in1 else (s2, s1, False))
    tp, tn = sp_.d, sn_.d
    assert isinstance(tp, DTensorPos) and isinstance(tn, DTensorNeg)
    e1, oL, oN, sp1 = _spill(
        _Side(tp.left, frozenset((tp.i,)), sp_.rs),
        _Side(tn.premise, frozenset((tn.i,)), sn_.rs),
        a1,
        measure,
    )
    qb = oN[tn.j]
    e2, oR, oE1, sp2 = _spill(
        _Side(tp.right, frozenset((tp.j,)), sp_.rs),
        _Side(e1, frozenset((qb,)), sn_.rs),
        a2,
        measure,
    )
    node = DTensorNeg(ro, e2, oE1[sp1], sp2)
    sh = _prem_to_concl(node, 0)
    cmpl, cmpr = tp.context_maps()
    cmn = tn.context_maps()[0]
    op, on = {}, {}
    for q in range(len(tp.concl)):
        if q in sp_.occs:
            continue
        op[q] = sh[oE1[oL[cmpl[q]]]] if q in cmpl else sh[oR[cmpr[q]]]
    for q in range(len(tn.concl)):
        if q in sn_.occs:
            continue
        on[q] = sh[oE1[oN[cmn[q]]]]
    res = (node, op, on, len(node.concl) - 1)
    return res if pos_is_1 else (node, on, op, len(node.concl) - 1)


def _principal_with(s1, s2, cutf, measure, spillset):
    ro, a1, a2 = cutf.r, cutf.left, cutf.right
    in1, in2 = ro in s1.rs, ro in s2.rs
    if in1 and in2:
        d1, d2 = s1.d, s2.d
        e1, oL1, oL2, sp1 = _spill(
            _Side(d1.left, frozenset((d1.i,)), s1.rs),
            _Side(d2.left, frozenset((d2.i,)), s2.rs),
            a1,
            measure,
        )
        e2, oR1, oR2, sp2 = _spill(
            _Side(d1.right, frozenset((d1.j,)), s1.rs),
            _Side(d2.right, frozenset((d2.j,)), s2.rs),
            a2,
            measure,
        )
        node = DWithPos(ro, e1, sp1, e2, sp2)
        sh = _prem_to_concl(node, 0)
        cm1 = d1.context_maps()[0]
        cm2 = d2.context_maps()[0]
        o1 = {
            q: sh[oL1[cm1[q]]]
            for q in range(len(d1.concl))
            if q not in s1.occs and q in cm1
        }
        o2 = {
            q: sh[oL2[cm2[q]]]
            for q in range(len(d2.concl))
            if q not in s2.occs and q in cm2
        }
        return node, o1, o2, len(node.concl) - 1

    sp_, sn_, pos_is_1 = ((s1, s2, True) if in1 else (s2, s1, False))
    wp, wn = sp_.d, sn_.d
    assert isinstance(wp, DWithPos) and isinstance(wn, (DWithNegL, DWithNegR))
    take_left = isinstance(wn, DWithNegL)
    branch, bpos = (wp.left, wp.i) if take_left else (wp.right, wp.j)
    ak = a1 if take_left else a2
    e, opb, onp, spp = _spill(
        _Side(branch, frozenset((bpos,)), sp_.rs),
        _Side(wn.premise, frozenset((wn.i,)), sn_.rs),
        ak,
        measure,
    )
    node = (
        DWithNegL(ro, a2, e, spp) if take_left else DWithNegR(ro, a1, e, spp)
    )
    sh = _prem_to_concl(node, 0)
    cmp_ = wp.context_maps()[0 if take_left else 1]
    cmn = wn.context_maps()[0]
    op = {
        q: sh[opb[cmp_[q]]]
        for q in range(len(wp.concl))
        if q not in sp_.occs and q in cmp_
    }
    on = {
        q: sh[onp[cmn[q]]]
        for q in range(len(wn.concl))
        if q not in sn_.occs
    }
    res = (node, op, on, len(node.concl) - 1)
    return res if pos_is_1 else (node, on, op, len(node.concl) - 1)


def _principal_forall(s1, s2, cutf, measure, spillset):
    ro = cutf.r
    in1, in2 = ro in s1.rs, ro in s2.rs
    if in1 and in2:
        d1, d2 = s1.d, s2.d
        assert isinstance(d1, DForallPos) and isinstance(d2, DForallPos)
        z = fresh_name(cutf.var)
        p1 = subst_derivation(d1.premise, d1.eigen, Var(z))
        p2 = subst_derivation(d2.premise, d2.eigen, Var(z))
        bz = p1.concl[d1.i].body
        e, o1p, o2p, sp = _spill(
            _Side(p1, frozenset((d1.i,)), s1.rs),
            _Side(p2, frozenset((d2.i,)), s2.rs),
            bz,
            measure,
        )
        node = DForallPos(ro, z, e, sp)
        sh = _prem_to_concl(node, 0)
        cm1 = d1.context_maps()[0]
        cm2 = d2.context_maps()[0]
        o1 = {q: sh[o1p[cm1[q]]] for q in range(len(d1.concl)) if q not in s1.occs}
        o2 = {q: sh[o2p[cm2[q]]] for q in range(len(d2.concl)) if q not in s2.occs}
        return node, o1, o2, len(node.concl) - 1

    sp_, sn_, pos_is_1 = ((s1, s2, True) if in1 else (s2, s1, False))
    fp, fn = sp_.d, sn_.d
    assert isinstance(fp, DForallPos) and isinstance(fn, DForallNeg)
    t = fn.witness
    pprem = subst_derivation(fp.premise, fp.eigen, t)
    bstar = pprem.concl[fp.i].body
    e, opp, onp, spx = _spill(
        _Side(pprem, frozenset((fp.i,)), sp_.rs),
        _Side(fn.premise, frozenset((fn.i,)), sn_.rs),
        bstar,
        measure,
    )
    body = fp.premise.concl[fp.i].body
    node = DForallNeg(ro, fp.eigen, body, t, e, spx)
    sh = _prem_to_concl(node, 0)
    cmp_ = fp.context_maps()[0]
    cmn = fn.context_maps()[0]
    op = {q: sh[opp[cmp_[q]]] for q in range(len(fp.concl)) if q not in sp_.occs}
    on = {q: sh[onp[cmn[q]]] for q in range(len(fn.concl)) if q not in sn_.occs}
    res = (node, op, on, len(node.concl) - 1)
    return res if pos_is_1 else (node, on, op, len(node.concl) - 1)


def _principal_bang(s1, s2, cutf, measure, spillset):
    rb = cutf.r
    in1, in2 = rb in s1.rs, rb in s2.rs
    if in1 and in2:
        d1, d2 = s1.d, s2.d
        assert isinstance(d1, DBangPos) and isinstance(d2, DBangPos)
        e, o1p, o2p, sp = _spill(
            _Side(d1.premise, frozenset((d1.i,)), s1.rs),
            _Side(d2.premise, frozenset((d2.i,)), s2.rs),
            cutf.body,
            measure,
        )
        node = DBangPos(rb, e, sp)
        sh = _prem_to_concl(node, 0)
        cm1 = d1.context_maps()[0]
        cm2 = d2.context_maps()[0]
        o1 = {q: sh[o1p[cm1[q]]] for q in range(len(d1.concl)) if q not in s1.occs}
        o2 = {q: sh[o2p[cm2[q]]] for q in range(len(d2.concl)) if q not in s2.occs}
        return node, o1, o2, len(node.concl) - 1

    sp_, sn_, pos_is_1 = ((s1, s2, True) if in1 else (s2, s1, False))
    bp, nd = sp_.d, sn_.d
    assert isinstance(bp, DBangPos)
    major = len(nd.concl) - 1
    cmn = nd.context_maps()[0]

    if isinstance(nd, DBangNegWeaken):
        prem_occs = frozenset(cmn[p] for p in sn_.occs if p != major)
        e, op, onp, sp = _spill(
            sp_, _Side(nd.premise, prem_occs, sn_.rs), cutf, measure
        )
        on = {q: onp[cmn[q]] for q in range(len(nd.concl)) if q not in sn_.occs}
        res = (e, op, on, sp)
        return res if pos_is_1 else (e, on, op, sp)

    if isinstance(nd, DBangNegContract):
        prem_occs = frozenset(cmn[p] for p in sn_.occs if p != major) | {nd.i, nd.j}
        e, op, onp, sp = _spill(
            sp_, _Side(nd.premise, prem_occs, sn_.rs), cutf, measure
        )
        on = {q: onp[cmn[q]] for q in range(len(nd.concl)) if q not in sn_.occs}
        res = (e, op, on, sp)
        return res if pos_is_1 else (e, on, op, sp)

    assert isinstance(nd, DBangNegDerelict)
    prem_occs = frozenset(cmn[p] for p in sn_.occs if p != major)
    e1, o1p, o1n, sp1 = _spill(
        sp_, _Side(nd.premise, prem_occs, sn_.rs), cutf, measure
    )
    qb = o1n[nd.i]
    e2, o2pp, o2e1, sp2 = _spill(
        _Side(bp.premise, frozenset((bp.i,)), sp_.rs),
        _Side(e1, frozenset((qb,)), sn_.rs),
        cutf.body,
        measure,
    )
    e3 = DBangNegDerelict(rb, e2, sp2)
    sh3 = _prem_to_concl(e3, 0)
    c_old = sh3[o2e1[sp1]]
    c_new = len(e3.concl) - 1
    pairs = [(c_old, c_new)]
    cmbp = bp.context_maps()[0]
    for q in range(len(bp.concl)):
        if q in sp_.occs:
            continue
        copy_a = sh3[o2e1[o1p[q]]]
        copy_b = sh3[o2pp[cmbp[q]]]
        pairs.append((copy_a, copy_b))
    final, tr = _contract_chain(e3, pairs)
    op = {}
    for q in range(len(bp.concl)):
        if q in sp_.occs:
            continue
        op[q] = tr[sh3[o2e1[o1p[q]]]]
    on = {}
    for q in range(len(nd.concl)):
        if q in sn_.occs:
            continue
        on[q] = tr[sh3[o2e1[o1n[cmn[q]]]]]
    spill_pos = tr[c_old]
    res = (final, op, on, spill_pos)
    return res if pos_is_1 else (final, on, op, spill_pos)


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
    rs1 = d1.concl[occ1].roles
    rs2 = d2.concl[occ2].roles
    if rs2 != rl.complement(rs1):
        raise CutError(f"role sets {rs1} and {rs2} are not complementary")
    cutf = d1.concl[occ1].body
    if formula_key(cutf) != formula_key(d2.concl[occ2].body):
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
            e, m = _cut1(e, occ)
            occs = [m[o] for o in occs]
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
    item = d.concl[occ]
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


def _member(calc: Calculus, r: int, rs: RoleSet) -> bool:
    return (r in rs) if calc is Calculus.CONJ else (r not in rs)


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
        if _member(calc, f.body.r, f.roles):
            return DOnePos(f.roles, f.body.r)

    if depth >= 2:
        d = _prove_steps(goal, calc, depth, pool, memo_fail)
        if d is not None:
            return d
    memo_fail[key] = max(memo_fail.get(key, 0), depth)
    return None


def _prove_steps(goal, calc, depth, pool, memo_fail):
    items = goal.items
    n = len(items)
    for i in range(n):
        f = items[i]
        rest = goal.without(i)
        match f.body:
            case One(r):
                if not _member(calc, r, f.roles):
                    sub = _prove(rest, calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("one-neg", f, [sub])
            case Tensor(r, a, b):
                fa, fb = IFormula(f.roles, a), IFormula(f.roles, b)
                if not _member(calc, r, f.roles):
                    sub = _prove(rest.extended(fa, fb), calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("tensor-neg", f, [sub])
                elif len(rest) <= _SPLIT_CAP:
                    for mask in range(1 << len(rest)):
                        g1 = [rest[q] for q in range(len(rest)) if mask >> q & 1]
                        g2 = [rest[q] for q in range(len(rest)) if not mask >> q & 1]
                        s1 = _prove(Sequent(tuple(g1) + (fa,)), calc, depth - 1, pool, memo_fail)
                        if s1 is None:
                            continue
                        s2 = _prove(Sequent(tuple(g2) + (fb,)), calc, depth - 1, pool, memo_fail)
                        if s2 is not None:
                            return build_rule("tensor-pos", f, [s1, s2])
            case With(r, a, b):
                fa, fb = IFormula(f.roles, a), IFormula(f.roles, b)
                if not _member(calc, r, f.roles):
                    sub = _prove(rest.extended(fa), calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("with-neg-l", f, [sub])
                    sub = _prove(rest.extended(fb), calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("with-neg-r", f, [sub])
                else:
                    s1 = _prove(rest.extended(fa), calc, depth - 1, pool, memo_fail)
                    if s1 is not None:
                        s2 = _prove(rest.extended(fb), calc, depth - 1, pool, memo_fail)
                        if s2 is not None:
                            return build_rule("with-pos", f, [s1, s2])
            case Bang(r, a):
                fa = IFormula(f.roles, a)
                if _member(calc, r, f.roles):
                    if all(is_query_shaped(g, calc) for g in rest):
                        sub = _prove(rest.extended(fa), calc, depth - 1, pool, memo_fail)
                        if sub is not None:
                            return build_rule("bang-pos", f, [sub])
                else:
                    sub = _prove(rest, calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("bang-neg-weaken", f, [sub])
                    sub = _prove(rest.extended(fa), calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("bang-neg-derelict", f, [sub])
                    sub = _prove(rest.extended(f, f), calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("bang-neg-contract", f, [sub])
            case Forall(r, x, a):
                if not _member(calc, r, f.roles):
                    for t in pool:
                        fi = IFormula(f.roles, subst_formula(a, x, t))
                        sub = _prove(rest.extended(fi), calc, depth - 1, pool, memo_fail)
                        if sub is not None:
                            return build_rule("forall-neg", f, [sub], witness=t)
                else:
                    z = fresh_name(x)
                    fi = IFormula(f.roles, subst_formula(a, x, Var(z)))
                    sub = _prove(rest.extended(fi), calc, depth - 1, pool, memo_fail)
                    if sub is not None:
                        return build_rule("forall-pos", f, [sub], eigen=z)
            case Atom():
                pass
    return None


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

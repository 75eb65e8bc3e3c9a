"""Every principal cut case, pinned to its printed result.

Over base 3, each case cuts identity expansions of one formula whose
connective carries role 0, 1 or 2, so that the positive side is either
argument or both.  ``cut2_spill`` cuts the ``{0,1}`` occurrence of
``eta_expand(A, [{0,1},{2}])`` against the ``{0,2}`` occurrence of
``eta_expand(A, [{0,2},{1}])``; ``cut2`` cuts the ``{0}`` and ``{1,2}``
occurrences of two expansions over ``[{0},{1,2}]`` in both argument orders.
Each side is the expansion itself or a derivation whose last rule
introduces the cut occurrence (see ``_VARIANTS``): on a negative side
with-neg-l/r over an expansion of one branch, bang dereliction over an
expansion of the body, bang weakening or contraction over the expansion,
or forall-neg over an expansion of an instance; on a positive side one-pos
or tensor-pos over expansions of the parts.  Each result must re-check
with the expected conclusion and print as ``golden/principal_cuts.txt``
holds; a change that means to alter cut elimination's output regenerates
that file with ``PYTHONPATH=src python tests/test_principal_cuts.py``.
"""

import functools
import os

import pytest

from lmrl import roles as rl
from lmrl.cutelim import CutSpec, cut2, cut2_spill, eta_expand
from lmrl.derivation import (
    DBangNegContract,
    DBangNegDerelict,
    DBangNegWeaken,
    DForallNeg,
    DOnePos,
    DTensorPos,
    DWithNegL,
    DWithNegR,
    check,
)
from lmrl.printer import format_derivation
from lmrl.syntax import (
    Atom,
    Bang,
    Forall,
    Fun,
    IFormula,
    One,
    Tensor,
    Var,
    With,
    reset_fresh_names,
    subst_formula,
)

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "principal_cuts.txt"
)


def _formulas():
    """(name, formula) for each connective at each role, plus nested ones."""
    p, q, px = Atom("p"), Atom("q"), Atom("p", (Var("x"),))
    out = [("atom", p)]
    for r in range(3):
        out += [
            (f"one{r}", One(r)),
            (f"tensor{r}", Tensor(r, p, q)),
            (f"with{r}", With(r, p, q)),
            (f"bang{r}", Bang(r, p)),
            (f"forall{r}", Forall(r, "x", px)),
        ]
    out += [
        ("nested-tensor", Tensor(1, With(2, p, One(0)), Bang(0, q))),
        ("nested-forall", Forall(2, "x", Tensor(0, px, Bang(1, With(2, px, q))))),
        ("nested-with", With(0, Forall(0, "x", px), Bang(2, q))),
        ("nested-bang", Bang(1, Forall(0, "x", Tensor(1, px, q)))),
    ]
    return out


# Per connective, the variants beside plain expansion: each names a
# derivation whose last rule introduces the cut occurrence, built for the
# positive side (role in the occurrence's set) or for the negative side.
# With both sides principal at once, the argument order alone decides which
# side the cut reads first.
_VARIANTS = {
    One: ["one-pos"],
    Tensor: ["tensor-pos"],
    With: ["with-neg-l", "with-neg-r"],
    Bang: ["bang-neg-derelict", "bang-neg-weaken", "bang-neg-contract"],
    Forall: ["forall-neg"],
}
_POSITIVE = {"one-pos", "tensor-pos"}


def _side(a, parts, rs, variant):
    """(derivation, occurrence at ``rs``): an expansion of ``a`` over
    ``parts``, or ``variant``'s derivation with that occurrence its major
    when the variant suits the occurrence's side."""
    if variant == "eta" or not _suits(a, rs, variant):
        d = eta_expand(a, parts)
        return d, _find(d, rs)
    if variant == "one-pos":
        return DOnePos(rs, a.r), 0
    if variant == "tensor-pos":
        d1, d2 = eta_expand(a.left, parts), eta_expand(a.right, parts)
        node = DTensorPos(a.r, d1, _find(d1, rs), d2, _find(d2, rs))
        return node, len(node.concl) - 1
    if variant in ("bang-neg-weaken", "bang-neg-contract"):
        d = eta_expand(a, parts)
        w = DBangNegWeaken(a.r, rs, a.body, d)
        top = len(w.concl) - 1
        if variant == "bang-neg-weaken":
            return w, top
        return DBangNegContract(w, _find(d, rs), top), top - 1
    if variant == "with-neg-l":
        d = eta_expand(a.left, parts)
        return DWithNegL(a.r, a.right, d, _find(d, rs)), len(d.concl) - 1
    if variant == "with-neg-r":
        d = eta_expand(a.right, parts)
        return DWithNegR(a.r, a.left, d, _find(d, rs)), len(d.concl) - 1
    if variant == "bang-neg-derelict":
        d = eta_expand(a.body, parts)
        return DBangNegDerelict(a.r, d, _find(d, rs)), len(d.concl) - 1
    t = Fun("c", ())
    d = eta_expand(subst_formula(a.body, a.var, t), parts)
    return DForallNeg(a.r, a.var, a.body, t, d, _find(d, rs)), len(d.concl) - 1


def _find(d, rs):
    (occ,) = [k for k, f in enumerate(d.concl) if f.roles == rs]
    return occ


def cases():
    """(case id, thunk returning (result, expected conclusion items))."""
    base = rl.finite_base(3)
    S = {k: rl.roleset(base, k) for k in ((0,), (0, 1), (0, 2), (1,), (1, 2), (2,))}
    spill_sides = [([S[0, 1], S[2,]], S[0, 1]), ([S[0, 2], S[1,]], S[0, 2])]
    cut2_sides = [([S[0,], S[1, 2]], S[0,]), ([S[0,], S[1, 2]], S[1, 2])]
    out = []
    for name, a in _formulas():
        for v in ["eta"] + _VARIANTS.get(type(a), []):
            # a variant that suits neither side would repeat the plain case
            if v == "eta" or any(_suits(a, rs, v) for _, rs in spill_sides):
                out.append((f"spill-{name}-{v}", _spill_case(a, spill_sides, v)))
            if v == "eta" or any(_suits(a, rs, v) for _, rs in cut2_sides):
                for order in ("fwd", "rev"):
                    out.append((f"cut2-{name}-{v}-{order}", _cut2_case(a, cut2_sides, v, order)))
    return out


def _suits(a, rs, variant):
    return (variant in _POSITIVE) == (a.r in rs)


def _spill_case(a, sides, v):
    def run():
        (d1, o1), (d2, o2) = [_side(a, parts, rs, v) for parts, rs in sides]
        e = cut2_spill(CutSpec([(d1, (o1,)), (d2, (o2,))]))
        spill = IFormula(rl.intersect(d1.concl[o1].roles, d2.concl[o2].roles), a)
        return e, _rest(d1, o1) + _rest(d2, o2) + [spill]

    return run


def _cut2_case(a, sides, v, order):
    def run():
        (d1, o1), (d2, o2) = [_side(a, parts, rs, v) for parts, rs in sides]
        if order == "rev":
            d1, o1, d2, o2 = d2, o2, d1, o1
        return cut2(d1, o1, d2, o2), _rest(d1, o1) + _rest(d2, o2)

    return run


def _rest(d, occ):
    return [f for k, f in enumerate(d.concl) if k != occ]


def render_case(run) -> str:
    reset_fresh_names()
    e, want = run()
    got = check(e)
    assert sorted(f.key() for f in got) == sorted(f.key() for f in want)
    return format_derivation(e)


@functools.cache
def _golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as f:
        chunks = f.read().split("## ")[1:]
    return dict(c.rstrip("\n").split("\n", 1) for c in chunks)


_CASES = cases()


@pytest.mark.parametrize("cid,run", _CASES, ids=[c for c, _ in _CASES])
def test_principal_cut_is_unchanged(cid, run):
    assert render_case(run) == _golden()[cid]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(f"## {cid}\n{render_case(run)}\n" for cid, run in cases()))

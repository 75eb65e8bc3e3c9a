"""Byte-identical eta expansions over a fixed formula set.

``golden/eta.txt`` holds ``eta_expand`` and ``eta_expand_disj`` of each
formula below, over bases 2 and 3, with the connective's role set to each
role of the base, at one-part, two-part and empty-part partitions.  Each
entry line names the calculus, formula and parts, and the printed
derivation follows.  Then come conjunctions of equal parts over
partitions that repeat a role set, where an expansion must keep each
part's occurrence apart from its equals by position.  Every expansion re-checks in its calculus and
concludes one occurrence of the formula per part.  A change to eta
expansion or to node conclusions that must not alter its derivations
keeps this file as it is; one that means to regenerates it with
``python tests/test_eta_golden.py``.
"""

import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "eta.txt")

# base -> its partitions; a part is the tuple of roles it holds
PARTITIONS = {
    2: [[(0, 1)], [(0,), (1,)], [(1,), (0,)], [(0, 1), ()], [(), (1,), (0,)]],
    3: [[(0, 1, 2)], [(0,), (1, 2)], [(0, 2), (1,)], [(), (0, 1, 2)], [(1,), (), (0, 2)]],
}

# base -> partitions repeating a role set
REPEATED = {
    2: [[(), (), (0, 1)], [(0,), (), (), (1,)], [(), (1,), (), (0,)]],
    3: [[(), (0, 1, 2), ()], [(1,), (), (0, 2), ()]],
}


def formulas(n: int, r: int):
    """Atom, unit, tensor, with, bang and forall at role ``r``, then two
    nested formulas mixing ``r`` with the next role of base ``n``."""
    from lmrl.syntax import Atom, Bang, Forall, One, Tensor, Var, With

    a, b, s = Atom("a"), Atom("b"), (r + 1) % n
    px, qxy = Atom("p", (Var("x"),)), Atom("q", (Var("x"), Var("y")))
    return [
        a,
        One(r),
        Tensor(r, a, b),
        With(r, a, b),
        Bang(r, a),
        Forall(r, "x", px),
        With(r, Tensor(s, a, One(r)), Bang(s, b)),
        Forall(r, "x", Tensor(s, px, Bang(r, Forall(s, "y", qxy)))),
    ]


def equal_parts(n: int, r: int):
    """Tensor, with and bang-tensor of two equal parts, and a unit tensor,
    at role ``r``."""
    from lmrl.syntax import Atom, Bang, One, Tensor, With

    a = Atom("a")
    bang, one = Bang(r, a), One(r)
    return [Tensor(r, a, a), With(r, a, a), Tensor(r, bang, bang), Tensor(r, one, one)]


def entries():
    """(calculus, formula, parts) in file order."""
    from lmrl import roles as rl
    from lmrl.derivation import Calculus

    out = []
    for family, table in ((formulas, PARTITIONS), (equal_parts, REPEATED)):
        for n, partitions in table.items():
            base = rl.finite_base(n)
            for r in range(n):
                for f in family(n, r):
                    for cells in partitions:
                        parts = [rl.roleset(base, c) for c in cells]
                        out.append((Calculus.CONJ, f, parts))
                        out.append((Calculus.DISJ, f, [rl.complement(s) for s in parts]))
    return out


def render() -> str:
    from lmrl.cutelim import eta_expand, eta_expand_disj
    from lmrl.derivation import Calculus, check
    from lmrl.printer import format_derivation, format_formula
    from lmrl.syntax import IFormula, Sequent, reset_fresh_names

    chunks = []
    for calc, f, parts in entries():
        # each expansion names its eigenvariables as a new interpreter would
        reset_fresh_names()
        expand = eta_expand if calc is Calculus.CONJ else eta_expand_disj
        d = expand(f, parts)
        assert check(d, calc) == Sequent(tuple(IFormula(s, f) for s in parts))
        shown = "; ".join(str(s) for s in parts)
        chunks.append(f"$ {calc.value} {format_formula(f)} over {shown}\n")
        chunks.append(f"{format_derivation(d)}\n")
    return "".join(chunks)


def test_eta_output_is_unchanged():
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    got = render()
    if got != want:
        for a, b in zip(got.split("$ "), want.split("$ ")):
            assert a == b
    assert got == want


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as f:
        f.write(render())

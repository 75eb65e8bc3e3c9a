"""Byte-identical formula keys, text forms and walks over a fixed formula set.

``golden/formulas.txt`` holds one entry per formula below: its printed
form, its ``formula_key`` and whether the printed form re-parses to an
equal formula.  A formula without ``msg`` also gets its ``size``, sorted
``free_vars`` and ``subterms_of``, and ``subst_formula`` of ``x := c`` and
of ``x := f(y)``, which a binder of ``y`` must rename to avoid capture.

The formulas are the leaves ``a``, ``p(x)``, ``p(f(x, y))`` and
``one[0]``, every connective over leaves (``![0]``, ``all[0] x.``,
``all[1] y.``, ``msg[0,1]``, ``*[0]`` and ``&[1]``), and every connective
over those again, a binary one pairing them with ``a`` or ``p(x)`` on
either side.  A change to formulas that must not alter their keys or text
keeps this file as it is; one that means to regenerates it with
``python tests/test_formula_golden.py``.
"""

import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "formulas.txt")


def formulas():
    """The formula set in file order."""
    from lmrl.processes import Msg
    from lmrl.syntax import Atom, Bang, Forall, Fun, One, Tensor, Var, With

    x, y = Var("x"), Var("y")
    leaves = [Atom("a"), Atom("p", (x,)), Atom("p", (Fun("f", (x, y)),)), One(0)]
    unary = [
        lambda b: Bang(0, b),
        lambda b: Forall(0, "x", b),
        lambda b: Forall(1, "y", b),
        lambda b: Msg(0, 1, b),
    ]
    binary = [lambda l, r: Tensor(0, l, r), lambda l, r: With(1, l, r)]
    depth1 = [u(b) for u in unary for b in leaves]
    depth1 += [op(l, r) for op in binary for l in leaves for r in leaves]
    depth2 = [u(b) for u in unary for b in depth1]
    for op in binary:
        for b in depth1:
            for leaf in leaves[:2]:
                depth2 += [op(b, leaf), op(leaf, b)]
    return leaves + depth1 + depth2


def render() -> str:
    from lmrl import roles as rl
    from lmrl.parser import parse_formula_text
    from lmrl.printer import format_formula, format_term
    from lmrl.syntax import Fun, Var, formula_key, free_vars, reset_fresh_names
    from lmrl.syntax import size, subst_formula, subterms_of

    base = rl.finite_base(2)
    c, fy = Var("c"), Fun("f", (Var("y"),))
    lines = []
    for a in formulas():
        text = format_formula(a)
        lines.append(f"$ {text}")
        lines.append(f"  key: {formula_key(a)!r}")
        same = parse_formula_text(text, base) == a
        lines.append(f"  reparses: {'yes' if same else 'no'}")
        if "msg" in text:
            continue
        terms = sorted(format_term(t) for t in subterms_of(a))
        lines.append(f"  size: {size(a)}  free: {sorted(free_vars(a))}  subterms: {terms}")
        for x, t in (("c", c), ("f(y)", fy)):
            # renamed binders are numbered as a new interpreter would number them
            reset_fresh_names()
            lines.append(f"  x := {x}: {format_formula(subst_formula(a, 'x', t))}")
    return "\n".join(lines) + "\n"


def test_formula_walks_are_unchanged():
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

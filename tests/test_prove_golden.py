"""Byte-identical bounded-prover output over a fixed goal set.

``golden/prove.txt`` holds the ``prove_bounded`` result for each goal below
in both calculi at depths 3 and 4, with witness pool ``[c]``: seeded random
base-2 sequents of one to three occurrences over atoms, units, tensor, with,
bang and forall (every other one the two-part identity sequent of a random
formula, which has a proof), then the ``corpus/`` sequent goals.  Each goal
line is followed by the calculus, depth and printed derivation of every
search that found one; the others found none.  A change to the prover that
must not alter its search keeps this file as it is; one that means to
regenerates it with ``python tests/test_prove_golden.py``.
"""

import os
import random
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "prove.txt")

SEED = 20161128
RANDOM_GOALS = 420


def _formula(rng, depth, bound):
    from lmrl.syntax import Atom, Bang, Forall, One, Tensor, Var, With

    if depth == 0 or rng.random() < 0.4:
        leaves = [Atom("a"), Atom("b"), One(0), One(1)]
        if bound is not None:
            leaves.append(Atom("p", (Var(bound),)))
        return rng.choice(leaves)
    r = rng.randrange(2)
    kind = rng.choice(["tensor", "with", "bang", "forall"])
    if kind == "bang":
        return Bang(r, _formula(rng, depth - 1, bound))
    if kind == "forall":
        return Forall(r, "x", _formula(rng, depth - 1, "x"))
    cls = Tensor if kind == "tensor" else With
    return cls(r, _formula(rng, depth - 1, bound), _formula(rng, depth - 1, bound))


def goals():
    """The random goals, then each ``corpus/logic`` sequent in name order."""
    from lmrl import roles as rl
    from lmrl.parser import parse_problem
    from lmrl.syntax import IFormula, Sequent

    base = rl.finite_base(2)
    sets = [rl.roleset(base, c) for c in ((), (0,), (1,), (0, 1))]
    rng = random.Random(SEED)
    out = []
    for k in range(RANDOM_GOALS):
        if k % 2:
            a, r = _formula(rng, 2, None), rng.randrange(4)
            out.append(Sequent((IFormula(sets[r], a), IFormula(sets[3 - r], a))))
            continue
        n = rng.randint(1, 3)
        out.append(
            Sequent(tuple(IFormula(rng.choice(sets), _formula(rng, 2, None)) for _ in range(n)))
        )
    top = os.path.join(ROOT, "corpus", "logic")
    for name in sorted(os.listdir(top)):
        if name.endswith(".seq"):
            with open(os.path.join(top, name), encoding="utf-8") as f:
                out.append(parse_problem(f.read()).sequent)
    return out


def render() -> str:
    from lmrl.cutelim import prove_bounded
    from lmrl.derivation import Calculus
    from lmrl.printer import format_derivation, format_sequent
    from lmrl.syntax import Fun, reset_fresh_names

    pool = [Fun("c", ())]
    chunks = []
    for g in goals():
        chunks.append(f"$ {format_sequent(g)}\n")
        for calc in (Calculus.CONJ, Calculus.DISJ):
            for depth in (3, 4):
                # each search names its eigenvariables as a new interpreter would
                reset_fresh_names()
                d = prove_bounded(g, calc, depth, pool)
                if d is not None:
                    chunks.append(f"{calc.value} {depth}\n{format_derivation(d)}\n")
    return "".join(chunks)


def test_prover_output_is_unchanged():
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

"""Node metadata on derivations: cached heights and conclusions, and the
layout blocks that cut elimination reads, with-pos ones matched by value.

Counts, not timings: the cut-elimination hot path must compute each node's
height once and read each node's layout a bounded number of times per visit.
"""

import glob
import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from worlds import ATOMS, enumerate_derivations, tall_tower

from lmrl import cutelim, derivation
from lmrl import roles as rl
from lmrl.cutelim import cut1, cut2
from lmrl.derivation import (
    DId,
    DOneNeg,
    DOnePos,
    DWithNegL,
    DWithNegR,
    DWithPos,
    Derivation,
    check,
    height,
)
from lmrl.parser import parse_problem
from lmrl.syntax import One

ROOT = os.path.join(os.path.dirname(__file__), "..")
B2 = rl.finite_base(2)
B3 = rl.finite_base(3)


def corpus_derivations():
    paths = sorted(glob.glob(os.path.join(ROOT, "corpus", "logic", "**", "*.drv"), recursive=True))
    for path in paths:
        with open(path) as f:
            yield parse_problem(f.read()).derivation


def world_derivations():
    # the criterion-2 world
    for base in (B2, B3):
        yield from enumerate_derivations(base, level_cap=60, binary_base_cap=12)


def subderivations(roots):
    stack = list(roots)
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.premises)


def identity():
    return DId(ATOMS[0], (rl.roleset(B2, [0]), rl.roleset(B2, [1])))


# ---------------------------------------------------------------------------
# heights


def recursive_height(d: Derivation) -> int:
    return 1 + max((recursive_height(p) for p in d.premises), default=0)


def test_height_agrees_with_an_uncached_reference():
    roots = list(corpus_derivations()) + list(world_derivations())
    assert len(roots) > 500
    for d in subderivations(roots):
        assert height(d) == recursive_height(d)
        assert height(d) == recursive_height(d)  # now read from the cache


def test_height_of_a_tall_chain_does_not_recurse():
    d = identity()
    for _ in range(4999):
        d = DOneNeg(rl.empty_set(B2), 0, d)
    assert height(d) == 5000
    assert height(d.premise) == 4999


def test_conclusion_of_a_tall_chain_does_not_recurse():
    d = identity()
    for _ in range(4999):
        d = DOneNeg(rl.empty_set(B2), 0, d)
    assert sys.getrecursionlimit() < 5000
    assert len(d.concl) == 5001
    assert len(d.premise.concl) == 5000


def test_tall_tower_has_its_height():
    for h in (1, 2, 75):
        tower = tall_tower(random.Random(h), h)
        assert height(tower) == h
        check(tower)


def test_cut_on_a_tower_computes_each_height_once(monkeypatch):
    tower = tall_tower(random.Random(3), 150)
    seen = []
    compute = derivation._height

    def counting(d):
        seen.append(d)
        return compute(d)

    monkeypatch.setattr(derivation, "_height", counting)
    out = check(cut2(tower, 0, identity(), 1))
    assert len(out) == len(tower.concl)
    assert len({id(d) for d in seen}) == len(seen)
    assert len(seen) >= 150


def test_cached_height_leaves_equality_hash_and_repr_alone():
    a, b = identity(), identity()
    before = (repr(a), hash(a), a == b, a == a)
    assert "_height" not in vars(a)
    height(a)
    assert vars(a)["_height"] == 1
    assert (repr(a), hash(a), a == b, a == a) == before
    assert repr(a) == repr(b)


def test_rebuilt_nodes_carry_no_stale_height():
    d = DOneNeg(rl.empty_set(B2), 0, DOneNeg(rl.empty_set(B2), 0, identity()))
    assert height(d) == 3
    again = d.rebuild([identity()])
    assert "_height" not in vars(again)
    assert height(again) == 2


# ---------------------------------------------------------------------------
# layout reads


def counted(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so that each call appends its first argument."""
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


def test_cut_on_a_tower_reads_each_layout_once_per_visit(monkeypatch):
    tower = tall_tower(random.Random(5), 150)
    layouts, principal, visits = [], [], []
    # a with-pos node reads its own layout through Derivation.blocks too
    counted(monkeypatch, Derivation, "blocks", layouts)
    counted(monkeypatch, cutelim, "_is_principal", principal)
    counted(monkeypatch, cutelim, "_spill", visits)
    cut2(tower, 0, identity(), 1)
    # each step down the tower reads the commuted node's layout and the
    # rebuilt node's once each; erasing the spilled empty-role occurrence
    # visits each level once more
    assert len(layouts) <= 3 * 150
    # each visit asks both cut sides once whether they are principal
    assert len(principal) <= 2 * len(visits)
    assert len(visits) >= 150


# ---------------------------------------------------------------------------
# with-pos layout blocks


def greedy_context_maps(d: DWithPos):
    """The quadratic matching: each occurrence scans the second branch for
    the first unused position holding its key."""
    kept1 = [i for i in range(len(d.left.concl)) if i != d.i]
    kept2 = [i for i in range(len(d.right.concl)) if i != d.j]
    m1 = {pos: i for pos, i in enumerate(kept1)}
    m2 = {}
    unused = list(kept2)
    for pos, i in enumerate(kept1):
        want = d.left.concl[i].key()
        for j in unused:
            if d.right.concl[j].key() == want:
                m2[pos] = j
                unused.remove(j)
                break
    return [m1, m2]


def world_pair_nodes():
    """With-pos nodes over pairs of criterion-2 world derivations whose
    conclusions agree up to order (the world itself holds none)."""
    groups = {}
    for d in world_derivations():
        keys = tuple(sorted(f.key() for f in d.concl.items))
        groups.setdefault((d.concl[0].roles.base, keys), []).append(d)
    for ds in groups.values():
        for d1, d2 in itertools.product(ds[:3], repeat=2):
            for i, f in enumerate(d1.concl.items):
                for j, g in enumerate(d2.concl.items):
                    if g.key() == f.key() and f.roles.carrier:
                        yield DWithPos(min(f.roles.carrier), d1, i, d2, j)


def repeated_context_nodes():
    """Branch contexts repeating two keys twice each, in every order on
    either side."""
    orders = sorted(set(itertools.permutations([(), (), (1,), (1,)])))
    for left, right in itertools.product(orders, repeat=2):
        branches = []
        for sets in (left, right):
            d = identity()
            for s in sets:
                d = DOneNeg(rl.roleset(B2, s), 0, d)
            branches.append(d)
        yield DWithPos(0, branches[0], 0, branches[1], 0)


def context_cases(roles):
    """(node, position) for each context occurrence of a repeated-context
    node that carries ``roles`` and the one unit."""
    for d in repeated_context_nodes():
        for q, f in enumerate(d.concl.items[:-1]):
            if f.body == One(0) and f.roles == roles:
                yield d, q


def assert_removed(out: Derivation, d: Derivation, q: int):
    """``out`` re-checks and concludes ``d``'s conclusion without ``q``."""
    want = [f.key() for f in d.concl.items]
    del want[q]
    assert sorted(f.key() for f in check(out).items) == sorted(want)


def test_erasing_through_a_reordered_with_pos_context():
    # the right branch holds the shared context in another order, so
    # erasing an occurrence there must find it by value
    cases = list(context_cases(rl.empty_set(B2)))
    assert len(cases) == 72
    for d, q in cases:
        assert_removed(cut1(d, q), d, q)


def test_commuting_through_a_reordered_with_pos_context():
    one = rl.roleset(B2, [1])
    cases = list(context_cases(one))
    assert len(cases) == 72
    for d, q in cases:
        assert_removed(cut2(d, q, DOnePos(rl.complement(one), 0), 0), d, q)


def test_principal_with_cut_through_a_reordered_with_pos_context():
    # a with-neg over a unit of the shared context sits on the with-pos, so
    # the cut commutes past it and meets the with-pos principal; the branch
    # it cuts must give the context its own positions
    cases = 0
    for d in repeated_context_nodes():
        for q, f in enumerate(d.concl.items[:-1]):
            if f.body != One(0):
                continue
            top = DWithNegL(0, One(0), d, q)
            occ = len(top.concl) - 2
            for rule in (DWithNegL, DWithNegR):
                neg = rule(0, ATOMS[0], identity(), 1)
                want = [f.key() for k, f in enumerate(top.concl.items) if k != occ]
                want += [f.key() for k, f in enumerate(neg.concl.items) if k != 1]
                assert sorted(f.key() for f in check(cut2(top, occ, neg, 1)).items) == sorted(want)
                cases += 1
    assert cases == 288


@pytest.mark.parametrize(
    "source",
    [corpus_derivations, world_pair_nodes, repeated_context_nodes],
    ids=lambda f: f.__name__,
)
def test_with_pos_blocks_match_the_greedy_reference(source):
    nodes = [d for d in subderivations(source()) if isinstance(d, DWithPos)]
    assert nodes
    for d in nodes:
        d.concl  # blocks are read after the conclusion, as cut elimination does
        assert [dict(enumerate(kept, s)) for s, kept in d.blocks()] == greedy_context_maps(d)

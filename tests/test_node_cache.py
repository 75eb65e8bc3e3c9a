"""Node metadata cached on derivations: heights and the with-pos context maps.

Counts, not timings: the cut-elimination hot path must compute each node's
height once and read each node's major positions once per visit.
"""

import glob
import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from worlds import ATOMS, enumerate_derivations, tall_tower

from lmrl import derivation
from lmrl import roles as rl
from lmrl.cutelim import cut2
from lmrl.derivation import DId, DOneNeg, DWithPos, Derivation, check, height
from lmrl.parser import parse_problem

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
# major positions


def test_cut_on_a_tower_reads_major_positions_once_per_visit(monkeypatch):
    tower = tall_tower(random.Random(5), 150)
    calls = []
    for cls in (Derivation, DId):
        original = cls.__dict__["major_positions"]

        def counting(self, original=original):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(cls, "major_positions", counting)
    cut2(tower, 0, identity(), 1)
    # each step down the tower asks both cut sides whether they are
    # principal and the commuted side for its majors once more; erasing the
    # spilled empty-role occurrence visits each level once more
    assert len(calls) <= 4 * 150


# ---------------------------------------------------------------------------
# with-pos context maps


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


@pytest.mark.parametrize(
    "source",
    [corpus_derivations, world_pair_nodes, repeated_context_nodes],
    ids=lambda f: f.__name__,
)
def test_with_pos_context_maps_match_the_greedy_reference(source):
    nodes = [d for d in subderivations(source()) if isinstance(d, DWithPos)]
    assert nodes
    for d in nodes:
        assert d.context_maps() == greedy_context_maps(d)

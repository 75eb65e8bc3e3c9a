"""Structural equivalence against a reference search over cut exchanges.

``struct_equiv`` decides alpha, part permutation and cut exchange by one key
over each cut nest's link tree.  The reference below is the single-move
exchange search it replaced, run without a budget: on nests whose binders
are renamed apart it enumerates a term's whole class.
"""

import random
from itertools import combinations

import pytest

from lmrl import processes
from lmrl import roles as rl
from lmrl.parser import parse_problem
from lmrl.processes import (
    Cut,
    InEmpty,
    NonLinearNet,
    OutEmpty,
    alpha_equiv,
    canonical_key,
    free_names,
    rename_free,
    struct_equiv,
    struct_key,
    typecheck,
)
from lmrl.syntax import One

B2 = rl.finite_base(2)
S0, S1 = rl.roleset(B2, [0]), rl.roleset(B2, [1])


# ---------------------------------------------------------------------------
# the reference: every single exchange move, and the uncapped class search


def assoc_moves(p):
    """All single applications of the cut-exchange equivalence, anywhere.

    Names are read literally, so the moves are complete only on terms whose
    binders are renamed apart.
    """
    if isinstance(p, Cut):
        x, annx, parts = p.x, p.ann, p.parts
        for k, part in enumerate(parts):
            if isinstance(part, Cut) and part.x != x:
                y, anny, inner = part.x, part.ann, part.parts
                rest = parts[:k] + parts[k + 1 :]
                if any(y in free_names(q) for q in rest):
                    continue
                for m, pivot in enumerate(inner):
                    others = inner[:m] + inner[m + 1 :]
                    fp = free_names(pivot)
                    if x not in fp or y not in fp:
                        continue
                    if others and any(x in free_names(q) for q in others):
                        continue
                    yield Cut(y, anny, (Cut(x, annx, (pivot,) + rest),) + others)
    kids = processes._children(p)
    for k, child in enumerate(kids):
        for moved in assoc_moves(child):
            yield processes._rebuild(p, kids[:k] + [moved] + kids[k + 1 :])


def exchange_class(p):
    """The members of ``p``'s class, one per canonical key."""
    seen = {canonical_key(p): p}
    frontier = [p]
    while frontier:
        nxt = []
        for t in frontier:
            for t2 in assoc_moves(t):
                key = canonical_key(t2)
                if key not in seen:
                    seen[key] = t2
                    nxt.append(t2)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# linear nests with binders renamed apart


def uses(*names):
    """A leaf using ``names`` in order."""
    p = InEmpty(names[-1], S0, 0)
    for n in reversed(names[:-1]):
        p = OutEmpty(n, S1, 0, p)
    return p


class Nests:
    """Random linear nests: n-party cuts, idle parts, cuts under prefixes."""

    def __init__(self, rng: random.Random, cuts: int):
        self.rng, self.budget, self.count = rng, cuts, 0

    def part(self, names):
        """A part using exactly ``names``, each inside one leaf."""
        r = self.rng.random()
        if self.budget > 0 and r < 0.45:
            return self.cut(names)
        if self.budget > 0 and names and r < 0.6:
            return OutEmpty(self.rng.choice(names), S1, 0, self.part(names))
        return self.leaf(names)

    def leaf(self, names):
        if not names:
            return InEmpty("z", S0, 0)
        seq = names + [self.rng.choice(names) for _ in range(self.rng.randint(0, 2))]
        self.rng.shuffle(seq)
        return uses(*seq)

    def cut(self, names):
        self.budget -= 1
        self.count += 1
        x = f"c{self.count}"
        shares = [[] for _ in range(self.rng.randint(1, 3))]
        for n in names:
            self.rng.choice(shares).append(n)
        idle = len(shares) > 1 and self.rng.random() < 0.3
        for s in shares[: len(shares) - idle]:
            s.append(x)
        ann = self.rng.choice([None, One(0)])
        return Cut(x, ann, tuple(self.part(s) for s in shares))


def swap(p, a, b):
    return rename_free(rename_free(rename_free(p, a, "_t"), b, a), "_t", b)


def retargets(q, names):
    """``q`` with the subject of one header outside its cuts moved to another
    name in ``names``."""
    if isinstance(q, Cut):
        return
    kids = processes._children(q)
    for b in names:
        if b != q.x:
            yield processes._rebuild(q, kids, x=b)
    for k, c in enumerate(kids):
        for v in retargets(c, names):
            yield processes._rebuild(q, kids[:k] + [v] + kids[k + 1 :])


def near_misses(p):
    """``p`` with the uses inside one non-cut part of a cut moved around.

    Either two names swap, or one use moves to another name.  The part keeps
    its set of names, so the nest stays linear, but the uses move between
    names, which exchange never does.
    """
    kids = processes._children(p)
    for k, q in enumerate(kids):
        variants = []
        if isinstance(p, Cut) and not isinstance(q, Cut):
            names = sorted(free_names(q))
            variants = [swap(q, a, b) for a, b in combinations(names, 2)]
            variants += [v for v in retargets(q, names) if free_names(v) == free_names(q)]
        for v in variants + list(near_misses(q)):
            yield processes._rebuild(p, kids[:k] + [v] + kids[k + 1 :])


def test_struct_key_agrees_with_the_exchange_search():
    rng = random.Random(7)
    key_class = {}
    members = kept = split = 0
    for _ in range(500):
        gen = Nests(rng, rng.randint(1, 5))
        t = gen.cut(rng.choice([[], ["f"]]))
        cls = exchange_class(t)
        key = struct_key(t)
        for m in cls.values():
            assert struct_key(m) == key
        members += len(cls)
        # distinct classes, distinct keys
        assert key_class.setdefault(key, frozenset(cls)) == frozenset(cls)
        for m in near_misses(t):
            same = canonical_key(m) in cls
            assert same == (struct_key(m) == key)
            kept, split = kept + same, split + (not same)
    # the sample reaches many classes, several-member ones, and both verdicts
    assert len(key_class) > 350 and members > 2000 and kept > 10 and split > 2000


# ---------------------------------------------------------------------------
# regressions


def chain_pair(n):
    """Left- and right-nested chains of ``n`` two-party cuts."""
    leaves = [uses("x1")] + [uses(f"x{i}", f"x{i + 1}") for i in range(1, n)] + [uses(f"x{n}")]
    right = leaves[n]
    for i in range(n, 0, -1):
        right = Cut(f"x{i}", None, (leaves[i - 1], right))
    left = leaves[0]
    for i in range(1, n + 1):
        left = Cut(f"x{i}", None, (left, leaves[i]))
    return left, right


@pytest.mark.parametrize("n", [10, 12, 40, 200])
def test_long_chains_are_equivalent(n):
    left, right = chain_pair(n)
    assert not alpha_equiv(left, right)
    assert struct_equiv(left, right)


def test_exchange_behind_a_shadowing_binder():
    # the free y in px blocks the literal move in p, not the move after
    # the inner binder is renamed
    p = Cut("x", None, (Cut("y", None, (uses("x", "y"), uses("y"))), uses("x", "y")))
    q = Cut("x", None, (Cut("w", None, (uses("x", "w"), uses("w"))), uses("x", "y")))
    t = Cut("w", None, (Cut("x", None, (uses("x", "w"), uses("x", "y"))), uses("w")))
    assert alpha_equiv(p, q) and not alpha_equiv(q, t)
    assert struct_equiv(q, t) and struct_equiv(p, t)


SHARED_SERVER = """
base 2
env w : [{0}] ![1] one[0]
proc new x: ![1] one[1] .( new y: one[0] .(
    ?x{0}[a]@1.a{0}[]@1.y{0}()@0.end
  | ?x{0}[b]@1.b{0}[]@1.y{1}[]@0.?w{0}[v]@1.v{0}()@0.end )
  | !x{1}(u)@1.u{1}()@1.end )
"""


def test_shared_server_is_outside_the_decided_domain():
    pf = parse_problem(SHARED_SERVER)
    p = pf.process
    typecheck(p, dict(pf.env))
    inner, server = p.parts
    swapped = Cut(p.x, p.ann, (server, Cut(inner.x, inner.ann, inner.parts[::-1])))
    assert struct_equiv(p, swapped)
    with pytest.raises(NonLinearNet):
        struct_equiv(p, Cut(p.x, p.ann, (inner,)))


def star(k):
    """A leaf using k names, each linked by its own cut to a one-header
    partner; the subtrees behind the k names are equal, so the names tie."""
    leaf = uses(*[f"x{i}" for i in range(k)])
    p = leaf
    for i in range(k):
        p = Cut(f"x{i}", None, (p, uses(f"x{i}")))
    return p, leaf


def test_a_leaf_with_tied_names_is_keyed_once(monkeypatch):
    p, leaf = star(6)
    keyed = []
    canon = processes._canon
    monkeypatch.setattr(processes, "_canon", lambda q, *rest: keyed.append(q) or canon(q, *rest))
    struct_key(p)
    assert sum(q is leaf for q in keyed) == 1


def test_first_use_order_gives_the_least_key(monkeypatch):
    # without the first-use order every leaf tries each ordering of its ties
    rng = random.Random(11)
    terms = [star(k)[0] for k in range(1, 6)]
    terms += [Nests(rng, rng.randint(1, 5)).cut(rng.choice([[], ["f"]])) for _ in range(300)]
    keys = [struct_key(t) for t in terms]
    monkeypatch.setattr(processes, "_first_uses", lambda q: None)
    assert [struct_key(t) for t in terms] == keys

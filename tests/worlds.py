"""Small-world enumerations backing the exhaustive and sampled suites.

The derivation enumeration sweeps every rule with bounded parameter pools
(role-set pools and auxiliary formulas are limited to keep the worlds
tractable; the bounds are the documented caps of the exhaustive suites).
"""

from __future__ import annotations

import itertools
import random

from lmrl import roles as rl
from lmrl.derivation import (
    Calculus,
    DBangNegContract,
    DBangNegDerelict,
    DBangNegWeaken,
    DBangPos,
    DId,
    DOneNeg,
    DOnePos,
    DTensorNeg,
    DTensorPos,
    DWithNegL,
    DWithNegR,
    DWithPos,
    Derivation,
    height,
    is_query_shaped,
)
from lmrl.syntax import Atom, Bang, One, Tensor, With

ATOMS = (Atom("a"), Atom("b"))


def all_rolesets(base):
    n = base.size
    out = []
    for mask in range(1 << n):
        out.append(rl.roleset(base, [k for k in range(n) if mask >> k & 1]))
    return out


def ordered_partitions(base, n_parts):
    """Ordered partitions of the full set into exactly n nonempty parts."""
    n = base.size
    for assign in itertools.product(range(n_parts), repeat=n):
        if set(assign) != set(range(n_parts)):
            continue
        yield tuple(
            rl.roleset(base, [k for k in range(n) if assign[k] == p]) for p in range(n_parts)
        )


def leaf_derivations(base):
    out = []
    for atom in ATOMS:
        for n_parts in (1, 2, 3):
            if n_parts > base.size + 1:
                continue
            for parts in ordered_partitions(base, n_parts):
                out.append(DId(atom, parts))
    for rs in all_rolesets(base):
        for r in range(base.size):
            if r in rs:
                out.append(DOnePos(rs, r))
    return out


def _small_sets(base):
    """Role-set pool for weakening-style sweeps: empty set and singletons."""
    pool = [rl.empty_set(base)]
    pool += [rl.roleset(base, [k]) for k in range(base.size)]
    return pool


def unary_expansions(d, base):
    """All single-rule extensions of ``d`` within the bounded pools."""
    out = []
    items = d.concl.items
    n = len(items)
    for rs in _small_sets(base):
        for r in range(base.size):
            if r not in rs:
                out.append(DOneNeg(rs, r, d))
                for atom in ATOMS:
                    out.append(DBangNegWeaken(r, rs, atom, d))
    for i in range(n):
        fi = items[i]
        for r in range(base.size):
            if r not in fi.roles:
                out.append(DBangNegDerelict(r, d, i))
                for atom in ATOMS:
                    out.append(DWithNegL(r, atom, d, i))
                    out.append(DWithNegR(r, atom, d, i))
        for j in range(n):
            if i != j and items[i].roles == items[j].roles:
                for r in range(base.size):
                    if r not in fi.roles:
                        out.append(DTensorNeg(r, d, i, j))
        if all(is_query_shaped(items[k], Calculus.CONJ) for k in range(n) if k != i):
            for r in sorted(fi.roles.carrier):
                out.append(DBangPos(r, d, i))
    for i in range(n):
        for j in range(i + 1, n):
            if items[i] == items[j] and isinstance(items[i].body, Bang):
                if items[i].body.r not in items[i].roles:
                    out.append(DBangNegContract(d, i, j))
    return out


def binary_expansions(d1, d2):
    out = []
    for i, fi in enumerate(d1.concl.items):
        for j, fj in enumerate(d2.concl.items):
            if fi.roles != fj.roles:
                continue
            for r in fi.roles.carrier:
                out.append(DTensorPos(r, d1, i, d2, j))
    c1 = sorted(f.key() for k, f in enumerate(d1.concl.items))
    for i, fi in enumerate(d1.concl.items):
        for j, fj in enumerate(d2.concl.items):
            if fi.roles != fj.roles:
                continue
            ctx1 = sorted(f.key() for k, f in enumerate(d1.concl.items) if k != i)
            ctx2 = sorted(f.key() for k, f in enumerate(d2.concl.items) if k != j)
            if ctx1 != ctx2:
                continue
            for r in fi.roles.carrier:
                out.append(DWithPos(r, d1, i, d2, j))
    return out


def enumerate_derivations(base, level_cap=80, binary_base_cap=16):
    """Height <= 3 world: leaves, their unary/binary extensions, one more layer.

    ``level_cap`` bounds each generation (deterministic prefix) and
    ``binary_base_cap`` bounds the operand pool of the two-premise rules.
    """
    lvl1 = leaf_derivations(base)
    lvl2 = []
    for d in lvl1[:level_cap]:
        lvl2.extend(unary_expansions(d, base))
    bbase = lvl1[:binary_base_cap]
    for d1 in bbase:
        for d2 in bbase:
            lvl2.extend(binary_expansions(d1, d2))
    lvl2 = _dedup(lvl2)[:level_cap]
    lvl3 = []
    for d in lvl2[:level_cap]:
        lvl3.extend(unary_expansions(d, base))
    bbase2 = (lvl1 + lvl2)[:binary_base_cap]
    for d1 in bbase2:
        for d2 in bbase2:
            lvl3.extend(binary_expansions(d1, d2))
    world = _dedup(lvl1 + lvl2 + lvl3[: level_cap * 3])
    return [d for d in world if height(d) <= 3]


def _dkey(d):
    args = [d.rule, tuple(sorted(f.key() for f in d.concl.items))]
    args.extend(_dkey(p) for p in d.premises)
    return tuple(args)


def _dedup(ds):
    seen = set()
    out = []
    for d in ds:
        k = _dkey(d)
        if k not in seen:
            seen.add(k)
            out.append(d)
    return out


def eligible_spill_pairs(world):
    """All (d1, occ1, d2, occ2) with one formula at complement-disjoint sets."""
    from lmrl.syntax import formula_key

    buckets: dict = {}
    for a, d in enumerate(world):
        for i, f in enumerate(d.concl.items):
            buckets.setdefault(formula_key(f.body), []).append((a, d, i, f.roles))
    for entries in buckets.values():
        for p, (a1, d1, i, r1) in enumerate(entries):
            c1 = rl.complement(r1)
            for a2, d2, j, r2 in entries[p:]:
                if rl.is_disjoint(c1, rl.complement(r2)):
                    yield d1, i, d2, j


def session_formulas(base, max_size):
    """All session types up to the size bound (every role under the base)."""
    n = base.size
    by_size = {0: [One(r) for r in range(n)]}
    for size in range(1, max_size + 1):
        acc = []
        for r in range(n):
            for lsize in range(0, size):
                rsize = size - 1 - lsize
                for left in by_size[lsize]:
                    for right in by_size.get(rsize, ()):
                        acc.append(Tensor(r, left, right))
                        acc.append(With(r, left, right))
            for body in by_size[size - 1]:
                acc.append(Bang(r, body))
        by_size[size] = acc
    out = []
    for size in range(max_size + 1):
        out.extend(by_size[size])
    return out


def small_formulas(base, max_size):
    """General formulas (atoms allowed, no quantifiers) up to the size bound."""
    n = base.size
    by_size = {0: list(ATOMS) + [One(r) for r in range(n)]}
    for size in range(1, max_size + 1):
        acc = []
        for r in range(n):
            for lsize in range(0, size):
                rsize = size - 1 - lsize
                for left in by_size[lsize]:
                    for right in by_size.get(rsize, ()):
                        acc.append(Tensor(r, left, right))
                        acc.append(With(r, left, right))
            for body in by_size[size - 1]:
                acc.append(Bang(r, body))
        by_size[size] = acc
    out = []
    for size in range(max_size + 1):
        out.extend(by_size[size])
    return out


def deep_session(depth: int) -> str:
    """Problem text: ``depth`` nested ``[inl]`` selections against offers.

    Level k selects the branch that holds level k-1; the other branch is a
    unit.  The selector ends by closing the link and using ``w``.
    """
    typ, offer, sel = "one[0]", "x{0}()@0.end", "x{1}[]@0.?w{0}[v]@1.v{0}()@0.end"
    for _ in range(depth):
        typ = f"({typ}) &[0] one[0]"
        offer = f"x{{0}}(case)@0.({offer}, x{{0}}()@0.end)"
        sel = f"x{{1}}[inl]@0.{sel}"
    return f"base 2\nenv w : [{{0}}] ![1] one[0]\nproc new x: {typ} .( {offer} | {sel} )\n"


def tall_tower(rng: random.Random, height: int) -> Derivation:
    """A tower of unary rules over |- [{0}]a, [{1}]a in base 2, leaving
    occurrence 0 alone, so it cuts against an identity at occurrence 0.

    Half the rules add an occurrence (one-neg, bang-neg-weaken) and half
    rewrite an earlier one (with-neg-l/r, bang-neg-derelict), in seeded
    order, so every tower of a height carries the same amount of context.
    """
    base = rl.finite_base(2)
    kinds = ["add"] * ((height - 1) // 2) + ["rewrite"] * (height - 1 - (height - 1) // 2)
    rng.shuffle(kinds)
    roles = [frozenset({0}), frozenset({1})]
    d = DId(ATOMS[0], tuple(rl.roleset(base, s) for s in roles))
    for kind in kinds:
        if kind == "add":
            rule = rng.choice(("one-neg", "one-neg", "weaken"))
            s = rng.choice((frozenset(), frozenset({0}), frozenset({1})))
            r = rng.choice([k for k in (0, 1) if k not in s])
            rs = rl.roleset(base, s)
            d = DOneNeg(rs, r, d) if rule == "one-neg" else DBangNegWeaken(r, rs, ATOMS[1], d)
            roles.append(s)
        else:
            rule = rng.choice(("with-l", "with-r", "derelict"))
            i = rng.randrange(1, len(roles))
            r = rng.choice([k for k in (0, 1) if k not in roles[i]])
            if rule == "derelict":
                d = DBangNegDerelict(r, d, i)
            else:
                d = (DWithNegL if rule == "with-l" else DWithNegR)(r, One(1 - r), d, i)
            roles.append(roles.pop(i))
    return d

"""The five benchmark workloads.

Each workload builds its inputs from the seed, names one round of
operations, prepares a fresh input for each operation, runs the operation
(the only timed part) and verifies the output with computations of its own.
Verification reads role sets only through membership (``r in rs``) and
formulas only through their constructor fields, so it does not lean on
``lmrl.roles`` or on ``Sequent.__eq__``.

Every verification is a list of named checks, each comparing what the
program gave with what the benchmark expects.  ``spoil=NAME`` replaces
that one check's expected value with one that nothing equals, so the
operations that reach the check must count as failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from collections import Counter

from lmrl import cli
from lmrl import roles as rl
from lmrl.cutelim import CutSpec, cut2, cut2_spill
from lmrl.derivation import (
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
    check,
)
from lmrl.parser import parse_formula_text, parse_problem
from lmrl.printer import format_process
from lmrl.processes import ProcessTypeError, check_subject_reduction, normalize, typecheck
from lmrl.syntax import Atom, One

# ---------------------------------------------------------------------------
# keys of the benchmark's own


def term_key(t, env):
    if type(t).__name__ == "Var":
        return ("bv", env[t.name]) if t.name in env else ("fv", t.name)
    return ("fn", t.symbol, tuple(term_key(a, env) for a in t.args))


def formula_key(a, env=None):
    """Structural key; bound variables become their binder depth."""
    env = env or {}
    kind = type(a).__name__
    if kind == "Atom":
        return ("atom", a.pred, tuple(term_key(t, env) for t in a.args))
    if kind == "One":
        return ("one", a.r)
    if kind in ("Tensor", "With"):
        return (kind, a.r, formula_key(a.left, env), formula_key(a.right, env))
    if kind == "Bang":
        return ("bang", a.r, formula_key(a.body, env))
    if kind == "Msg":
        return ("msg", a.r, a.s, formula_key(a.body, env))
    if kind == "Forall":
        return ("forall", a.r, formula_key(a.body, {**env, a.var: len(env)}))
    raise TypeError(kind)


def members(rs, n: int) -> tuple:
    """The roles of ``rs`` in increasing order (a tuple, so keys sort)."""
    return tuple(k for k in range(n) if k in rs)


def item_key(f, n: int):
    return members(f.roles, n), formula_key(f.body)


def multiset(items, n: int) -> Counter:
    return Counter(item_key(f, n) for f in items)


SPOILED = object()  # an expected value that nothing compares equal to


class Workload:
    """Checks by name; ``ops`` is one round, the same on every commit."""

    name: str
    checks: tuple[str, ...] = ()
    ops: list

    def __init__(self, spoil: str | None):
        if spoil is not None and spoil not in self.checks:
            raise ValueError(f"{self.name} has no check {spoil!r}: {', '.join(self.checks)}")
        self.spoil = spoil

    def expect(self, check: str, got, want) -> bool:
        return got == (SPOILED if check == self.spoil else want)


# ---------------------------------------------------------------------------
# small-worlds: the criterion-2 world of height <= 3 derivations

ATOMS = (Atom("a"), Atom("b"))


def _subsets(n):
    return [tuple(k for k in range(n) if m >> k & 1) for m in range(1 << n)]


def _leaves(base, n):
    out = []
    for atom in ATOMS:
        for parts in range(1, min(3, n + 1) + 1):
            for assign in itertools.product(range(parts), repeat=n):
                if set(assign) == set(range(parts)):
                    sets = tuple(
                        rl.roleset(base, [k for k in range(n) if assign[k] == p])
                        for p in range(parts)
                    )
                    out.append(DId(atom, sets))
    for s in _subsets(n):
        out.extend(DOnePos(rl.roleset(base, s), r) for r in s)
    return out


def _unary(d, base, n):
    out = []
    items = d.concl.items
    roles = [members(f.roles, n) for f in items]
    for s in [()] + [(k,) for k in range(n)]:
        for r in range(n):
            if r not in s:
                out.append(DOneNeg(rl.roleset(base, s), r, d))
                out.extend(DBangNegWeaken(r, rl.roleset(base, s), a, d) for a in ATOMS)
    for i, ri in enumerate(roles):
        for r in range(n):
            if r not in ri:
                out.append(DBangNegDerelict(r, d, i))
                for a in ATOMS:
                    out.append(DWithNegL(r, a, d, i))
                    out.append(DWithNegR(r, a, d, i))
        for j, rj in enumerate(roles):
            if i != j and ri == rj:
                out.extend(DTensorNeg(r, d, i, j) for r in range(n) if r not in ri)
        if all(_query_shaped(items[k], roles[k]) for k in range(len(items)) if k != i):
            out.extend(DBangPos(r, d, i) for r in ri)
    keys = [item_key(f, n) for f in items]
    for i, j in itertools.combinations(range(len(items)), 2):
        if keys[i] == keys[j] and _query_shaped(items[i], roles[i]):
            out.append(DBangNegContract(d, i, j))
    return out


def _query_shaped(f, roles):
    return type(f.body).__name__ == "Bang" and f.body.r not in roles


def _binary(d1, d2, n):
    out = []
    k1 = [item_key(f, n) for f in d1.concl.items]
    k2 = [item_key(f, n) for f in d2.concl.items]
    pairs = [(i, j) for i in range(len(k1)) for j in range(len(k2)) if k1[i][0] == k2[j][0]]
    for i, j in pairs:
        out.extend(DTensorPos(r, d1, i, d2, j) for r in k1[i][0])
    for i, j in pairs:
        if sorted(k1[:i] + k1[i + 1 :]) == sorted(k2[:j] + k2[j + 1 :]):
            out.extend(DWithPos(r, d1, i, d2, j) for r in k1[i][0])
    return out


def _dkey(d, n):
    return (d.rule, tuple(sorted(item_key(f, n) for f in d.concl.items))) + tuple(
        _dkey(p, n) for p in d.premises
    )


def _dedup(ds, n):
    seen = set()
    out = []
    for d in ds:
        k = _dkey(d, n)
        if k not in seen:
            seen.add(k)
            out.append(d)
    return out


def _height(d):
    return 1 + max((_height(p) for p in d.premises), default=0)


def small_world(n, level_cap=60, binary_cap=12):
    """Leaves, one generation of rules over them, then one more (height <= 3).

    The caps are those of the acceptance suite's exhaustive world: each
    generation keeps its first ``level_cap`` members and two-premise rules
    draw operands from the first ``binary_cap`` derivations.  This builds
    the same world as ``tests/worlds.py`` with those caps, but is a frozen
    copy on purpose: the benchmark's inputs must not change when the tests
    change, and it compares occurrences with its own keys, not with
    ``formula_key``, ``Sequent.__eq__`` or ``lmrl.roles``, whose behaviour a
    change under measurement may alter.
    """
    base = rl.finite_base(n)
    lvl1 = _leaves(base, n)
    lvl2 = [e for d in lvl1[:level_cap] for e in _unary(d, base, n)]
    for d1, d2 in itertools.product(lvl1[:binary_cap], repeat=2):
        lvl2 += _binary(d1, d2, n)
    lvl2 = _dedup(lvl2, n)[:level_cap]
    lvl3 = [e for d in lvl2 for e in _unary(d, base, n)]
    for d1, d2 in itertools.product((lvl1 + lvl2)[:binary_cap], repeat=2):
        lvl3 += _binary(d1, d2, n)
    world = _dedup(lvl1 + lvl2 + lvl3[: level_cap * 3], n)
    return [d for d in world if _height(d) <= 3]


def spill_pairs(world, n):
    """(d1, i, d2, j) with one formula at role sets whose complements are disjoint."""
    full = frozenset(range(n))
    buckets: dict = {}
    for d in world:
        for i, f in enumerate(d.concl.items):
            rs, fk = item_key(f, n)
            buckets.setdefault(fk, []).append((d, i, frozenset(rs)))
    for entries in buckets.values():
        for p, (d1, i, r1) in enumerate(entries):
            for d2, j, r2 in entries[p:]:
                if not (full - r1) & (full - r2):
                    yield d1, i, d2, j


class SmallWorlds(Workload):
    """cut2_spill (and cut2 where complementary) over the criterion-2 world.

    One operation is a batch of ``batch`` consecutive pairs of the shuffled
    list (~4 ms).  Single cuts take ~0.13 ms in base 2 and ~0.21 ms in
    base 3; the median of that two-humped distribution would sit in the gap
    between the humps and jump between runs.  Batch times have one hump.
    """

    name = "small-worlds"
    checks = ("spill-conclusion", "cut2-conclusion")
    batch = 20
    round_s = 12.8  # one round is the whole world

    def __init__(self, seed: int, spoil: str | None = None):
        super().__init__(spoil)
        pairs = []
        # own keys of the world's occurrences, by identity (the world outlives
        # every output, so an id here always names the same object)
        self.known: dict = {}
        for n in (2, 3):
            world = small_world(n)
            for d in world:
                for f in d.concl.items:
                    self.known[id(f)] = (f, item_key(f, n))
            for d1, i, d2, j in spill_pairs(world, n):
                r1 = set(self._keys(d1)[i][0])
                r2 = set(self._keys(d2)[j][0])
                complementary = not r1 & r2 and r1 | r2 == set(range(n))
                pairs.append((n, d1, i, d2, j, complementary))
        random.Random(seed).shuffle(pairs)
        self.ops = [pairs[k : k + self.batch] for k in range(0, len(pairs), self.batch)]

    def _keys(self, d):
        return [self.known[id(f)][1] for f in d.concl.items]

    def _multiset(self, items, n):
        out = Counter()
        for f in items:
            hit = self.known.get(id(f))
            out[hit[1] if hit is not None and hit[0] is f else item_key(f, n)] += 1
        return out

    def prepare(self, op):
        return op

    def run(self, batch):
        out = []
        for _, d1, i, d2, j, complementary in batch:
            spilled = check(cut2_spill(CutSpec([(d1, (i,)), (d2, (j,))])))
            cut = check(cut2(d1, i, d2, j)) if complementary else None
            out.append((spilled, cut))
        return out

    def verify(self, batch, arg, out):
        return all(self._verify_pair(pair, res) for pair, res in zip(batch, out))

    def _verify_pair(self, pair, res):
        n, d1, i, d2, j, complementary = pair
        spilled, cut = res
        k1, k2 = self._keys(d1), self._keys(d2)
        rest = Counter(k1[:i] + k1[i + 1 :] + k2[:j] + k2[j + 1 :])
        shared = tuple(r for r in k1[i][0] if r in k2[j][0])
        expect = rest + Counter([(shared, k1[i][1])])
        if not self.expect("spill-conclusion", self._multiset(spilled.items, n), expect):
            return False
        return not complementary or self.expect(
            "cut2-conclusion", self._multiset(cut.items, n), rest
        )


# ---------------------------------------------------------------------------
# tall-cut: a tower of unary rules cut against an identity

B2 = rl.finite_base(2)


def tower_spec(rng: random.Random, height: int):
    """Rule choices for a tower over |- [{0}]a, [{1}]a leaving occurrence 0 alone.

    Half the rules add an occurrence (one-neg, bang-neg-weaken) and half
    rewrite an earlier one (with-neg-l/r, bang-neg-derelict), in seeded
    order, so every tower of a height carries the same amount of context.
    Each step is (rule, r, roles, index): roles for rules that add an
    occurrence, index for rules that rewrite one.
    """
    kinds = ["add"] * ((height - 1) // 2) + ["rewrite"] * (height - 1 - (height - 1) // 2)
    rng.shuffle(kinds)
    roles = [frozenset({0}), frozenset({1})]
    spec = []
    for kind in kinds:
        if kind == "add":
            rule = rng.choice(("one-neg", "one-neg", "weaken"))
            s = rng.choice((frozenset(), frozenset({0}), frozenset({1})))
            r = rng.choice([k for k in (0, 1) if k not in s])
            spec.append((rule, r, s, None))
            roles.append(s)
        else:
            rule = rng.choice(("with-l", "with-r", "derelict"))
            i = rng.randrange(1, len(roles))
            r = rng.choice([k for k in (0, 1) if k not in roles[i]])
            spec.append((rule, r, None, i))
            roles.append(roles.pop(i))
    return spec


def build_tower(spec):
    d = DId(ATOMS[0], (rl.roleset(B2, [0]), rl.roleset(B2, [1])))
    for rule, r, s, i in spec:
        if rule == "one-neg":
            d = DOneNeg(rl.roleset(B2, s), r, d)
        elif rule == "weaken":
            d = DBangNegWeaken(r, rl.roleset(B2, s), ATOMS[1], d)
        elif rule == "with-l":
            d = DWithNegL(r, One(1 - r), d, i)
        elif rule == "with-r":
            d = DWithNegR(r, One(1 - r), d, i)
        else:
            d = DBangNegDerelict(r, d, i)
    return d


class TallCut(Workload):
    """cut2 then check on a fresh tower of fixed height against an identity."""

    name = "tall-cut"
    checks = ("tower-height", "conclusion")
    height = 150
    round_ops = 120
    round_s = 5.0

    def __init__(self, seed: int, spoil: str | None = None):
        super().__init__(spoil)
        rng = random.Random(seed)
        self.ops = [tower_spec(rng, self.height) for _ in range(self.round_ops)]

    def prepare(self, spec):
        return build_tower(spec), DId(ATOMS[0], (rl.roleset(B2, [0]), rl.roleset(B2, [1])))

    def run(self, arg):
        tower, ident = arg
        return check(cut2(tower, 0, ident, 1))

    def verify(self, spec, arg, out):
        tower, ident = arg
        expect = multiset(tower.concl.items[1:] + ident.concl.items[:1], 2)
        return self.expect("tower-height", _height(tower), self.height) and self.expect(
            "conclusion", multiset(out.items, 2), expect
        )


# ---------------------------------------------------------------------------
# processes: generated sessions in base 2

ENV = "env w : [{0}] ![1] one[0]"


def _names(rng, k):
    return [f"{c}{rng.randrange(1000)}" for c in rng.sample("abcdefghkmnpqrstuvz", k)]


def deep_session(rng: random.Random, depth: int):
    """Nested selections against offers; returns (problem text, continuation).

    Level k selects the branch that holds level k-1; the other branch is a
    unit.  The selector ends by closing the link and using ``w``.
    """
    x, v = _names(rng, 2)
    cont = f"?w{{0}}[{v}]@1.{v}{{0}}()@0.end"
    typ, offer, sel = "one[0]", f"{x}{{0}}()@0.end", f"{x}{{1}}[]@0.{cont}"
    unit = f"{x}{{0}}()@0.end"
    for _ in range(depth):
        if rng.random() < 0.5:
            typ = f"({typ}) &[0] one[0]"
            offer = f"{x}{{0}}(case)@0.({offer}, {unit})"
            sel = f"{x}{{1}}[inl]@0.{sel}"
        else:
            typ = f"one[0] &[0] ({typ})"
            offer = f"{x}{{0}}(case)@0.({unit}, {offer})"
            sel = f"{x}{{1}}[inr]@0.{sel}"
    return f"base 2\n{ENV}\nproc new {x}: {typ} .( {offer} | {sel} )\n", cont


def server_fanout(rng: random.Random, clients: int):
    """One client making ``clients`` requests to one replicated server."""
    names = _names(rng, 4)
    x, u, v = names[:3]
    cont = f"?w{{0}}[{v}]@1.{v}{{0}}()@0.end"
    client = cont
    for k in range(clients):
        y = f"{names[3]}_{k}"
        client = f"?{x}{{0}}[{y}]@1.{y}{{0}}[]@1.{client}"
    server = f"!{x}{{1}}({u})@1.{u}{{1}}()@1.end"
    return f"base 2\n{ENV}\nproc new {x}: ![1] one[1] .( {client} | {server} )\n", cont


class DeepSession(Workload):
    """check_subject_reduction on a fresh session of fixed selection depth."""

    name = "deep-session"
    checks = ("ok", "exhausted", "cut-free", "steps", "normal-form")
    depth = 25
    round_ops = 100
    round_s = 3.7

    def __init__(self, seed: int, spoil: str | None = None):
        super().__init__(spoil)
        rng = random.Random(seed)
        self.ops = [deep_session(rng, self.depth) for _ in range(self.round_ops)]

    def prepare(self, op):
        pf = parse_problem(op[0])
        return pf.process, dict(pf.env)

    def run(self, arg):
        p, env = arg
        return check_subject_reduction(p, env, 10 * self.depth)

    def verify(self, op, arg, rep):
        return (
            self.expect("ok", rep.ok, True)
            and self.expect("exhausted", rep.exhausted, False)
            and self.expect("cut-free", rep.cut_free, True)
            and self.expect("steps", rep.steps, self.depth + 1)
            and self.expect("normal-form", format_process(rep.normal_form), op[1])
        )


class ServerFanout(Workload):
    """normalize on a fresh client of fixed request count against one server."""

    name = "server-fanout"
    checks = ("exhausted", "result", "typechecks")
    clients = 40
    round_ops = 100
    round_s = 3.0

    def __init__(self, seed: int, spoil: str | None = None):
        super().__init__(spoil)
        rng = random.Random(seed)
        self.ops = [server_fanout(rng, self.clients) for _ in range(self.round_ops)]

    def prepare(self, op):
        pf = parse_problem(op[0])
        return pf.process, dict(pf.env)

    def run(self, arg):
        return normalize(arg[0], 20 * self.clients)

    def verify(self, op, arg, res):
        try:
            typecheck(res.process, arg[1])
            typed = True
        except ProcessTypeError:
            typed = False
        return (
            self.expect("exhausted", res.exhausted, False)
            and self.expect("result", format_process(res.process), op[1])
            and self.expect("typechecks", typed, True)
        )


# ---------------------------------------------------------------------------
# corpus: every corpus file through each subcommand that accepts it


def _base_size(text: str) -> int:
    return int(text.split()[1])


def _after(out: str, prefix: str) -> str:
    lines = out.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    return "\n".join(lines[k:])


class Corpus(Workload):
    """lmrl.cli.main in-process on every corpus file and subcommand."""

    name = "corpus"
    checks = ("exit-status", "says-ok", "reparses", "cut-free", "concludes-goal", "cll2-split")
    round_s = 0.75
    depth = 3  # prove --depth
    fuel = 200  # run / sr-check --fuel

    def __init__(self, seed: int, spoil: str | None = None):
        super().__init__(spoil)
        self.ops = []
        for dirpath, _, files in sorted(os.walk("corpus")):
            for fname in sorted(files):
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as f:
                    source = f.read()
                self.ops.extend(self._commands(path, source))
        random.Random(seed).shuffle(self.ops)

    def _commands(self, path, source):
        """(argv, expected exit status or None for 0-or-1, output check, source)."""
        stem, ext = os.path.splitext(os.path.basename(path))
        if ext == ".drv":
            calc = "disj" if os.path.basename(os.path.dirname(path)) == "disj" else "conj"
            cmds = [
                (["check", path, "--calc", calc], 0 if stem.endswith("-pos") else 1, _says_ok),
                (["dualize", path], 0, _reparses_derivation),
            ]
        elif ext == ".seq":
            n = _base_size(source)
            verdict = _prove_verdict(parse_problem(source).sequent, n, self.depth)
            cmds = [
                (["prove", path, "--depth", str(self.depth)], verdict, _proves_goal),
                (["cll2", path], 0 if n == 2 else 1, _cll2_split),
            ]
        elif ext == ".pi":
            expect = 1 if stem.startswith("neg-") else 0
            cmds = [
                (["typecheck", path], expect, _says_ok),
                (["sr-check", path, "--fuel", str(self.fuel)], expect, _says_ok),
            ]
            if not expect:
                cmds.append((["run", path, "--fuel", str(self.fuel)], 0, _reparses_process))
        else:
            cmds = []
        return [c + (source,) for c in cmds]

    def prepare(self, op):
        return op[0]

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def verify(self, op, argv, out):
        code, text = out
        _, status, check_output, source = op
        got = code
        if status is None:  # either verdict may hold
            got, status = code in (0, 1), True
        if not self.expect("exit-status", got, status):
            return False
        return code != 0 or check_output(self.expect, text, source)


def _says_ok(expect, text, source):
    return expect("says-ok", text.startswith("status: ok"), True)


def _reparses_derivation(expect, text, source):
    header = f"base {_base_size(source)}\n"
    return expect("reparses", parse_problem(header + _after(text, "(rule")).kind, "derivation")


def _reparses_process(expect, text, source):
    lines = text.splitlines()
    kind = parse_problem(f"base {_base_size(source)}\nproc {lines[-1]}").kind
    return expect("cut-free", "cut-free: yes" in lines, True) and expect(
        "reparses", kind, "process"
    )


def _proves_goal(expect, text, source):
    n = _base_size(source)
    d = parse_problem(f"base {n}\n" + _after(text, "(rule")).derivation
    goal = parse_problem(source).sequent
    return expect("concludes-goal", multiset(d.concl.items, n), multiset(goal.items, n))


def _cll2_split(expect, text, source):
    n = _base_size(source)
    goal = parse_problem(source).sequent
    lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    counts = {}
    for side in ("left", "right"):
        body = lines.get(side, "")
        parts = [s for s in body.split(", ") if s]
        for s in parts:
            parse_formula_text(s, rl.finite_base(n))
        counts[side] = len(parts)
    right = sum(1 for f in goal.items if 0 in members(f.roles, n))
    return expect("cll2-split", counts, {"left": len(goal.items) - right, "right": right})


def _is_identity(goal, n):
    """One formula throughout, at role sets partitioning the base."""
    keys = [item_key(f, n) for f in goal.items]
    if len({fk for _, fk in keys}) != 1:
        return False
    roles = [r for rs, _ in keys for r in rs]
    return sorted(roles) == list(range(n))


def _size(a) -> int:
    kind = type(a).__name__
    if kind in ("Atom", "One"):
        return 0
    if kind in ("Tensor", "With"):
        return 1 + _size(a.left) + _size(a.right)
    return 1 + _size(a.body)


def _prove_verdict(goal, n, depth):
    """Expected prove status, where it follows from the goal's shape.

    An atom-only goal is provable exactly when it is an identity.  A goal
    [R]A, [~R]A is the conclusion of A's two-part identity expansion, which
    the search reaches within 2 size(A) + 1 rule applications.  Otherwise
    either verdict may hold (None).
    """
    if all(type(f.body).__name__ == "Atom" for f in goal.items):
        return 0 if _is_identity(goal, n) else 1
    pair = len(goal.items) == 2 and _is_identity(goal, n)
    if pair and 2 * _size(goal.items[0].body) + 1 <= depth:
        return 0
    return None


WORKLOADS = {w.name: w for w in (Corpus, SmallWorlds, TallCut, DeepSession, ServerFanout)}

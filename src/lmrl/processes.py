"""The session-typed process calculus over the multirole kernel.

Process terms carry Church-style annotations (role sets on headers, a type
on each cut) that typechecking consumes and reduction ignores.  Reduction is
pure term rewriting: principal cuts fire the communication they stand for,
non-principal cuts are pushed under unrelated headers by commuting
conversions, and nested cuts are reduced leftmost-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, permutations, product
from operator import itemgetter

from . import roles as rl
from .roles import RoleBase, RoleSet
from .derivation import _CONJ_MEMBER_RULES, RULES, Calculus, Derivation, MissingOccurrence
from .derivation import build_rule, find_occurrence, is_query_shaped, major_part
from .syntax import (
    Bang,
    Formula,
    IFormula,
    One,
    Sequent,
    Tensor,
    With,
    formula_key,
    fresh_name,
)


# ---------------------------------------------------------------------------
# the point-to-point transfer type


@dataclass(frozen=True, eq=False)
class Msg(Formula):
    """Transfer from role r's side to role s's side within a session."""

    r: int
    s: int
    body: Formula

    def __post_init__(self):
        if self.r == self.s:
            raise ValueError("transfer endpoints must be distinct roles")

    def _key(self, env):
        return ("msg", self.r, self.s, self.body._key(env))


def is_proc_type(a: Formula) -> bool:
    """Session types extended with the transfer constructor, decided once per
    formula node and cached on it."""
    cached = getattr(a, "_cached_proc_type", None)
    if cached is None:
        match a:
            case One():
                cached = True
            case Tensor(_, left, right) | With(_, left, right):
                cached = is_proc_type(left) and is_proc_type(right)
            case Bang(_, body) | Msg(_, _, body):
                cached = is_proc_type(body)
            case _:
                cached = False
        object.__setattr__(a, "_cached_proc_type", cached)
    return cached


# ---------------------------------------------------------------------------
# process terms


class Process:
    """A process term.

    Each constructor declares its shape, and the traversals below are
    derived from it: ``kids`` names the continuation fields, ``binder`` the
    field holding the name the constructor binds, and ``scope`` the
    continuations that name is bound in.  ``commute`` names the conversion
    that pushes an unrelated cut under the header: a single rule pushes it
    into every continuation, one rule per continuation pushes it into the one
    continuation that uses the linked name.

    A header names the typing rule it stands for, ``rule``, and itself in
    error messages, ``what``.  A kernel rule gives the connective its channel
    carries (``derivation.RULES``) and the side of the role set its role
    lies on (derivation's member table).  A transfer rule, which has no
    kernel counterpart, reads a ``Msg`` and names the sides of its roles r
    and s: ``msg-pos-neg`` puts r inside and s outside.

    Typing reads the rule's figure as well: premise k is typed in the rest
    of the environment plus, for each index field addressing premise k in
    the rule's ``schema``, that field's part of the channel's type (its
    ``parts`` entry).  The bound name carries field ``i`` and the channel
    every other field; a transfer's channel carries ``Msg.body``.  Reduction
    reads the figure too: ``_adds`` maps each (carried by the bound name,
    part) pair a single premise adds to that premise's continuation, and a
    principal step takes its name from its negative header's ``step``.
    """

    __slots__ = ()
    kids: tuple[str, ...] = ()
    binder: str | None = None
    scope: tuple[str, ...] = ()
    commute: str | tuple[str, ...] | None = None
    _connective: type[Formula] | None = None
    step: str | None = None
    rule: str | None = None
    what: str = ""

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        # fixed once per class: the connective, per role whether it is in the
        # role set, per premise the (carried by the bound name, part) pairs,
        # and the continuation of each premise that adds a single pair
        if "rule" in cls.__dict__:
            kernel = RULES.get(cls.rule)
            if kernel is None:
                cls._connective = Msg
                cls._sides = tuple(w == "pos" for w in cls.rule.split("-")[1:])
                cls._figure = (((False, "body"),),)
            else:
                cls._connective, cls._sides = kernel.connective, (cls.rule in _CONJ_MEMBER_RULES,)
                cls._figure = tuple(
                    tuple((i == "i" and cls.binder is not None, kernel.parts[i]) for i in idx)
                    for idx in kernel._indices
                )
            cls._adds = {a[0]: cls.kids[k] for k, a in enumerate(cls._figure) if len(a) == 1}


@dataclass(frozen=True)
class Cut(Process):  # new x:A.(P1 | ... | Pn) , binds x in every part
    x: str
    ann: Formula | None
    parts: tuple[Process, ...]
    kids = ("parts",)
    binder = "x"
    scope = ("parts",)

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a cut links at least one process")


@dataclass(frozen=True)
class _Prefix(Process):  # x{R}...@r.P
    x: str
    rs: RoleSet
    r: int
    body: Process
    kids = ("body",)


class OutEmpty(_Prefix):  # x{R}[]@r.P
    commute, step = "commute-oute", "one"
    rule, what = "one-neg", "empty output"


class SelL(_Prefix):  # x{R}[inl]@r.P
    commute, step = "commute-sel", "with-l"
    rule, what = "with-neg-l", "selection"


class SelR(_Prefix):  # x{R}[inr]@r.P
    commute, step = "commute-sel", "with-r"
    rule, what = "with-neg-r", "selection"


@dataclass(frozen=True)
class _NamePrefix(Process):  # x{R}[y]@r.P , binds y in body
    x: str
    rs: RoleSet
    y: str
    r: int
    body: Process
    kids = ("body",)
    binder = "y"
    scope = ("body",)


class OutName(_NamePrefix):  # x{R}[y]@r.P
    commute, step = "commute-out", "tensor"
    rule, what = "tensor-neg", "name output"


class ServerAccept(_NamePrefix):  # !x{R}(y)@r.P
    commute = "commute-srv"
    rule, what = "bang-pos", "server accept"


class ClientRequest(_NamePrefix):  # ?x{R}[y]@r.P
    commute, step = "commute-req", "bang-spawn"
    rule, what = "bang-neg-derelict", "client request"


@dataclass(frozen=True)
class InName(Process):  # x{R}(y)@r.(P1|P2) , binds y in left only
    x: str
    rs: RoleSet
    y: str
    r: int
    left: Process
    right: Process
    kids = ("left", "right")
    binder = "y"
    scope = ("left",)
    commute = ("commute-in-l", "commute-in-r")
    rule, what = "tensor-pos", "name input"


@dataclass(frozen=True)
class InEmpty(Process):  # x{R}()@r.end
    x: str
    rs: RoleSet
    r: int
    rule, what = "one-pos", "empty input"


@dataclass(frozen=True)
class Case(Process):  # x{R}(case)@r.(P1,P2)
    x: str
    rs: RoleSet
    r: int
    left: Process
    right: Process
    kids = ("left", "right")
    commute = "commute-case"
    rule, what = "with-pos", "case offer"


@dataclass(frozen=True)
class _Transfer(Process):  # x{R}...@{r,s}.P
    x: str
    rs: RoleSet
    r: int
    s: int
    body: Process
    kids = ("body",)
    commute = "commute-msg"
    what = "transfer header"


class MsgSkipIn(_Transfer):  # x{R}(skip)@{r,s}.P
    rule = "msg-pos-pos"


class MsgSkipOut(_Transfer):  # x{R}[skip]@{r,s}.P
    rule, step = "msg-neg-neg", "msg-skip"


class MsgRecv(_Transfer):  # x{R}(recv)@{r,s}.P
    rule = "msg-pos-neg"


class MsgSend(_Transfer):  # x{R}[send]@{r,s}.P
    rule, step = "msg-neg-pos", "msg-transfer"


def _children(p: Process) -> list[Process]:
    if isinstance(p, Cut):
        return list(p.parts)
    return [getattr(p, f) for f in p.kids]


def _rebuild(p: Process, children, **changes) -> Process:
    """``p`` over new ``children`` (in ``_children`` order), with the fields
    named in ``changes`` replaced; names ``p`` has no field for are ignored."""
    if isinstance(p, Cut):
        changes["parts"] = tuple(children)
    else:
        changes.update(zip(p.kids, children))
    fields = p.__dict__
    return type(p)(*[changes[f] if f in changes else fields[f] for f in p.__match_args__])


def _bound(p: Process) -> str | None:
    return None if p.binder is None else getattr(p, p.binder)


def free_names(p: Process) -> frozenset[str]:
    """Free names of ``p``, computed once per node and cached on it.

    Uncached nodes are filled bottom-up from an explicit stack, so a deep
    term does not recurse: a node waits on the stack until its children
    are filled.
    """
    cached = getattr(p, "_cached_free", None)
    if cached is None:
        stack = [p]
        while stack:
            q = stack[-1]
            kids = _uncached_children(q)
            if kids:
                stack += kids
            else:
                stack.pop()
                # a node shared by two waiting parents is pushed twice
                if getattr(q, "_cached_free", None) is None:
                    object.__setattr__(q, "_cached_free", _free_names(q))
        cached = p._cached_free
    return cached


def _uncached_children(p: Process) -> list[Process]:
    """The children of ``p`` whose free names are not cached yet."""
    # reads the fields in place: building the child list first (_children)
    # cost server-fanout's normalize a few percent
    out = []
    if isinstance(p, Cut):
        for q in p.parts:
            if getattr(q, "_cached_free", None) is None:
                out.append(q)
    else:
        for f in p.kids:
            q = getattr(p, f)
            if getattr(q, "_cached_free", None) is None:
                out.append(q)
    return out


def _free_names(p: Process) -> frozenset[str]:
    """Free names of ``p`` from the cached sets of its children."""
    # each union starts from a frozenset, so every result is one too
    if isinstance(p, Cut):
        return frozenset().union(*map(free_names, p.parts)) - {p.x}
    out, y = frozenset((p.x,)), _bound(p)
    for f in p.kids:
        names = free_names(getattr(p, f))
        out |= names - {y} if f in p.scope else names
    return out


def rename_free(p: Process, old: str, new: str) -> Process:
    """Capture-avoiding renaming of the free name ``old`` to ``new``.

    Subterms where ``old`` is not free are returned as they are, so a
    renaming copies only the paths down to the occurrences of ``old``.
    """
    if old == new:
        return p
    names = free_names(p)
    if old not in names:
        return p
    # a cut's name is bound, so it is never ``old``
    changes = {"x": new} if p.x == old else {}
    kids, y = _children(p), _bound(p)
    if y == new:
        changes[p.binder] = y = _rename_bound(p, kids)
    for k, q in enumerate(kids):
        if not (y == old and p.kids[k] in p.scope):
            kids[k] = rename_free(q, old, new)
    out = _rebuild(p, kids, **changes)
    # a capture-avoiding renaming changes just the one free name
    object.__setattr__(out, "_cached_free", (names - {old}) | {new})
    return out


def _rename_bound(p: Process, kids: list[Process]) -> str:
    """Rename ``p``'s bound name apart in the children ``kids`` (in
    ``_children`` order) it is bound in; return the fresh name."""
    y = _bound(p)
    y2 = fresh_name(y)
    for k, q in enumerate(kids):
        if isinstance(p, Cut) or p.kids[k] in p.scope:
            kids[k] = rename_free(q, y, y2)
    return y2


def strip_cut_annotations(p: Process) -> Process:
    """Drop the cut type annotations (reduction never reads them)."""
    # only a cut has an ``ann`` field; _rebuild ignores it elsewhere
    return _rebuild(p, [strip_cut_annotations(q) for q in _children(p)], ann=None)


# ---------------------------------------------------------------------------
# alpha/permutation-canonical forms and structural equivalence


class NonLinearNet(ValueError):
    """A cut nest whose links are no tree: a name has two users in one part."""


def _canon(p: Process, env: dict, depth: int, net: bool = False):
    if isinstance(p, Cut):
        if net:
            return ("net", _net_key(p, env, depth))
        e2 = dict(env)
        e2[p.x] = ("b", depth)
        keys = sorted(_canon(q, e2, depth + 1) for q in p.parts)
        # () sorts before any (key,): parts may mix annotated and bare cuts
        return ("cut", () if p.ann is None else (formula_key(p.ann),), tuple(keys))
    inner = env
    if p.binder is not None:
        inner = dict(env)
        inner[_bound(p)] = ("b", depth)
    fixed = ("x", "rs", p.binder) + p.kids
    return (
        type(p).__name__,
        env.get(p.x, ("f", p.x)),
        str(p.rs),
        *[getattr(p, f) for f in p.__match_args__ if f not in fixed],
        *[_canon(getattr(p, f), inner if f in p.scope else env, depth + 1, net) for f in p.kids],
    )


def _net_key(p: Cut, env: dict, depth: int):
    """Key of the maximal cut nest at ``p``, invariant under cut exchange.

    The nest's cuts and its leaves (the non-cut parts, and the parts that do
    not use their cut's name) form a tree: a leaf is linked to every nest
    cut whose name it uses, and an idle leaf to its own cut as well.  The
    tree is keyed from its centre, so the key is unrooted.  Within a leaf,
    the nest name toward the root reads as (depth, -1), and each other one
    as (depth, index) into the sorted keys of the subtrees behind them;
    names behind equal subtrees take the ordering giving the least key: the
    order of their first use in a leaf without cuts, else the least over
    every ordering.
    """
    anns, leaves, stack = [], [], [(p, {})]
    while stack:
        cut, scope = stack.pop()
        scope = {**scope, cut.x: len(anns)}
        anns.append(() if cut.ann is None else (formula_key(cut.ann),))
        for q in cut.parts:
            if isinstance(q, Cut) and cut.x in free_names(q):
                stack.append((q, scope))
            else:
                used = {n: scope[n] for n in free_names(q) if n in scope}
                leaves.append((q, scope[cut.x], used))
    adj = [[] for _ in anns] + [[] for _ in leaves]
    for i, (_, own, used) in enumerate(leaves, len(anns)):
        for c in set(used.values()) | {own}:
            adj[i].append(c)
            adj[c].append(i)
    if sum(map(len, adj)) != 2 * len(adj) - 2:
        raise NonLinearNet(f"the links of the cut nest on {p.x} are not a tree")

    def vertex(v, up):
        if v < len(anns):
            return (0, anns[v], tuple(sorted(key[w] for w in adj[v] if w != up)))
        q, own, used = leaves[v - len(anns)]
        idle = (key[own],) if own != up and own not in used.values() else ()
        kids = sorted((key[c], n) for n, c in used.items() if c != up)
        groups = [[n for _, n in g] for _, g in groupby(kids, key=itemgetter(0))]
        env2 = {**env, **{n: ("t", depth, -1) for n, c in used.items() if c == up}}
        first = _first_uses(q)
        if first is None:  # q holds a cut: try every ordering of the tied names
            orders = product(*map(permutations, groups))
        else:
            orders = [[sorted(g, key=first.__getitem__) for g in groups]]
        return (1, idle, tuple(k for k, _ in kids), min(
            _canon(q, {**env2, **{n: ("t", depth, i) for i, n in enumerate(chain(*o))}},
                   depth + 1, True)
            for o in orders
        ))

    # peel leaves down to the centre; of two centres (a cut and a leaf), root at the cut
    deg = [len(a) for a in adj]
    layer, left = [v for v, d in enumerate(deg) if d == 1], len(adj)
    while left > 2:
        left, nxt = left - len(layer), []
        for w in [w for v in layer for w in adj[v]]:
            deg[w] -= 1
            if deg[w] == 1:
                nxt.append(w)
        layer = nxt
    order, up, key = [min(layer)], {min(layer): None}, {}
    for v in order:
        for w in adj[v]:
            if w not in up:
                up[w] = v
                order.append(w)
    for v in reversed(order):
        key[v] = vertex(v, up[v])
    return key[order[0]]


def _first_uses(q: Process) -> dict[str, int] | None:
    """The rank of each free name of ``q`` by where ``_canon`` first reads it,
    or None when ``q`` holds a cut, whose parts ``_canon`` orders by key."""
    first, stack = {}, [(q, frozenset())]
    while stack:
        p, bound = stack.pop()
        if isinstance(p, Cut):
            return None
        if p.x not in bound:
            first.setdefault(p.x, len(first))
        inner = bound | {_bound(p)}
        stack += [(getattr(p, f), inner if f in p.scope else bound) for f in reversed(p.kids)]
    return first


def canonical_key(p: Process):
    """Alpha- and part-permutation-invariant structural key.  It is total and
    blind to cut exchange, which ``struct_key`` adds on linear cut nests."""
    return _canon(p, {}, 0)


def alpha_equiv(p: Process, q: Process) -> bool:
    """Equality up to alpha and part permutation; never ``NonLinearNet``."""
    return canonical_key(p) == canonical_key(q)


def struct_key(p: Process):
    """Key of ``p``'s ``struct_equiv`` class; ``NonLinearNet`` as there."""
    return _canon(p, {}, 0, True)


def struct_equiv(p: Process, q: Process) -> bool:
    """Least congruence from alpha, part permutation and cut exchange.

    Decided exactly on linear cut nests (each linked name has one user per
    part) and on pairs equal up to alpha and part permutation.  Any other
    pair raises ``NonLinearNet``.
    """
    return alpha_equiv(p, q) or struct_key(p) == struct_key(q)


# ---------------------------------------------------------------------------
# typing


class ProcessTypeError(Exception):
    def __init__(self, reason: str, path: tuple = ()):
        self.reason = reason
        self.path = path
        super().__init__(f"{reason} (at {list(path)})" if path else reason)


@dataclass(frozen=True)
class TypingDerivation:
    rule: str
    process: Process
    env: tuple[tuple[str, IFormula], ...]
    premises: tuple["TypingDerivation", ...] = ()
    subject: str | None = None
    object_: str | None = None
    rolesets: tuple[RoleSet, ...] | None = None


TypeEnv = dict[str, IFormula]


def _env_lookup(env, name):
    for z, f in env:
        if z == name:
            return f
    return None


def _env_without(env, name):
    return tuple((z, f) for z, f in env if z != name)


def _find_base(env, p: Process) -> RoleBase | None:
    for _, f in env:
        return f.roles.base
    stack = [p]
    while stack:
        q = stack.pop()
        rs = getattr(q, "rs", None)
        if rs is not None:
            return rs.base
        stack.extend(_children(q))
    return None


def typecheck(p: Process, env: TypeEnv | None = None) -> TypingDerivation:
    """Check ``p`` against the environment, building the typing derivation."""
    items, base = _judgment(p, env)
    return _tc(p, items, base, ())


def _judgment(p: Process, env: TypeEnv | None):
    """Check the environment (distinct names, session types, an inferable
    role base); return its associations as a tuple, and the base."""
    items = tuple((env or {}).items())
    names = [z for z, _ in items]
    if len(set(names)) != len(names):
        raise ProcessTypeError("environment names are not distinct")
    for z, f in items:
        if not is_proc_type(f.body):
            raise ProcessTypeError(f"{z} is not associated with a session type: {f.body}")
    base = _find_base(items, p)
    if base is None:
        raise ProcessTypeError("no role base is inferable from the judgment")
    return items, base


def _first_roles(p: Process, x: str) -> RoleSet | None:
    """Role-set annotation on the first free header over ``x``."""
    if isinstance(p, Cut):
        kids = () if p.x == x else p.parts
    elif p.x == x:
        return p.rs
    else:
        y = _bound(p)
        kids = [getattr(p, f) for f in p.kids if not (y == x and f in p.scope)]
    for q in kids:
        rs = _first_roles(q, x)
        if rs is not None:
            return rs
    return None


def _tc(p: Process, env, base: RoleBase, path, memo: dict | None = None) -> TypingDerivation:
    """Type ``p`` in ``env``.  A ``memo`` types each (node, environment) pair
    once across calls sharing it; only successes are stored."""
    if memo is None:
        return _tc_rule(p, env, base, path, None)
    # nodes and formulas are immutable, and each stored typing keeps its
    # node and environment alive, so their ids stay theirs
    key = (id(p), tuple((z, f.roles, id(f.body)) for z, f in env))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (p, _tc_rule(p, env, base, path, memo))
    return hit[1]


def _tc_rule(p: Process, env, base: RoleBase, path, memo) -> TypingDerivation:
    fn = free_names(p)

    # discharge unused associations immediately (only ?-shaped ones may go)
    for z, f in env:
        if z not in fn:
            if not is_query_shaped(f, Calculus.CONJ):
                raise ProcessTypeError(
                    f"unused association {z} : [{f.roles}]{_fmt(f.body)} is not weakenable", path
                )
            sub = _tc(p, _env_without(env, z), base, path, memo)
            return TypingDerivation("bang-neg-weaken", p, env, (sub,), subject=z)

    missing = fn - {z for z, _ in env}
    if missing:
        raise ProcessTypeError(f"free names not in the environment: {sorted(missing)}", path)

    if p.rule is None:
        return _tc_cut(p, env, base, path, memo)

    # a header: its channel's association, against its rule
    x, rs, f = p.x, p.rs, _env_lookup(env, p.x)
    a, transfer = f.body, p._connective is Msg
    if f.roles != rs:
        raise ProcessTypeError(f"header roles {rs} on {x} disagree with [{f.roles}]", path)
    if not isinstance(a, p._connective) or a.r != p.r or transfer and a.s != p.s:
        if p._connective is One:
            want = f"wanted {_fmt(One(p.r))}"
        else:
            want = f"which does not match the {'transfer header' if transfer else 'header'}"
        raise ProcessTypeError(f"{x} has type {_fmt(a)}, {want}", path)
    if ((p.r in rs, p.s in rs) if transfer else (p.r in rs,)) != p._sides:
        if transfer:
            fault = f"disagrees with roles {p.r},{p.s} against {rs}"
        else:
            fault = f"needs role {p.r} {'in' if p._sides[0] else 'outside'} {rs}"
        raise ProcessTypeError(f"{p.what} on {x} {fault}", path)

    # each premise keeps the rest of the environment and gains the parts of
    # the channel's type that its rule's figure names
    rest, split = _env_without(env, x), None
    if p.rule == "bang-pos":
        for z, g in rest:
            if not is_query_shaped(g, Calculus.CONJ):
                raise ProcessTypeError(
                    f"server context must be ?-shaped, but {z} : [{g.roles}]{_fmt(g.body)}", path
                )
    q, y = p, _bound(p)  # q is p with its bound name apart from the environment
    if y is not None and _env_lookup(env, y) is not None:
        kids = _children(p)
        y = _rename_bound(p, kids)
        q = _rebuild(p, kids, **{p.binder: y})
    if p.rule == "bang-neg-derelict" and x in free_names(q.body):
        return _contract(p, q, None, env, x, "is used again by the request", base, path, memo)
    if p.rule == "tensor-pos" and rest:  # the rest splits by free names
        fl, fr = free_names(q.left), free_names(q.right)
        for z, _ in rest:
            if z in fl and z in fr:
                return _contract(p, q, 0, env, z, "is used in both branches", base, path, memo)
        split = tuple(zg for zg in rest if zg[0] in fl), tuple(zg for zg in rest if zg[0] not in fl)
    subs = ()
    for k, adds in enumerate(p._figure):
        prem = rest if split is None else split[k]
        for bound, part in adds:
            prem += ((y if bound else x, IFormula(rs, major_part(a, part, None))),)
        subs += (_tc(getattr(q, q.kids[k]), prem, base, path + (k,), memo),)
    return TypingDerivation(p.rule, p, env, subs, subject=x, object_=y)


def _tc_cut(p: Cut, env, base: RoleBase, path, memo) -> TypingDerivation:
    x, ann, parts = p.x, p.ann, p.parts
    if ann is None:
        raise ProcessTypeError("cut without a type annotation", path)
    if not is_proc_type(ann):
        raise ProcessTypeError(f"cut annotation is not a session type: {_fmt(ann)}", path)
    # every name in env is free in p, so none is x: x needs no renaming here
    frees = [free_names(q) for q in parts]
    for z, g in env:
        holders = [k for k, fn in enumerate(frees) if z in fn]
        if len(holders) > 1:
            why = "is shared by several parts"
            return _contract(p, p, holders[1], env, z, why, base, path, memo)
    part_rs: list[RoleSet | None] = [_first_roles(q, x) for q in parts]
    missing = [k for k, rs in enumerate(part_rs) if rs is None]
    if len(missing) > 1:
        raise ProcessTypeError(f"several parts never mention the linked name {x}", path)
    if missing:
        comps = [rl.complement(rs) for rs in part_rs if rs is not None]
        used = rl.disjoint_union(comps) if comps else rl.empty_set(base)
        if used is None:
            raise ProcessTypeError("link role-set complements overlap", path)
        part_rs[missing[0]] = used
    if not rl.is_partition_of_full([rl.complement(rs) for rs in part_rs]):
        raise ProcessTypeError("link role-set complements do not partition the base", path)
    subs = []
    for k, q in enumerate(parts):
        env_k = tuple((z, g) for z, g in env if z in frees[k])
        subs.append(_tc(q, env_k + ((x, IFormula(part_rs[k], ann)),), base, path + (k,), memo))
    return TypingDerivation("n-cut", p, env, tuple(subs), subject=x, rolesets=tuple(part_rs))


def _contract(p, q, k, env, z, why, base, path, memo) -> TypingDerivation:
    """Type ``p`` by contracting the ?-shaped ``z``: a fresh copy of it takes
    over child ``k``'s uses of ``z`` in ``q``, which is ``p`` with its bound
    name renamed apart, or the header's own use when ``k`` is None."""
    g = _env_lookup(env, z)
    if not is_query_shaped(g, Calculus.CONJ):
        raise ProcessTypeError(f"{z} {why} but is not ?-shaped", path)
    z2 = fresh_name(z)
    kids = _children(q)
    if k is None:
        q = _rebuild(q, kids, x=z2)
    else:
        kids[k] = rename_free(kids[k], z, z2)
        q = _rebuild(q, kids)
    sub = _tc(q, env + ((z2, g),), base, path, memo)
    return TypingDerivation("bang-neg-contract", p, env, (sub,), subject=z, object_=z2)


def _fmt(a: Formula) -> str:
    from .printer import format_formula

    return format_formula(a)


# ---------------------------------------------------------------------------
# erasing a typing derivation to the logic kernel


class EraseError(Exception):
    pass


def erase_to_sequent(td: TypingDerivation) -> Derivation:
    """Strip the process content, leaving a kernel derivation that checks."""
    from .cutelim import CutSpec, cutn

    def go(td: TypingDerivation) -> Derivation:
        subs = [go(s) for s in td.premises]
        if td.rule == "n-cut":
            ann = td.process.ann
            spec = []
            for k, e in enumerate(subs):
                want = IFormula(td.rolesets[k], ann)
                spec.append((e, (find_occurrence(e.concl, want, set()),)))
            return cutn(CutSpec(spec))
        if td.rule.startswith("msg-"):
            raise EraseError("transfer headers have no logic-kernel counterpart")
        f = _env_lookup(td.env, td.subject)
        assert f is not None
        return build_rule(td.rule, f, subs)

    try:
        return go(td)
    except MissingOccurrence as e:
        f = e.value
        raise EraseError(f"erased conclusion lost [{f.roles}]{_fmt(f.body)}") from None


def td_uses_msg(td: TypingDerivation) -> bool:
    if td.rule.startswith("msg-"):
        return True
    return any(td_uses_msg(s) for s in td.premises)


def env_sequent(env: TypeEnv | tuple) -> Sequent:
    items = tuple(env.items()) if isinstance(env, dict) else tuple(env)
    return Sequent(tuple(f for _, f in items))


# ---------------------------------------------------------------------------
# reduction


@dataclass(frozen=True)
class StepResult:
    process: Process
    rule: str
    alt: Process | None = None  # the other ordering at a tensor principal step


def step(p: Process) -> Process | None:
    r = step_detailed(p)
    return r.process if r is not None else None


def step_detailed(p: Process) -> StepResult | None:
    """One deterministic reduction step; None on normal forms."""
    if isinstance(p, Cut):
        r = _reduce_cut(p)
        if r is not None:
            return r
    kids = _children(p)
    for k, child in enumerate(kids):
        r = step_detailed(child)
        if r is not None:
            wrapped = _rebuild(p, kids[:k] + [r.process] + kids[k + 1 :])
            alt = (
                _rebuild(p, kids[:k] + [r.alt] + kids[k + 1 :]) if r.alt is not None else None
            )
            return StepResult(wrapped, r.rule, alt)
    return None


def _reduce_cut(cut: Cut) -> StepResult | None:
    x, ann, parts = cut.x, cut.ann, cut.parts
    r = _principal(cut)
    if r is not None:
        return r

    # a server bundle against a part that drops x or a request that reuses it
    servers = [q for q in parts if isinstance(q, ServerAccept) and q.x == x]
    if len(servers) == len(parts) - 1:
        (exc,) = [q for q in parts if not (isinstance(q, ServerAccept) and q.x == x)]
        if x not in free_names(exc):
            return StepResult(exc, "bang-gc")
        if isinstance(exc, ClientRequest) and exc.x == x:
            x2 = fresh_name(x)
            head = ClientRequest(x2, exc.rs, exc.y, exc.r, exc.body)
            copies = [rename_free(s, x, x2) for s in servers]
            inner = Cut(x2, ann, (head,) + tuple(copies))
            return StepResult(Cut(x, ann, (inner,) + tuple(servers)), "bang-replicate")

    # commuting conversions: push the cut under an unrelated header
    for k, q in enumerate(parts):
        if isinstance(q, Cut) or q.x == x:
            continue
        rest = parts[:k] + parts[k + 1 :]
        conv = _convert(cut, q, rest)
        if conv is not None:
            return conv
    return None


def _principal(cut: Cut) -> StepResult | None:
    """The step of a cut whose parts are all headers on its name, read from
    their rule figures: it fires when they share a connective and each side
    of the roles is negative in exactly one part; the lead, negative on the
    first side, names it.  For each (bound, part) pair the lead's premise
    adds, in order, the term so far is cut against the others' premises
    adding that pair, on the lead's fresh bound name or on x.  The lead goes
    first, but transfers keep their part order; ``alt`` nests in reverse."""
    x, parts, con = cut.x, cut.parts, cut.parts[0]._connective
    if con is None:  # a cut
        return None
    heads = [q._sides for q in parts if q._connective is con and q.x == x]
    sides = [*zip(*heads)]  # per side: is each part positive
    if len(heads) < len(parts) or any(side.count(False) != 1 for side in sides):
        return None
    k = sides[0].index(False)
    lead = parts[k]
    (adds,) = lead._figure
    if not adds:  # a unit output hands over nothing
        return StepResult(lead.body, lead.step)
    others, body, y = parts[:k] + parts[k + 1 :], lead.body, _bound(lead)
    if y is not None:
        if all(bound for bound, _ in adds) and x in free_names(body):
            return None  # a request that uses x again: the caller replicates
        y2 = fresh_name(y)
        body = rename_free(body, y, y2)
    ann = cut.ann if isinstance(cut.ann, con) else None
    cuts = []
    for bound, part in adds:
        conts = [getattr(q, q._adds[bound, part]) for q in others]
        if bound:
            conts = [rename_free(c, _bound(q), y2) for c, q in zip(conts, others)]
        cuts.append((y2 if bound else x, ann and getattr(ann, part), conts))
    at = k if con is Msg else 0

    def nest(cuts):
        p = body
        for z, a, conts in cuts:
            p = Cut(z, a, (*conts[:at], p, *conts[at:]))
        return p

    return StepResult(nest(cuts), lead.step, nest(cuts[::-1]) if len(cuts) > 1 else None)


def _convert(cut: Cut, q: Process, rest: tuple[Process, ...]) -> StepResult | None:
    """Push ``cut``, whose other parts are ``rest``, under the header ``q``."""
    x, ann = cut.x, cut.ann
    if q.commute is None:
        return None
    kids, changes = _children(q), {}
    y = _bound(q)
    if y is not None and (y == x or any(y in free_names(t) for t in rest)):
        changes[q.binder] = _rename_bound(q, kids)
    if isinstance(q.commute, str):
        into, rule = range(len(kids)), q.commute
    else:
        for k, rule in enumerate(q.commute):
            if x in free_names(kids[k]):
                into = (k,)
                break
        else:
            return None
    for k in into:
        kids[k] = Cut(x, ann, (kids[k],) + rest)
    return StepResult(_rebuild(q, kids, **changes), rule)


@dataclass(frozen=True)
class NormalizeResult:
    process: Process
    steps: int
    exhausted: bool
    trace: tuple[StepResult, ...] = ()


def normalize(p: Process, fuel: int, keep_trace: bool = False) -> NormalizeResult:
    """Iterate the reduction to a normal form or until fuel runs out."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps = 0
    trace: list[StepResult] = []
    while steps < fuel:
        r = step_detailed(p)
        if r is None:
            return NormalizeResult(p, steps, False, tuple(trace))
        if keep_trace:
            trace.append(r)
        p = r.process
        steps += 1
    return NormalizeResult(p, steps, True, tuple(trace))


def has_cut(p: Process) -> bool:
    if isinstance(p, Cut):
        return True
    return any(has_cut(q) for q in _children(p))


def is_principal_cut(p: Process, td: TypingDerivation) -> bool:
    """True iff every part's last typing rule introduces the linked name, past
    the weakenings and contractions of other names."""
    if not isinstance(p, Cut):
        raise ValueError("not a cut")

    def past_others(td):
        while td.rule in ("bang-neg-weaken", "bang-neg-contract") and td.subject != p.x:
            td = td.premises[0]
        return td

    # a part's rule is its header's own rule unless it weakens or contracts x
    td = past_others(td)
    return td.rule == "n-cut" and all(
        sub.rule == sub.process.rule and sub.subject == p.x for sub in map(past_others, td.premises)
    )


@dataclass(frozen=True)
class SRReport:
    ok: bool
    steps: int
    normal_form: Process
    exhausted: bool
    cut_free: bool
    progress_ok: bool
    failure: str | None = None


def check_subject_reduction(p: Process, env: TypeEnv, fuel: int) -> SRReport:
    """Run the reduction, re-typechecking after every step.

    One memo spans the run, so a step types only the nodes it built: the
    rest of the term is shared with the term before and typed already.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    items, base = _judgment(p, env)
    memo: dict = {}
    _tc(p, items, base, (), memo)
    steps = 0
    while steps < fuel:
        r = step_detailed(p)
        if r is None:
            if isinstance(p, Cut):
                return SRReport(False, steps, p, False, False, False, "stuck cut")
            return SRReport(True, steps, p, False, not has_cut(p), True)
        p = r.process
        steps += 1
        try:
            _tc(p, items, base, (), memo)
        except ProcessTypeError:
            return SRReport(
                False, steps, p, False, not has_cut(p), True,
                f"step {steps} broke typing: {_fresh_reason(p, env)}",
            )
    return SRReport(True, steps, p, True, not has_cut(p), True)


def _fresh_reason(p: Process, env: TypeEnv) -> str:
    """Why a memo-free ``typecheck`` rejects ``p``."""
    try:
        typecheck(p, env)
    except ProcessTypeError as e:
        return e.reason
    raise AssertionError("a memoised typing failed where a fresh one passes")

"""First-order terms, formulas, i-formulas and sequents.

Formula equality is alpha-equivalence: bound variables are renamed to
positional markers when computing the structural key that backs __eq__ /
__hash__.  Sequents are occurrence lists compared up to permutation.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from .roles import RoleSet

# ---------------------------------------------------------------------------
# fresh names (shared policy: readable prefix + global counter)

_counter = itertools.count(1)
_counter_lock = threading.Lock()


def fresh_name(prefix: str = "x") -> str:
    with _counter_lock:
        n = next(_counter)
    return f"{prefix.split('$')[0]}${n}"


def reset_fresh_names():
    """Restart the counter (test determinism only)."""
    global _counter
    with _counter_lock:
        _counter = itertools.count(1)


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Fun(Term):
    symbol: str
    args: tuple[Term, ...]

    def __str__(self):
        return f"{self.symbol}({', '.join(map(str, self.args))})"


def term_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Fun(_, args):
            return frozenset().union(*(term_vars(a) for a in args)) if args else frozenset()
    raise TypeError(t)


def subst_term(t: Term, x: str, s: Term) -> Term:
    match t:
        case Var(name):
            return s if name == x else t
        case Fun(symbol, args):
            return Fun(symbol, tuple(subst_term(a, x, s) for a in args))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# formulas


class Formula:
    """Base class; equality on subclasses is alpha-equivalence."""

    __slots__ = ()

    def _key(self, env):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return formula_key(self) == formula_key(other)

    def __hash__(self):
        return hash(formula_key(self))


def _term_key(t: Term, env: dict[str, int]):
    match t:
        case Var(name):
            bound = env.get(name)
            return ("bv", bound) if bound is not None else ("fv", name)
        case Fun(symbol, args):
            return ("fn", symbol, tuple(_term_key(a, env) for a in args))
    raise TypeError(t)


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()

    def _key(self, env):
        return ("atom", self.pred, tuple(_term_key(a, env) for a in self.args))


@dataclass(frozen=True, eq=False)
class Tensor(Formula):
    r: int
    left: Formula
    right: Formula

    def _key(self, env):
        return ("tensor", self.r, self.left._key(env), self.right._key(env))


@dataclass(frozen=True, eq=False)
class With(Formula):
    r: int
    left: Formula
    right: Formula

    def _key(self, env):
        return ("with", self.r, self.left._key(env), self.right._key(env))


@dataclass(frozen=True, eq=False)
class Bang(Formula):
    r: int
    body: Formula

    def _key(self, env):
        return ("bang", self.r, self.body._key(env))


@dataclass(frozen=True, eq=False)
class Forall(Formula):
    r: int
    var: str
    body: Formula

    def _key(self, env):
        inner = dict(env)
        inner[self.var] = len(env)
        return ("forall", self.r, self.body._key(inner))


@dataclass(frozen=True, eq=False)
class One(Formula):
    r: int

    def _key(self, env):
        return ("one", self.r)


def formula_key(a: Formula):
    """Alpha-invariant structural key, cached on the node."""
    cached = getattr(a, "_cached_key", None)
    if cached is None:
        cached = a._key({})
        object.__setattr__(a, "_cached_key", cached)
    return cached


def size(a: Formula) -> int:
    """Number of connectives (atoms and units count zero)."""
    match a:
        case Atom() | One():
            return 0
        case Tensor(_, left, right) | With(_, left, right):
            return 1 + size(left) + size(right)
        case Bang(_, body) | Forall(_, _, body):
            return 1 + size(body)
    raise TypeError(a)


def free_vars(a: Formula) -> frozenset[str]:
    match a:
        case Atom(_, args):
            return frozenset().union(*(term_vars(t) for t in args)) if args else frozenset()
        case Tensor(_, left, right) | With(_, left, right):
            return free_vars(left) | free_vars(right)
        case Bang(_, body):
            return free_vars(body)
        case Forall(_, var, body):
            return free_vars(body) - {var}
        case One():
            return frozenset()
    raise TypeError(a)


def subterms_of(a: Formula) -> set[Term]:
    """All terms occurring in atom arguments (witness-pool harvesting)."""
    out: set[Term] = set()

    def walk_term(t: Term):
        out.add(t)
        if isinstance(t, Fun):
            for s in t.args:
                walk_term(s)

    def walk(f: Formula):
        match f:
            case Atom(_, args):
                for t in args:
                    walk_term(t)
            case Tensor(_, l, r) | With(_, l, r):
                walk(l)
                walk(r)
            case Bang(_, body) | Forall(_, _, body):
                walk(body)
            case One():
                pass

    walk(a)
    return out


def subst_formula(a: Formula, x: str, t: Term) -> Formula:
    """Capture-avoiding substitution of ``t`` for free ``x``."""
    match a:
        case Atom(pred, args):
            return Atom(pred, tuple(subst_term(arg, x, t) for arg in args))
        case Tensor(r, left, right):
            return Tensor(r, subst_formula(left, x, t), subst_formula(right, x, t))
        case With(r, left, right):
            return With(r, subst_formula(left, x, t), subst_formula(right, x, t))
        case Bang(r, body):
            return Bang(r, subst_formula(body, x, t))
        case One():
            return a
        case Forall(r, var, body):
            if var == x:
                return a
            if x not in free_vars(body):
                return a
            if var in term_vars(t):
                renamed = fresh_name(var)
                body = subst_formula(body, var, Var(renamed))
                var = renamed
            return Forall(r, var, subst_formula(body, x, t))
    raise TypeError(a)


# ---------------------------------------------------------------------------
# i-formulas and sequents


@dataclass(frozen=True, eq=False)
class IFormula:
    roles: RoleSet
    body: Formula

    def __eq__(self, other):
        if not isinstance(other, IFormula):
            return NotImplemented
        return self.roles == other.roles and self.body == other.body

    def __hash__(self):
        return hash((self.roles, formula_key(self.body)))

    def key(self):
        return (str(self.roles), formula_key(self.body))


@dataclass(frozen=True, eq=False)
class Sequent:
    """An ordered list of i-formula occurrences; equality is up to permutation."""

    items: tuple[IFormula, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, Sequent):
            return NotImplemented
        return sorted(f.key() for f in self.items) == sorted(f.key() for f in other.items)

    def __hash__(self):
        return hash(tuple(sorted(f.key() for f in self.items)))

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i) -> IFormula:
        return self.items[i]

    def __iter__(self):
        return iter(self.items)


def sequent(*items: IFormula) -> Sequent:
    return Sequent(tuple(items))

"""First-order terms, formulas, i-formulas and sequents.

Formula equality is alpha-equivalence: bound variables are renamed to
positional markers when computing the structural key that backs __eq__ /
__hash__.  Sequents are occurrence lists compared up to permutation.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace

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
    """Base class; equality on subclasses is alpha-equivalence.

    A connective declares its shape, which the walks below read: ``kids``
    names its subformula fields in order, ``binder`` the field holding the
    variable bound in them, and every other field is a role.
    """

    __slots__ = ()
    kids: tuple[str, ...] = ()
    binder: str | None = None

    def __init_subclass__(cls):
        cls._tag = cls.__name__.lower()
        cls._roles = tuple(f for f in cls.__annotations__ if f not in cls.kids and f != cls.binder)

    def _key(self, env):
        # the tag, the roles, then each subformula's key: its cached one
        # outside every binder; a binder numbers its variable in ``env``
        key = [self._tag]
        for f in self._roles:
            key.append(getattr(self, f))
        if self.binder is not None:
            env = {**env, getattr(self, self.binder): len(env)}
        for f in self.kids:
            kid = getattr(self, f)
            key.append(kid._key(env) if env else formula_key(kid))
        return tuple(key)

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
    kids = ("left", "right")


@dataclass(frozen=True, eq=False)
class With(Formula):
    r: int
    left: Formula
    right: Formula
    kids = ("left", "right")


@dataclass(frozen=True, eq=False)
class Bang(Formula):
    r: int
    body: Formula
    kids = ("body",)


@dataclass(frozen=True, eq=False)
class Forall(Formula):
    r: int
    var: str
    body: Formula
    kids = ("body",)
    binder = "var"


@dataclass(frozen=True, eq=False)
class One(Formula):
    r: int


def formula_key(a: Formula):
    """Alpha-invariant structural key, cached on the node."""
    cached = getattr(a, "_cached_key", None)
    if cached is None:
        cached = a._key({})
        object.__setattr__(a, "_cached_key", cached)
    return cached


def size(a: Formula) -> int:
    """Number of connectives (atoms and units count zero)."""
    n = 1 if a.kids else 0
    for f in a.kids:
        n += size(getattr(a, f))
    return n


def free_vars(a: Formula) -> frozenset[str]:
    if isinstance(a, Atom):
        return frozenset().union(*(term_vars(t) for t in a.args)) if a.args else frozenset()
    out = frozenset().union(*(free_vars(getattr(a, f)) for f in a.kids))
    return out - {getattr(a, a.binder)} if a.binder is not None else out


def subterms_of(a: Formula) -> set[Term]:
    """All terms occurring in atom arguments (witness-pool harvesting)."""
    out: set[Term] = set()
    todo: list = [a]
    while todo:
        x = todo.pop()
        if isinstance(x, Atom):
            todo += x.args
        elif isinstance(x, Formula):
            todo += [getattr(x, f) for f in x.kids]
        else:
            out.add(x)
            if isinstance(x, Fun):
                todo += x.args
    return out


def subst_formula(a: Formula, x: str, t: Term) -> Formula:
    """Capture-avoiding substitution of ``t`` for free ``x``."""
    if isinstance(a, Atom):
        return Atom(a.pred, tuple(subst_term(arg, x, t) for arg in a.args))
    if a.binder is not None:
        var = getattr(a, a.binder)
        if var == x or x not in free_vars(a):
            return a
        if var in term_vars(t):  # rename the binder first, so ``t`` is not captured
            y = fresh_name(var)
            renamed = {f: subst_formula(getattr(a, f), var, Var(y)) for f in a.kids}
            a = replace(a, **{a.binder: y}, **renamed)
    return replace(a, **{f: subst_formula(getattr(a, f), x, t) for f in a.kids})


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

"""Derivation trees and rule-by-rule checking for both calculi.

Each node records the data needed to recompute its conclusion from its
premises: occurrence indices into premise conclusions plus whatever the
rule invents (witness terms, weakened formulas, ...).  Conclusions are
laid out canonically: kept premise occurrences in premise order, then the
major occurrence last (identity-style leaves consist of majors only).  So
erasing occurrence ``occ`` from a derivation (``cutelim._erase``) keeps the
others in order, at ``p - (p > occ)``; cut elimination relies on it, and
reads the layout one premise block at a time from ``Derivation.blocks``.
Stated conclusions in serialized derivations are checked against the
recomputed ones up to permutation.

The disjunctive calculus shares the node vocabulary: checking against
``Calculus.DISJ`` flips every role-membership side condition, the
identity partition condition and the banged-context shape, which is
exactly the complement construction relating the two rule figures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import roles as rl
from .roles import RoleSet
from .syntax import (
    Atom,
    Bang,
    Forall,
    Formula,
    IFormula,
    One,
    Sequent,
    Tensor,
    Term,
    Var,
    With,
    formula_key,
    free_vars,
    subst_formula,
)


class Calculus(enum.Enum):
    CONJ = "conj"
    DISJ = "disj"


class MalformedDerivation(Exception):
    """Node shape broken: bad index, mismatched premise occurrences, ..."""


class RuleViolation(Exception):
    def __init__(self, path: tuple[int, ...], rule: str, reason: str):
        self.path = path
        self.rule = rule
        self.reason = reason
        super().__init__(f"{rule} at {list(path)}: {reason}")


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedDerivation(msg)


class MissingOccurrence(MalformedDerivation):
    """A premise conclusion lacks an occurrence its rule consumes."""

    def __init__(self, value: IFormula):
        self.value = value
        super().__init__("premise conclusion lacks the needed occurrence")


# rule name -> node class, filled as the rule classes are defined
RULES: dict[str, type["Derivation"]] = {}


class Derivation:
    """Base node.  Subclasses set ``rule`` and state the rule's figure.

    ``schema`` maps each premise field, in premise order, to the index fields
    that address occurrences in that premise's conclusion.  ``rebuild``,
    ``_compute`` and ``blocks`` are derived from it.

    A rule with a major occurrence also states ``connective``, the major's
    connective (None: the consumed occurrence itself), and ``parts``, which
    names the part of the major each index field addresses in its premise
    and each other field holds when the connective names that part
    differently.  A part is an attribute of the major's formula, ``major``
    for the formula itself, or ``instance`` for a quantifier body
    instantiated with the rule's witness or eigenvariable.  ``_compute``
    builds every conclusion from the figure, and ``rule_node`` every node.
    """

    rule: str = "?"
    premises: tuple["Derivation", ...] = ()
    schema: dict[str, tuple[str, ...]] = {}
    connective: type[Formula] | None = None
    parts: dict[str, str] = {}

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if "rule" in cls.__dict__:
            RULES[cls.rule] = cls
        # fixed once per class: the index fields of each premise, for rebuild
        # the (argument slot, premise) pairs of the premise fields and of the
        # index fields, and for _compute the sources of the major's arguments
        cls._indices = tuple(cls.schema.values())
        names = list(cls.__dict__.get("__annotations__", ()))
        if names:  # a rule, not a mixin
            cls._premise_slots = tuple((names.index(f), k) for k, f in enumerate(cls.schema))
            cls._index_slots = tuple(
                (names.index(i), k) for k, idx in enumerate(cls._indices) for i in idx
            )
            cls._plan = tuple(cls.schema.items()), "rs" in names, _major_sources(cls, names)

    @property
    def concl(self) -> Sequent:
        cached = getattr(self, "_concl", None)
        if cached is None:
            if any(getattr(p, "_concl", None) is None for p in self.premises):
                return _fill(self, "_concl", _conclusion)
            cached = _conclusion(self)
            object.__setattr__(self, "_concl", cached)
        return cached

    def _compute(self) -> tuple[IFormula, ...]:
        """Each premise's occurrences but those its index fields consume, in
        premise order, then the major: the connective over its ``sources``,
        under ``rs`` or the role set the consumed occurrences share."""
        fields = self.__dict__
        schema, has_rs, sources = self._plan
        ctx: tuple[IFormula, ...] = ()
        used: list[IFormula] = []
        for f, idx in schema:
            items = fields[f].concl.items
            if not idx:
                ctx += items
                continue
            qs: list[int] = []
            for i in idx:
                q = fields[i]
                _require(0 <= q < len(items), "index out of range")
                _require(q not in qs, "needs two distinct occurrences")
                qs.append(q)
                used.append(items[q])
            lo = 0
            for q in sorted(qs):
                ctx += items[lo:q]
                lo = q + 1
            ctx += items[lo:]
        con = self.connective
        if con is None:  # contraction: the major is the consumed occurrence
            a, b = used
            _require(a == b, "contracted occurrences differ")
            _require(isinstance(a.body, Bang), "only banged formulas contract")
            return ctx + (a,)
        roles = fields["rs"] if has_rs else used[0].roles
        for a in used[1:]:
            _require(a.roles == roles, "occurrences carry different role sets")
        args = []
        for s in sources:
            args.append(fields[s] if s.__class__ is str else used[s].body)
        return ctx + (IFormula(roles, con(*args)),)

    def rebuild(self, premises, posmaps=None, **changes) -> "Derivation":
        """The same rule over new ``premises``.

        ``posmaps[k]``, unless it or ``posmaps`` is None, takes the index
        fields addressing premise ``k`` from old to new positions; ``changes``
        replaces other fields by name.
        """
        fields = self.__dict__
        args = [changes[f] if f in changes else fields[f] for f in self.__match_args__]
        for slot, k in self._premise_slots:
            args[slot] = premises[k]
        if posmaps is not None:
            for slot, k in self._index_slots:
                if posmaps[k] is not None:
                    args[slot] = posmaps[k][args[slot]]
        return type(self)(*args)

    def blocks(self) -> list[tuple[int, list[int]]]:
        """The layout ``_compute`` writes, one block per premise: ``(start,
        kept)``, where the block begins at conclusion position ``start`` and
        holds premise positions ``kept``, in order.  Read after ``concl``."""
        fields = self.__dict__
        out, start = [], 0
        for f, idx in self._plan[0]:
            kept = list(range(len(fields[f].concl)))
            for q in sorted([fields[i] for i in idx], reverse=True):
                del kept[q]
            out.append((start, kept))
            start += len(kept)
        return out


class _OnePremise(Derivation):
    schema = {"premise": ()}

    @property
    def premises(self):
        return (self.premise,)


class _TwoPremises(Derivation):
    schema = {"left": ("i",), "right": ("j",)}
    parts = {"i": "left", "j": "right"}

    @property
    def premises(self):
        return (self.left, self.right)


class _OneOccurrence(_OnePremise):
    """Rules turning premise occurrence ``i`` into the major formula."""

    schema = {"premise": ("i",)}
    parts = {"i": "body"}


def _major_sources(cls, names: list[str]) -> tuple[str | int, ...]:
    """Per argument of ``cls``'s connective: the field holding it, named as
    the argument (premises aside) or by ``parts``, else the place among the
    consumed occurrences of the one whose body it is (``instance`` supplies
    ``body``)."""
    if cls.connective is None:
        return ()
    consumed = [i for idx in cls.schema.values() for i in idx]
    by_part = {("body" if p == "instance" else p): f for f, p in cls.parts.items()}
    own = set(names) - set(cls.schema)
    fields = [arg if arg in own else by_part[arg] for arg in cls.connective.__match_args__]
    return tuple(consumed.index(f) if f in consumed else f for f in fields)


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True, eq=False)
class DId(Derivation):
    atom: Formula
    rolesets: tuple[RoleSet, ...]
    rule = "id"
    premises: tuple[Derivation, ...] = ()

    def _compute(self):
        _require(isinstance(self.atom, Atom), "identity concludes atoms only")
        _require(len(self.rolesets) >= 1, "identity needs at least one part")
        return tuple([IFormula(r, self.atom) for r in self.rolesets])


@dataclass(frozen=True, eq=False)
class DOnePos(Derivation):
    rs: RoleSet
    r: int
    rule = "one-pos"
    connective = One


@dataclass(frozen=True, eq=False)
class DOneNeg(_OnePremise):
    rs: RoleSet
    r: int
    premise: Derivation
    rule = "one-neg"
    connective = One


@dataclass(frozen=True, eq=False)
class DTensorNeg(_OnePremise):
    r: int
    premise: Derivation
    i: int
    j: int
    rule = "tensor-neg"
    connective = Tensor
    schema = {"premise": ("i", "j")}
    parts = _TwoPremises.parts


@dataclass(frozen=True, eq=False)
class DTensorPos(_TwoPremises):
    r: int
    left: Derivation
    i: int
    right: Derivation
    j: int
    rule = "tensor-pos"
    connective = Tensor


@dataclass(frozen=True, eq=False)
class DWithNegL(_OneOccurrence):
    r: int
    other: Formula
    premise: Derivation
    i: int
    rule = "with-neg-l"
    connective = With
    parts = {"i": "left", "other": "right"}


@dataclass(frozen=True, eq=False)
class DWithNegR(_OneOccurrence):
    r: int
    other: Formula
    premise: Derivation
    i: int
    rule = "with-neg-r"
    connective = With
    parts = {"i": "right", "other": "left"}


@dataclass(frozen=True, eq=False)
class DWithPos(_TwoPremises):
    r: int
    left: Derivation
    i: int
    right: Derivation
    j: int
    rule = "with-pos"
    connective = With

    def _compute(self):
        out = super()._compute()  # both branch contexts, then the major
        n = len(self.left.concl) - 1
        keys = sorted(f.key() for f in out[:n]), sorted(f.key() for f in out[n:-1])
        _require(keys[0] == keys[1], "branch contexts differ")
        return out[:n] + out[-1:]  # the shared context once

    def blocks(self):
        # One shared block, read from both branches: the right one is matched
        # by value, the n-th left occurrence of a key taking the n-th right one.
        (_, kept1), (_, kept2) = super().blocks()
        left, right = self.left.concl, self.right.concl
        unused: dict = {}  # key -> positions, highest first
        for j in reversed(kept2):
            unused.setdefault(right[j].key(), []).append(j)
        return [(0, kept1), (0, [unused[left[i].key()].pop() for i in kept1])]


@dataclass(frozen=True, eq=False)
class DBangPos(_OneOccurrence):
    r: int
    premise: Derivation
    i: int
    rule = "bang-pos"
    connective = Bang


@dataclass(frozen=True, eq=False)
class DBangNegWeaken(_OnePremise):
    r: int
    rs: RoleSet
    body: Formula
    premise: Derivation
    rule = "bang-neg-weaken"
    connective = Bang


@dataclass(frozen=True, eq=False)
class DBangNegDerelict(_OneOccurrence):
    r: int
    premise: Derivation
    i: int
    rule = "bang-neg-derelict"
    connective = Bang


@dataclass(frozen=True, eq=False)
class DBangNegContract(_OnePremise):
    premise: Derivation
    i: int
    j: int
    rule = "bang-neg-contract"
    schema = {"premise": ("i", "j")}
    parts = {"i": "major", "j": "major"}


@dataclass(frozen=True, eq=False)
class DForallNeg(_OneOccurrence):
    r: int
    var: str
    body: Formula
    witness: Term
    premise: Derivation
    i: int
    rule = "forall-neg"
    connective = Forall
    parts = {"i": "instance"}


@dataclass(frozen=True, eq=False)
class DForallPos(_OneOccurrence):
    r: int
    eigen: str
    premise: Derivation
    i: int
    rule = "forall-pos"
    connective = Forall
    parts = {"i": "instance", "eigen": "var"}


# ---------------------------------------------------------------------------
# building a rule instance from its major

_SHAPES = {One: "a unit", Tensor: "a tensor", With: "an offer type", Bang: "banged"}


def find_occurrence(seq: Sequent, value: IFormula, used: set[int]) -> int:
    """First position of ``seq`` outside ``used`` that holds ``value``; the
    position is added to ``used``."""
    k = value.key()
    for pos, f in enumerate(seq):
        if pos not in used and f.key() == k:
            used.add(pos)
            return pos
    raise MissingOccurrence(value)


def build_rule(
    rule: str,
    major: IFormula,
    premises,
    witness: Term | None = None,
    eigen: str | None = None,
) -> Derivation:
    """The ``rule`` node concluding ``major`` from ``premises``.

    Checks the major's connective and finds each occurrence the rule
    consumes in its premise's conclusion by value, at the first unused
    position (one ``used`` set per premise); ``rule_node`` builds the node.
    A forall rule also needs its ``witness`` or ``eigen``.  Raises
    MalformedDerivation on a wrong major and MissingOccurrence when a
    premise lacks an occurrence.
    """
    cls = RULES[rule]
    term = next((f for f in ("witness", "eigen") if f in cls.__match_args__), None)
    wrong = cls.connective is not None and not isinstance(major.body, cls.connective)
    if term is not None and (wrong or {"witness": witness, "eigen": eigen}[term] is None):
        raise MalformedDerivation(f"needs a quantified major and :{term}")
    if wrong:
        raise MalformedDerivation(f"major is not {_SHAPES[cls.connective]}")
    t = Var(eigen) if term == "eigen" else witness
    at = {}
    for k, indices in enumerate(cls._indices):
        used: set[int] = set()
        for i in indices:
            want = IFormula(major.roles, major_part(major.body, cls.parts[i], t))
            at[i] = find_occurrence(premises[k].concl, want, used)
    return rule_node(cls, major, premises, at, t)


def rule_node(cls, major: IFormula, premises, at: dict[str, int], term=None) -> Derivation:
    """The ``cls`` node concluding ``major`` from ``premises``, consuming the
    occurrences at the positions ``at`` gives per index field; ``term`` is a
    forall rule's witness, or its eigenvariable as a ``Var``."""
    fields = dict(zip(cls.schema, premises), rs=major.roles, witness=term, **at)
    fields["eigen"] = getattr(term, "name", None)
    args = [
        fields[f] if f in fields else major_part(major.body, cls.parts.get(f, f), term)
        for f in cls.__match_args__
    ]
    return cls(*args)


def major_part(body: Formula, name: str, term: Term | None) -> Formula:
    """The part of major formula ``body`` that a rule's ``parts`` entry
    ``name`` names: the formula itself for ``major``, its quantified body
    instantiated with ``term`` for ``instance``, else that attribute."""
    if name == "major":
        return body
    if name == "instance":
        return subst_formula(body.body, body.var, term)
    return getattr(body, name)


# ---------------------------------------------------------------------------
# checking

# Rules whose role index must belong to the occurrence's role set in the
# conjunctive reading, every other rule's lying outside it; the disjunctive
# reading flips every test.  Process typing reads the same table.
_CONJ_MEMBER_RULES = frozenset({"one-pos", "tensor-pos", "with-pos", "bang-pos", "forall-pos"})

# Display labels, keyed by (rule, calculus).
RULE_LABELS = {
    Calculus.CONJ: {
        "id": "Id/\\",
        "tensor-neg": "*-neg",
        "tensor-pos": "*-pos",
        "with-neg-l": "&-neg-l",
        "with-neg-r": "&-neg-r",
        "with-pos": "&-pos",
        "bang-pos": "!-pos",
        "bang-neg-weaken": "!-neg-weaken",
        "bang-neg-derelict": "!-neg-derelict",
        "bang-neg-contract": "!-neg-contract",
        "forall-neg": "all-neg",
        "forall-pos": "all-pos",
        "one-neg": "1-neg",
        "one-pos": "1-pos",
    },
    Calculus.DISJ: {
        "id": "Id\\/",
        "tensor-neg": "par-pos",
        "tensor-pos": "par-neg",
        "with-neg-l": "plus-pos-l",
        "with-neg-r": "plus-pos-r",
        "with-pos": "plus-neg",
        "bang-pos": "?-neg",
        "bang-neg-weaken": "?-pos-weaken",
        "bang-neg-derelict": "?-pos-derelict",
        "bang-neg-contract": "?-pos-contract",
        "forall-neg": "exists-pos",
        "forall-pos": "exists-neg",
        "one-neg": "co-1-pos",
        "one-pos": "co-1-neg",
    },
}


def _wants_member(rule: str, calc: Calculus) -> bool:
    conj_member = rule in _CONJ_MEMBER_RULES
    return conj_member if calc is Calculus.CONJ else not conj_member


def is_query_shaped(item: IFormula, calc: Calculus) -> bool:
    """True iff the i-formula reads as a ?-formula in the given calculus."""
    if not isinstance(item.body, Bang):
        return False
    member = item.body.r in item.roles
    return member if calc is Calculus.DISJ else not member


def _fill(d: Derivation, attr: str, compute):
    """Store ``compute(node)`` as ``attr`` on ``d`` and on every node below it
    that lacks it, premises first and in premise order, from an explicit
    stack so that a tall derivation does not recurse; returns ``d``'s value."""
    stack = [d]
    while stack:
        node = stack[-1]
        todo = [p for p in reversed(node.premises) if getattr(p, attr, None) is None]
        if todo:
            stack += todo
        else:
            stack.pop()
            if getattr(node, attr, None) is None:  # a shared node may be stacked twice
                object.__setattr__(node, attr, compute(node))
    return getattr(d, attr)


def height(d: Derivation) -> int:
    """Rule levels from ``d`` to its deepest leaf, computed once per node and
    cached on it by ``_fill``."""
    cached = getattr(d, "_height", None)
    return cached if cached is not None else _fill(d, "_height", _height)


def _conclusion(d: Derivation) -> Sequent:
    """Conclusion of ``d`` from the cached conclusions of its premises."""
    return Sequent(d._compute())


def _height(d: Derivation) -> int:
    """Height of ``d`` from the cached heights of its premises."""
    return 1 + max((p._height for p in d.premises), default=0)


def check(d: Derivation, calc: Calculus = Calculus.CONJ) -> Sequent:
    """Validate every node; returns the root conclusion or raises RuleViolation."""
    _check_node(d, calc, ())
    return d.concl


def _fail(path, d, reason):
    raise RuleViolation(path, d.rule, reason)


def _check_node(d: Derivation, calc: Calculus, path: tuple[int, ...]):
    for k, p in enumerate(d.premises):
        _check_node(p, calc, path + (k,))
    try:
        concl = d.concl
    except MalformedDerivation as e:
        _fail(path, d, f"malformed: {e}")

    label = RULE_LABELS[calc][d.rule]
    if isinstance(d, DId):
        rss = d.rolesets
        parts = list(rss) if calc is Calculus.CONJ else [rl.complement(s) for s in rss]
        if not rl.is_partition_of_full(parts):
            _fail(path, d, f"({label}) role sets do not partition the base")
    else:
        a = concl.items[-1]
        if (a.body.r in a.roles) != _wants_member(d.rule, calc):
            _fail(path, d, f"({label}) wrong polarity for role {a.body.r} in {a.roles}")

    match d:
        case DBangPos():
            for k, f in enumerate(concl.items[:-1]):
                if not is_query_shaped(f, calc):
                    _fail(path, d, f"({label}) context item {k} is not ?-shaped: {f.body}")
        case DForallPos(eigen=x, i=i):
            ctx_vars = frozenset()
            for k, f in enumerate(d.premise.concl.items):
                if k != i:
                    ctx_vars |= free_vars(f.body)
            if x in ctx_vars:
                _fail(path, d, f"({label}) eigenvariable {x} occurs free in the context")
        case DForallNeg(var=x, body=body, witness=t, i=i):
            expected = subst_formula(body, x, t)
            got = d.premise.concl[i].body
            if formula_key(expected) != formula_key(got):
                _fail(path, d, f"({label}) premise is not the stated instance: {got}")


def checks(d: Derivation, calc: Calculus = Calculus.CONJ) -> bool:
    try:
        check(d, calc)
        return True
    except (RuleViolation, MalformedDerivation):
        return False


# ---------------------------------------------------------------------------
# duality


def dualize(d: Derivation) -> Derivation:
    """Complement every role set; valid conjunctive proofs become disjunctive."""
    changes = {}
    if "rs" in d.__match_args__:
        changes["rs"] = rl.complement(d.rs)
    if "rolesets" in d.__match_args__:
        changes["rolesets"] = tuple(rl.complement(s) for s in d.rolesets)
    return d.rebuild([dualize(p) for p in d.premises], **changes)

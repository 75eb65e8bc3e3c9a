"""Tokenizer and recursive-descent parsers for the toolkit's text forms.

GRAMMAR.md describes the grammar; connective words and process headers are
read from the tables in printer.py, the same ones that print them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import roles as rl
from .roles import RoleBase, RoleSet
from .syntax import (
    Atom,
    Formula,
    Fun,
    IFormula,
    One,
    Sequent,
    Term,
    Var,
)
from .derivation import RULES, DId, DOnePos, Derivation, MalformedDerivation, build_rule
from .printer import FORMULA_WORDS, PROCESS_HEADERS
from .processes import Cut, Process


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {msg}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<turnstile>\|-)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$'-]*)
  | (?P<punct>[(){}\[\]~,:.*&!?@|;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'ident' | 'punct' | 'turnstile' | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"stray character {text[pos]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind != "ws":
            out.append(Token(kind, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


class Cursor:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.k = 0

    def peek(self) -> Token:
        return self.toks[self.k]  # next() never moves past the eof token

    def next(self) -> Token:
        t = self.toks[self.k]
        if t.kind != "eof":
            self.k += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.k]
        return t.text == text and t.kind in ("punct", "turnstile", "ident")

    def eat(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            found = t.text or "end of input"
            raise ParseError(f"expected {text!r}, found {found!r}", t.line, t.col)
        return self.next()

    def eat_kind(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def done(self) -> bool:
        return self.peek().kind == "eof"


def _num(c: Cursor) -> int:
    return int(c.eat_kind("num", "a number").text)


def _adjacent(prev: Token, nxt: Token) -> bool:
    """True when ``nxt`` follows ``prev`` with no separating whitespace."""
    return nxt.line == prev.line and nxt.col == prev.col + len(prev.text)


def _items(c: Cursor, sep: str = ","):
    """Yields once per item of a ``sep``-separated list, for the caller to
    read the item; so an item holding a nested list costs no frame here."""
    yield
    while c.at(sep):
        c.eat(sep)
        yield


# ---------------------------------------------------------------------------
# role sets


def parse_roleset(c: Cursor, base: RoleBase) -> RoleSet:
    if c.at("~"):
        c.eat("~")
        inner = parse_roleset(c, base)
        return rl.complement(inner)
    c.eat("{")
    roles = [] if c.at("}") else [_num(c) for _ in _items(c)]
    tok = c.eat("}")
    try:
        return rl.roleset(base, roles)
    except ValueError as e:
        raise ParseError(str(e), tok.line, tok.col)


# ---------------------------------------------------------------------------
# terms and formulas


def parse_term(c: Cursor) -> Term:
    tok = c.eat_kind("ident", "a term")
    # argument lists attach by juxtaposition: "f(x)" applies, "f (x)" does not
    if not (c.at("(") and _adjacent(tok, c.peek())):
        return Var(tok.text)
    c.eat("(")
    args = []
    for _ in _items(c):  # a loop: one frame per nesting level
        args.append(parse_term(c))
    c.eat(")")
    return Fun(tok.text, tuple(args))


def _role_index(c: Cursor, base: RoleBase) -> int:
    tok = c.peek()
    r = _num(c)
    if base.is_finite and r >= base.size:
        raise ParseError(f"role {r} out of the base", tok.line, tok.col)
    return r


# connective words: one with two subformulas is infix, every other prefix
_INFIX = {w: cls for cls, w in FORMULA_WORDS.items() if len(cls.kids) == 2}
_PREFIX = {w: cls for cls, w in FORMULA_WORDS.items() if len(cls.kids) != 2}


def parse_formula(c: Cursor, base: RoleBase) -> Formula:
    left = _parse_prefix(c, base)
    while c.peek().text in _INFIX:
        cls = _INFIX[c.next().text]
        left = cls(*_role_fields(c, base, cls), left, _parse_prefix(c, base))
    return left


def _role_fields(c: Cursor, base: RoleBase, cls: type[Formula]) -> list:
    """``[r]`` or ``[r,s]``: one role index per role field of ``cls``."""
    c.eat("[")
    roles = []
    for _ in cls._roles:
        if roles:
            c.eat(",")
        roles.append(_role_index(c, base))
    c.eat("]")
    return roles


def _parse_prefix(c: Cursor, base: RoleBase) -> Formula:
    t = c.peek()
    if c.at("("):
        c.eat("(")
        a = parse_formula(c, base)
        c.eat(")")
        return a
    cls = _PREFIX.get(t.text)
    if cls is not None:
        c.next()
        fields = _role_fields(c, base, cls)
        if cls.binder is not None:
            fields.append(c.eat_kind("ident", "a bound variable").text)
            c.eat(".")
            fields.append(parse_formula(c, base))
        elif cls.kids:
            fields.append(_parse_prefix(c, base))
        return cls(*fields)
    if t.kind == "ident":
        # an atom reads as a term does: a name and its juxtaposed arguments
        head = parse_term(c)
        return Atom(head.symbol, head.args) if isinstance(head, Fun) else Atom(head.name)
    raise ParseError(f"expected a formula, found {t.text!r}", t.line, t.col)


def parse_iformula(c: Cursor, base: RoleBase) -> IFormula:
    c.eat("[")
    rs = parse_roleset(c, base)
    c.eat("]")
    return IFormula(rs, parse_formula(c, base))


def parse_sequent(c: Cursor, base: RoleBase) -> Sequent:
    c.eat("|-")
    items = [parse_iformula(c, base) for _ in _items(c)] if c.at("[") else []
    return Sequent(tuple(items))


# ---------------------------------------------------------------------------
# derivations


class DerivationFormError(Exception):
    """S-expression is readable but not a rule instance."""


def parse_derivation(c: Cursor, base: RoleBase) -> Derivation:
    tok = c.eat("(")
    c.eat("rule")
    name = c.eat_kind("ident", "a rule name").text
    major = None
    witness = None
    eigen = None
    while c.at(":"):
        c.eat(":")
        key = c.eat_kind("ident", "a keyword").text
        if key == "major":
            major = _num(c)
        elif key == "witness":
            witness = parse_term(c)
        elif key == "eigen":
            eigen = c.eat_kind("ident", "an eigenvariable").text
        elif key == "concl":
            stated = parse_sequent(c, base)
            break
        else:
            raise ParseError(f"unknown keyword :{key}", tok.line, tok.col)
    else:
        raise ParseError("derivation node lacks :concl", tok.line, tok.col)
    premises = []
    while c.at("("):
        premises.append(parse_derivation(c, base))
    c.eat(")")
    try:
        d = _build_node(name, stated, major, witness, eigen, premises)
        computed = d.concl
    except MalformedDerivation as e:
        raise DerivationFormError(f"{tok.line}:{tok.col}: {e}")
    if computed != stated:
        raise DerivationFormError(
            f"{tok.line}:{tok.col}: stated conclusion is not a permutation of the rule's"
        )
    return d


def _build_node(name, stated, major, witness, eigen, premises) -> Derivation:
    """The node a ``(rule ...)`` form states; MalformedDerivation if none."""
    cls = RULES.get(name)
    if cls is None:
        raise MalformedDerivation(f"unknown rule {name!r}")
    if len(premises) != len(cls.schema):
        raise MalformedDerivation(f"{name} takes {len(cls.schema)} premise(s)")
    if cls is DId:
        if not stated.items:
            raise MalformedDerivation("empty identity")
        return DId(stated[0].body, tuple(f.roles for f in stated))
    if cls is DOnePos:
        if len(stated) != 1 or not isinstance(stated[0].body, One):
            raise MalformedDerivation("one-pos concludes a single unit")
        return DOnePos(stated[0].roles, stated[0].body.r)
    if major is None or not 0 <= major < len(stated):
        raise MalformedDerivation("rule needs a valid :major index")
    return build_rule(name, stated[major], premises, witness, eigen)


# ---------------------------------------------------------------------------
# processes


# the header table by sigil, then by brackets and word
_HEADER_ROWS = {
    sigil: {(row[1], row[2]): cls for cls, row in PROCESS_HEADERS.items() if row[0] == sigil}
    for sigil in {row[0] for row in PROCESS_HEADERS.values()}
}


def parse_process(c: Cursor, base: RoleBase) -> Process:
    t = c.peek()
    if t.kind == "ident" and t.text == "new":
        c.next()
        x = c.eat_kind("ident", "a channel name").text
        ann = None
        if c.at(":"):
            c.eat(":")
            ann = parse_formula(c, base)
        c.eat(".")
        c.eat("(")
        parts = []
        for _ in _items(c, "|"):  # a loop: one frame per nesting level
            parts.append(parse_process(c, base))
        c.eat(")")
        return Cut(x, ann, tuple(parts))

    sigil = c.next().text if t.kind == "punct" and t.text in _HEADER_ROWS else ""
    fields = {"x": c.eat_kind("ident", "a channel name").text, "rs": parse_roleset(c, base)}
    rows = _HEADER_ROWS[sigil]
    brackets = sorted({b for b, _ in rows})
    b = next((b for b in brackets if c.at(b[0])), brackets[0])
    c.eat(b[0])
    t = c.peek()
    if c.at(b[1]) and (b, "") in rows:
        word = ""
    elif t.kind == "ident" and (b, t.text) in rows:
        word = c.next().text
    else:
        word = None
    cls = rows[(b, word)]
    if word is None:
        fields[cls.binder] = c.eat_kind("ident", "a bound name").text
    c.eat(b[1])
    c.eat("@")
    if "s" in cls.__match_args__:
        c.eat("{")
        fields["r"] = _role_index(c, base)
        c.eat(",")
        fields["s"] = _role_index(c, base)
        c.eat("}")
    else:
        fields["r"] = _role_index(c, base)
    c.eat(".")
    if not cls.kids:
        end = c.eat_kind("ident", "'end'")
        if end.text != "end":
            raise ParseError("empty input continues with 'end'", end.line, end.col)
    elif len(cls.kids) == 1:
        fields[cls.kids[0]] = parse_process(c, base)
    else:
        left, right = cls.kids
        c.eat("(")
        fields[left] = parse_process(c, base)
        c.eat(PROCESS_HEADERS[cls][3].strip())
        fields[right] = parse_process(c, base)
        c.eat(")")
    return cls(**fields)


# ---------------------------------------------------------------------------
# problem files


@dataclass(frozen=True)
class ProblemFile:
    base: RoleBase
    kind: str  # 'sequent' | 'derivation' | 'process'
    sequent: Sequent | None = None
    derivation: Derivation | None = None
    process: Process | None = None
    env: tuple[tuple[str, IFormula], ...] = ()


def parse_problem(text: str) -> ProblemFile:
    c = Cursor(tokenize(text))
    t = c.eat_kind("ident", "'base'")
    if t.text != "base":
        raise ParseError("a problem starts with its base declaration", t.line, t.col)
    t = c.peek()
    if t.kind == "num":
        base = rl.finite_base(_num(c))
    elif t.kind == "ident" and t.text == "omega":
        c.next()
        base = rl.OMEGA
    else:
        raise ParseError("expected a role count or 'omega'", t.line, t.col)

    t = c.peek()
    if t.kind == "turnstile":
        g = parse_sequent(c, base)
        _expect_eof(c)
        return ProblemFile(base, "sequent", sequent=g)
    if t.text == "(":
        d = parse_derivation(c, base)
        _expect_eof(c)
        return ProblemFile(base, "derivation", derivation=d)

    env: list[tuple[str, IFormula]] = []
    if t.kind == "ident" and t.text == "env":
        c.next()
        env = [_parse_assoc(c, base) for _ in _items(c)]
        t = c.peek()
    if t.kind == "ident" and t.text == "proc":
        c.next()
        p = parse_process(c, base)
        _expect_eof(c)
        return ProblemFile(base, "process", process=p, env=tuple(env))
    raise ParseError(
        "expected a sequent, a derivation or a process after the base", t.line, t.col
    )


def _parse_assoc(c: Cursor, base: RoleBase) -> tuple[str, IFormula]:
    z = c.eat_kind("ident", "a name").text
    c.eat(":")
    return z, parse_iformula(c, base)


def _expect_eof(c: Cursor):
    t = c.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)


def parse_formula_text(text: str, base: RoleBase) -> Formula:
    c = Cursor(tokenize(text))
    a = parse_formula(c, base)
    _expect_eof(c)
    return a


def parse_roleset_text(text: str, base: RoleBase) -> RoleSet:
    c = Cursor(tokenize(text))
    s = parse_roleset(c, base)
    _expect_eof(c)
    return s


def parse_terms_text(text: str) -> list[Term]:
    """A comma-separated list of terms, and nothing after it."""
    c = Cursor(tokenize(text))
    terms = [parse_term(c) for _ in _items(c)]
    _expect_eof(c)
    return terms

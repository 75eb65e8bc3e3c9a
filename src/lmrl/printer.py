"""Text output for every value the toolkit manipulates.

The forms printed here re-parse: pretty output is the same grammar the
parser reads (see GRAMMAR.md).
"""

from __future__ import annotations

from .syntax import (
    Atom,
    Bang,
    Forall,
    Formula,
    Fun,
    IFormula,
    One,
    Sequent,
    Tensor,
    Term,
    Var,
    With,
)
from .derivation import Derivation
from .processes import (
    Case,
    ClientRequest,
    Cut,
    InEmpty,
    InName,
    Msg,
    MsgRecv,
    MsgSend,
    MsgSkipIn,
    MsgSkipOut,
    OutEmpty,
    OutName,
    Process,
    SelL,
    SelR,
    ServerAccept,
)

# One row per process header, ``x{R}`` standing for the channel and its role
# set: the sigil before the channel, the brackets after the role set, the
# word between them (None: the name the constructor binds), and for two
# continuations the separator between them.  The role form, ``@r`` or
# ``@{r,s}``, follows from an ``s`` field, and the continuation form,
# ``.end``, ``.P`` or ``.(P sep Q)``, from ``kids``.  A cut is not a header.
PROCESS_HEADERS = {
    OutName: ("", "[]", None, ""),  # x{R}[y]@r.P
    InName: ("", "()", None, " | "),  # x{R}(y)@r.(P | Q)
    OutEmpty: ("", "[]", "", ""),  # x{R}[]@r.P
    InEmpty: ("", "()", "", ""),  # x{R}()@r.end
    SelL: ("", "[]", "inl", ""),  # x{R}[inl]@r.P
    SelR: ("", "[]", "inr", ""),  # x{R}[inr]@r.P
    Case: ("", "()", "case", ", "),  # x{R}(case)@r.(P, Q)
    ServerAccept: ("!", "()", None, ""),  # !x{R}(y)@r.P
    ClientRequest: ("?", "[]", None, ""),  # ?x{R}[y]@r.P
    MsgSkipIn: ("", "()", "skip", ""),  # x{R}(skip)@{r,s}.P
    MsgSkipOut: ("", "[]", "skip", ""),  # x{R}[skip]@{r,s}.P
    MsgRecv: ("", "()", "recv", ""),  # x{R}(recv)@{r,s}.P
    MsgSend: ("", "[]", "send", ""),  # x{R}[send]@{r,s}.P
}


# The word of each connective, which the parser reads too.  One with two
# subformulas is infix, ``A *[r] B``; any other prints before its roles, as
# ``all[r] x. A`` with a binder, else as ``one[r]`` or ``msg[r,s] A``.
FORMULA_WORDS = {Tensor: "*", With: "&", One: "one", Bang: "!", Msg: "msg", Forall: "all"}


def format_term(t: Term) -> str:
    match t:
        case Var(name):
            return name
        case Fun(symbol, args):
            return f"{symbol}({', '.join(format_term(a) for a in args)})"
    raise TypeError(t)


def format_formula(a: Formula) -> str:
    if isinstance(a, Atom):
        return a.pred if not a.args else f"{a.pred}({', '.join(format_term(t) for t in a.args)})"
    word = f"{FORMULA_WORDS[type(a)]}[{','.join(str(getattr(a, f)) for f in a._roles)}]"
    kids = [getattr(a, f) for f in a.kids]
    if len(kids) == 2:
        return f"{_operand(kids[0])} {word} {_operand(kids[1])}"
    if a.binder is not None:
        return f"{word} {getattr(a, a.binder)}. {format_formula(kids[0])}"
    if not kids:
        return word
    body = format_formula(kids[0])
    return f"{word} {body}" if not kids[0].kids else f"{word} ({body})"


def _operand(a: Formula) -> str:
    s = format_formula(a)
    return s if len(a.kids) < 2 and a.binder is None else f"({s})"


def format_iformula(f: IFormula) -> str:
    return f"[{f.roles}] {format_formula(f.body)}"


def format_sequent(g: Sequent) -> str:
    if not g.items:
        return "|-"
    return "|- " + ", ".join(format_iformula(f) for f in g.items)


def format_derivation(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    head = f"(rule {d.rule}"
    if d.premises:
        head += f" :major {len(d.concl) - 1}"
    if "witness" in d.__match_args__:
        head += f" :witness {format_term(d.witness)}"
    if "eigen" in d.__match_args__:
        head += f" :eigen {d.eigen}"
    head += f" :concl {format_sequent(d.concl)}"
    if not d.premises:
        return pad + head + ")"
    lines = [pad + head]
    for p in d.premises:
        lines.append(format_derivation(p, indent + 1))
    return "\n".join(lines) + ")"


def format_process(p: Process) -> str:
    if isinstance(p, Cut):
        inner = " | ".join(format_process(q) for q in p.parts)
        ann_s = f": {format_formula(p.ann)} " if p.ann is not None else ""
        return f"new {p.x}{ann_s}.( {inner} )"
    sigil, brackets, word, sep = PROCESS_HEADERS[type(p)]
    if word is None:
        word = getattr(p, p.binder)
    s = getattr(p, "s", None)
    roles = p.r if s is None else f"{{{p.r},{s}}}"
    kids = [format_process(getattr(p, f)) for f in p.kids]
    cont = f"({sep.join(kids)})" if len(kids) == 2 else kids[0] if kids else "end"
    return f"{sigil}{p.x}{p.rs}{brackets[0]}{word}{brackets[1]}@{roles}.{cont}"

"""Byte-identical process typing and erasure over a fixed term set.

``golden/typing.txt`` holds, for each entry below, every node of its typing
derivation (rule, subject, object, a cut's role sets and the environment,
one node a line, indented by depth), then the ``erase_to_sequent``
derivation or its ``EraseError``; an ill-typed entry holds the
``ProcessTypeError`` reason and path instead.  Entries are every
``corpus/proc`` file, seeded deep-session and server-fanout sessions, and
hand-written terms for paths the corpus never reaches: contraction of a
?-name both input branches use, a linear name both branches use, and a
bound name equal to an environment name under each binding header.  A
change to typing that must not alter its derivations keeps this file as it
is; one that means to regenerates it with ``python tests/test_typing_golden.py``.
"""

import os
import random
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "typing.txt")

SEED = 20161128
ENV = "env w : [{0}] ![1] one[0]"
CLOSE = "?w{0}[v]@1.v{0}()@0.end"

# name -> problem text
HAND = {
    # both input branches use the ?-name w, which contracts
    "in-name-shares-a-query-name": (
        f"base 2\nenv x : [{{0}}] one[1] *[0] one[1], {ENV[4:]}\n"
        f"proc x{{0}}(y)@0.( y{{0}}[]@1.{CLOSE} | x{{0}}[]@1.{CLOSE} )\n"
    ),
    # both input branches use the linear name z
    "in-name-shares-a-linear-name": (
        "base 2\nenv x : [{0}] one[1] *[0] one[1], z : [{0}] one[1]\n"
        "proc x{0}(y)@0.( y{0}[]@1.z{0}()@1.end | x{0}[]@1.z{0}()@1.end )\n"
    ),
    # the bound name is the channel itself
    "out-name-binds-its-channel": (
        f"base 2\nenv x : [{{1}}] one[0] *[0] ![0] one[1], {ENV[4:]}\n"
        f"proc x{{1}}[x]@0.x{{1}}[]@0.{CLOSE}\n"
    ),
    # the bound name is free in the other branch
    "in-name-binds-a-name-of-its-right-branch": (
        f"base 2\nenv x : [{{0}}] one[0] *[0] one[1], {ENV[4:]}\n"
        f"proc x{{0}}(w)@0.( w{{0}}()@0.end | x{{0}}[]@1.{CLOSE} )\n"
    ),
    "server-accept-binds-its-channel": (
        "base 2\nenv x : [{1}] ![1] one[1]\nproc !x{1}(x)@1.x{1}()@1.end\n"
    ),
    "client-request-binds-its-channel": (
        "base 2\nenv x : [{0}] ![1] one[0]\nproc ?x{0}[x]@1.x{0}()@0.end\n"
    ),
}


def _names(rng, k):
    return [f"{c}{rng.randrange(1000)}" for c in rng.sample("abcdefghkmnpqrstuvz", k)]


def deep_session(rng: random.Random, depth: int) -> str:
    """Nested selections against offers, each level picking a seeded side."""
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
    return f"base 2\n{ENV}\nproc new {x}: {typ} .( {offer} | {sel} )\n"


def server_fanout(rng: random.Random, clients: int) -> str:
    """One client making ``clients`` requests to one replicated server."""
    names = _names(rng, 4)
    x, u, v = names[:3]
    client = f"?w{{0}}[{v}]@1.{v}{{0}}()@0.end"
    for k in range(clients):
        y = f"{names[3]}_{k}"
        client = f"?{x}{{0}}[{y}]@1.{y}{{0}}[]@1.{client}"
    server = f"!{x}{{1}}({u})@1.{u}{{1}}()@1.end"
    return f"base 2\n{ENV}\nproc new {x}: ![1] one[1] .( {client} | {server} )\n"


def entries():
    """(name, problem text): the corpus in name order, the seeded sessions,
    then the hand-written terms."""
    out = []
    top = os.path.join(ROOT, "corpus", "proc")
    for name in sorted(os.listdir(top)):
        if name.endswith(".pi"):
            with open(os.path.join(top, name), encoding="utf-8") as f:
                out.append((name, f.read()))
    rng = random.Random(SEED)
    for depth in (1, 2, 3, 6, 25):
        out.append((f"deep-session {depth}", deep_session(rng, depth)))
    for clients in (1, 2, 3, 8):
        out.append((f"server-fanout {clients}", server_fanout(rng, clients)))
    out.extend(HAND.items())
    return out


def _nodes(td, depth, lines):
    from lmrl.printer import format_iformula

    head = f"{'  ' * depth}{td.rule} on {td.subject}"
    if td.object_ is not None:
        head += f" to {td.object_}"
    if td.rolesets is not None:
        head += " roles " + " ".join(str(rs) for rs in td.rolesets)
    env = ", ".join(f"{z} : {format_iformula(f)}" for z, f in td.env)
    lines.append(f"{head} | {env}")
    for sub in td.premises:
        _nodes(sub, depth + 1, lines)


def render() -> str:
    from lmrl.parser import parse_problem
    from lmrl.printer import format_derivation
    from lmrl.processes import EraseError, ProcessTypeError, erase_to_sequent, typecheck
    from lmrl.syntax import reset_fresh_names

    chunks = []
    for name, text in entries():
        # each entry draws fresh names as a new interpreter would
        reset_fresh_names()
        pf = parse_problem(text)
        lines = [f"$ {name}"]
        try:
            td = typecheck(pf.process, dict(pf.env))
        except ProcessTypeError as e:
            lines.append(f"type error: {e.reason} at {list(e.path)}")
        else:
            _nodes(td, 0, lines)
            try:
                lines.append(format_derivation(erase_to_sequent(td)))
            except EraseError as e:
                lines.append(f"erase error: {e}")
        chunks.append("\n".join(lines) + "\n")
    return "".join(chunks)


def test_typing_output_is_unchanged():
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    got = render()
    if got != want:
        for a, b in zip(got.split("$ "), want.split("$ ")):
            assert a == b
    assert got == want


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as f:
        f.write(render())

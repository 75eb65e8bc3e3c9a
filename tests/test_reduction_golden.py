"""Byte-identical reduction over a fixed term set.

``golden/reduction.txt`` holds, for each entry below, every step of its
reduction up to fuel 200: the rule, the process it gives and, at a tensor
step, the other nesting (``alt``); then whether it stopped at a normal form
or ran out of fuel.  Entries are ``test_typing_golden.entries()`` (the
corpus, seeded sessions and its hand-written terms) and the terms below,
for part orders and mixtures the corpus never shows: the lead (the part
negative on the first side) after its partners, a single part, a wrong and
a missing annotation, bound names that clash with the fresh name a step
draws, and stuck mixtures.  Reduction ignores typing, so ill-typed entries
reduce too.  A change to reduction that must not alter its steps keeps this
file as it is; one that means to regenerates it with
``python tests/test_reduction_golden.py``.
"""

import os
import sys

from test_typing_golden import ENV, entries

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reduction.txt")

FUEL = 200
CLOSE = "?w{0}[v]@1.v{0}()@0.end"
CLOSE3 = "?w{1,2}[v]@0.v{1,2}()@1.end"
ENV3 = "env w : [{1,2}] ![0] one[1]"

# name -> problem text
HAND = {
    "tensor-input-first": (
        f"base 2\n{ENV}\nproc new x: one[0] *[0] one[0] .(\n"
        "  x{0}(y)@0.( y{0}()@0.end | x{0}()@0.end )\n"
        f"| x{{1}}[y]@0.y{{1}}[]@0.x{{1}}[]@0.{CLOSE} )\n"
    ),
    "tensor-input-between-two-inputs": (
        f"base 3\n{ENV3}\nproc new x: one[0] *[0] one[0] .(\n"
        "  x{0,2}(y)@0.( y{0,2}()@0.end | x{0,2}()@0.end )\n"
        f"| x{{1,2}}[y]@0.y{{1,2}}[]@0.x{{1,2}}[]@0.{CLOSE3}\n"
        "| x{0,1}(y)@0.( y{0,1}()@0.end | x{0,1}()@0.end ) )\n"
    ),
    "unit-output-last-of-three": (
        f"base 3\n{ENV3}\nproc new x: one[0] .(\n"
        "  x{0,2}()@0.end\n| x{0,1}()@0.end\n"
        f"| x{{1,2}}[]@0.{CLOSE3} )\n"
    ),
    "skip-out-last": (
        f"base 3\n{ENV3}\nproc new x: msg[1,2] one[0] .(\n"
        "  x{0,1,2}(skip)@{1,2}.x{0,1,2}()@0.end\n"
        f"| x{{1,2}}(skip)@{{1,2}}.x{{1,2}}[]@0.{CLOSE3}\n"
        "| x{0}[skip]@{1,2}.x{0}()@0.end )\n"
    ),
    "recv-before-its-send": (
        "base 3\nenv w : [{0,1}] ![2] one[0]\nproc new x: msg[0,1] one[2] .(\n"
        "  x{0,2}(recv)@{0,1}.x{0,2}()@2.end\n"
        "| x{0,1}(skip)@{0,1}.x{0,1}[]@2.?w{0,1}[v]@2.v{0,1}()@0.end\n"
        "| x{1,2}[send]@{0,1}.x{1,2}()@2.end )\n"
    ),
    "spawn-servers-before-the-request": (
        f"base 3\n{ENV3}\nproc new x: ![0] one[0] .(\n"
        "  !x{0,2}(u)@0.u{0,2}()@0.end\n| !x{0,1}(u)@0.u{0,1}()@0.end\n"
        f"| ?x{{1,2}}[y]@0.y{{1,2}}[]@0.{CLOSE3} )\n"
    ),
    "single-part-output": f"base 2\n{ENV}\nproc new x: one[0] .( x{{}}[]@0.{CLOSE} )\n",
    "single-part-request": (
        f"base 2\n{ENV}\nproc new x: ![0] one[0] .( ?x{{}}[y]@0.y{{}}[]@0.{CLOSE} )\n"
    ),
    "tensor-with-annotation": (
        f"base 2\n{ENV}\nproc new x: one[0] &[0] one[0] .(\n"
        f"  x{{1}}[y]@0.y{{1}}[]@0.x{{1}}[]@0.{CLOSE}\n"
        "| x{0}(y)@0.( y{0}()@0.end | x{0}()@0.end ) )\n"
    ),
    "selection-without-annotation": (
        f"base 2\n{ENV}\nproc new x .(\n"
        "  x{0}(case)@0.( x{0}()@0.end , x{0}[]@1.x{0}()@0.end )\n"
        f"| x{{1}}[inr]@0.x{{1}}[]@1.{CLOSE} )\n"
    ),
    "transfer-with-tensor-annotation": (
        f"base 3\n{ENV3}\nproc new x: one[0] *[0] one[0] .(\n"
        f"  x{{0}}[skip]@{{1,2}}.x{{0}}()@0.end\n| x{{1,2}}(skip)@{{1,2}}.{CLOSE3} )\n"
    ),
    # the fresh name a tensor step draws for y is y$1: both sides bind it
    # under a use of y, so each renaming draws another, lead first
    "tensor-binders-clash-with-the-fresh-name": (
        "base 2\nproc new x .(\n"
        "  x{0}(y)@0.( y{0}(y$1)@0.( y$1{0}()@0.end | y{0}()@0.end ) | x{0}()@0.end )\n"
        "| x{1}[y]@0.y{1}[y$1]@0.y$1{1}[]@0.x{1}[]@0.y{1}()@0.end )\n"
    ),
    "spawn-binders-clash-with-the-fresh-name": (
        "base 3\nproc new x .(\n"
        "  !x{0,2}(u)@0.u{0,2}[y$1]@0.y$1{0,2}()@0.end\n"
        "| ?x{1,2}[y]@0.y{1,2}(y$1)@0.( y$1{1,2}()@0.end | y{1,2}()@0.end )\n"
        "| !x{0,1}(u)@0.u{0,1}[y$1]@0.y$1{0,1}()@0.end )\n"
    ),
    "stuck-two-skip-outs": (
        f"base 3\n{ENV3}\nproc new x: msg[1,2] one[0] .(\n"
        "  x{0}[skip]@{1,2}.x{0}()@0.end\n"
        f"| x{{0}}[skip]@{{1,2}}.x{{0}}[]@0.{CLOSE3} )\n"
    ),
    "stuck-send-without-recv": (
        "base 3\nenv w : [{0,1}] ![2] one[0]\nproc new x: msg[0,1] one[2] .(\n"
        "  x{1,2}[send]@{0,1}.x{1,2}()@2.end\n"
        "| x{0,1}(skip)@{0,1}.x{0,1}[]@2.?w{0,1}[v]@2.v{0,1}()@0.end )\n"
    ),
    "stuck-selection-against-name-input": (
        f"base 2\n{ENV}\nproc new x: one[0] &[0] one[0] .(\n"
        f"  x{{1}}[inl]@0.x{{1}}[]@0.{CLOSE}\n"
        "| x{0}(y)@0.( y{0}()@0.end | x{0}()@0.end ) )\n"
    ),
}


def all_entries():
    """(name, problem text): the typing golden's entries, then the terms above."""
    return entries() + list(HAND.items())


def render() -> str:
    from lmrl.parser import parse_problem
    from lmrl.printer import format_process
    from lmrl.processes import has_cut, normalize
    from lmrl.syntax import reset_fresh_names

    chunks = []
    for name, text in all_entries():
        # each entry draws fresh names as a new interpreter would
        reset_fresh_names()
        res = normalize(parse_problem(text).process, FUEL, keep_trace=True)
        lines = [f"$ {name}"]
        for k, r in enumerate(res.trace, 1):
            lines.append(f"{k} {r.rule}: {format_process(r.process)}")
            if r.alt is not None:
                lines.append(f"  alt: {format_process(r.alt)}")
        end = "fuel ran out" if res.exhausted else "normal form"
        lines.append(f"{end} after {res.steps} steps, cut-free: {not has_cut(res.process)}")
        chunks.append("\n".join(lines) + "\n")
    return "".join(chunks)


def test_reduction_output_is_unchanged():
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

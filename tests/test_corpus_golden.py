"""Byte-identical CLI output over every ``corpus/`` file.

``golden/corpus_cli.txt`` holds the exit code and standard output of each
command below, run in-process from the repository root.  Refactors that must
not change behaviour keep this file as it is; a change that means to alter
output regenerates it with ``python tests/test_corpus_golden.py``.
"""

import contextlib
import io
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus_cli.txt")


def _files(sub, ext):
    top = os.path.join(ROOT, "corpus", sub)
    return sorted(
        os.path.relpath(os.path.join(d, f), ROOT).replace(os.sep, "/")
        for d, _, names in os.walk(top)
        for f in names
        if f.endswith(ext)
    )


def commands():
    cmds = []
    for f in _files("logic", ".drv"):
        calc = ["--calc", "disj"] if "/disj/" in f else []
        cmds += [["check", f, *calc], ["dualize", f]]
    for f in _files("logic", ".seq"):
        cmds += [["prove", f, "--depth", "3"], ["cll2", f]]
    for f in _files("proc", ".pi"):
        cmds += [
            ["typecheck", f],
            ["sr-check", f, "--fuel", "200"],
            ["run", f, "--fuel", "200"],
            ["run", f, "--fuel", "200", "--trace"],
            ["step", f, "-n", "3"],
        ]
    return [c for cmd in cmds for c in (cmd, cmd + ["--json"])]


def render() -> str:
    """Run every command from the repository root and transcribe it."""
    from lmrl.cli import main
    from lmrl.syntax import reset_fresh_names

    chunks = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in commands():
            # fresh-name counters restart, so each command prints what a new
            # interpreter would
            reset_fresh_names()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            chunks.append(f"$ lmrl {' '.join(argv)}\n{buf.getvalue()}[exit {code}]\n")
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_corpus_cli_output_is_unchanged():
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    got = render()
    if got != want:
        for a, b in zip(got.split("$ lmrl "), want.split("$ lmrl ")):
            assert a == b
    assert got == want


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as f:
        f.write(render())

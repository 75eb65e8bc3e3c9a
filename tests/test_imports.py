"""No module in ``src/lmrl`` or ``tests`` imports a name it never reads.

Only the standard library's ``ast`` is used.  A name an import binds
counts as read where the module loads it (an attribute chain starts with
one) or where a string annotation names it; ``from __future__`` imports
bind nothing to read.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FILES = sorted(
    glob.glob(os.path.join(ROOT, "src", "lmrl", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
)


def imported(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds -> the line of that import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def reads(tree: ast.AST) -> set[str]:
    """The names ``tree`` loads, its string annotations' included."""
    loads = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
    names = {n.id for n in loads if isinstance(n.ctx, ast.Load)}
    for ann in annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= reads(ast.parse(n.value, mode="eval"))
    return names


def dead_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = reads(tree)
    return [f"{line}: {name}" for name, line in imported(tree).items() if name not in used]


def test_the_checker_sees_dead_and_read_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e, f\n"
        "def g(x: 'e') -> list['f']:\n"
        "    return os.path.join(b)\n"
    )
    assert dead_imports(source) == ["3: d"]


def test_no_module_imports_a_name_it_never_reads():
    assert len(FILES) > 20
    dead = []
    for path in FILES:
        with open(path, encoding="utf-8") as f:
            dead += [f"{os.path.relpath(path, ROOT)}:{d}" for d in dead_imports(f.read())]
    assert dead == []

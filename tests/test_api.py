"""Every public module-level function and class of the library has a caller.

A name counts as called when another library module, a demo or a benchmark
script reads it, or when its own module reads it outside its definition.
The benchmark tracer looks functions up by strings "module.name", so such a
string in a benchmark script counts as a read of that name too.
The re-exports of ``topolab/__init__.py`` and the tests do not count: a name
that only they read is dead code with a test around it.  It is deleted, or
moved into ``tests/oracles.py`` when a test checks a library route against
it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topolab"


def _reads(node: ast.AST) -> set[str]:
    """The names and attribute names read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _strings(node: ast.AST) -> set[str]:
    return {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def uncalled_public_names() -> list[str]:
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    scripts = [
        ast.parse(path.read_text())
        for folder in ("demos", "benchmarks")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    read_by_scripts = set().union(*map(_reads, scripts))
    named_by_scripts = set().union(*map(_strings, scripts))
    read_by_module = {name: _reads(tree) for name, tree in modules.items()}
    dead = []
    for name, tree in modules.items():
        read_elsewhere = read_by_scripts.union(*(r for m, r in read_by_module.items() if m != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            read_by_own_module = set().union(*(_reads(n) for n in tree.body if n is not node))
            called = node.name in read_elsewhere | read_by_own_module or f"{name}.{node.name}" in named_by_scripts
            if not called:
                dead.append(f"{name}.{node.name}")
    return dead


def test_the_library_modules_are_found():
    assert len(list(PACKAGE.glob("*.py"))) >= 10


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []

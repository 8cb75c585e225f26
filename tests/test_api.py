"""Every public module-level function and class of the library has a caller.

A name counts as called when another library module, a demo or a benchmark
script reads it, or when its own module reads it outside its definition.
The benchmark tracer looks functions up by strings "module.name", so such a
string in a benchmark script counts as a read of that name too.
The re-exports of ``topolab/__init__.py`` and the tests do not count: a name
that only they read is dead code with a test around it.  It is deleted, or
moved into ``tests/oracles.py`` when a test checks a library route against
it.

The same holds for the public methods of public library classes: a method
whose name no library module, demo or benchmark script reads as an
attribute (or names in a string the benchmark tracer looks attributes up
by) is deleted or moved into ``tests/oracles.py``.  A bare name does not
count, so a local variable spelled like the method does not keep it.  The
test goes by name, so a method that shares its name with an attribute in
use escapes it.

Likewise every defaulted parameter of a public library function is passed
by some call in the library, a demo or a benchmark script, by position or
by keyword; a function passed as a value counts as passing all of them.  An
option that only the tests set is a second code path nobody runs.
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


def _attributes(node: ast.AST) -> set[str]:
    """The attribute names read anywhere under ``node``."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _strings(node: ast.AST) -> set[str]:
    return {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _sources() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The library modules by name, without ``__init__``, and the demo and benchmark scripts."""
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
    return modules, scripts


def uncalled_public_names() -> list[str]:
    modules, scripts = _sources()
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


def unread_public_methods() -> list[str]:
    modules, scripts = _sources()
    read = set().union(*map(_attributes, scripts), *map(_strings, scripts), *map(_attributes, modules.values()))
    dead = []
    for name, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read:
                    dead.append(f"{name}.{cls.name}.{node.name}")
    return dead


def test_the_library_modules_are_found():
    assert len(list(PACKAGE.glob("*.py"))) >= 10


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def test_every_public_method_is_read():
    assert unread_public_methods() == []


EVERY = "*"  # a function passed as a value, or called with *args or **kwargs, may get every parameter


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _passed(trees) -> dict[str, set]:
    """Per function name, what the calls under ``trees`` pass: positions, keyword names or EVERY."""
    out: dict[str, set] = {}
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node.func):
                callees.add(id(node.func))
                got = out.setdefault(_called_name(node.func), set())
                got.update(range(len(node.args)))
                got.update(k.arg or EVERY for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    got.add(EVERY)
        for node in ast.walk(tree):
            name = _called_name(node)
            if name and id(node) not in callees and isinstance(node.ctx, ast.Load):
                out.setdefault(name, set()).add(EVERY)
    return out


def unpassed_options() -> list[str]:
    """Defaulted parameters of public library functions that no call passes.

    The calls counted are those in the library modules, the demos and the
    benchmark scripts, by position or by keyword; the tests do not count.
    """
    modules, scripts = _sources()
    passed = _passed(scripts + list(modules.values()))
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            got = passed.get(node.name, set())
            if EVERY in got:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [
                (i, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)
            ]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            dead += [f"{name}.{node.name}({arg})" for i, arg in defaulted if i not in got and arg not in got]
    return dead


def test_every_option_is_passed_somewhere():
    assert unpassed_options() == []

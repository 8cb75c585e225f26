"""Every ``lru_cache`` of the library is bounded.

The caches are found the way ``benchmarks/run.py`` finds the ones it clears
before each pass: every attribute of a ``topolab.*`` module that has
``cache_clear`` and was defined in that module.  A new memo carries a bound
and a row of README's cache table, both checked here; an unbounded one
would have to be added to the empty list below on purpose.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import topolab
from topolab import hyperspaces
from topolab.spaces import sierpinski_space

UNBOUNDED_ALLOWED: set[str] = set()


def _caches() -> dict:
    found = {}
    for info in pkgutil.iter_modules(topolab.__path__):
        name = f"topolab.{info.name}"
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                found[f"{info.name}.{attr}"] = value
    return found


def test_unbounded_caches_are_on_the_list():
    unbounded = {name for name, fn in _caches().items() if fn.cache_info().maxsize is None}
    assert unbounded <= UNBOUNDED_ALLOWED, sorted(unbounded - UNBOUNDED_ALLOWED)


def test_the_readme_cache_table_names_every_cache():
    # the backticked name opening each row of the table under "| cache | key | bound |"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| cache | key | bound |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `([\w.]+)`", line).group(1) for line in table.splitlines()]
    assert sorted(rows) == sorted(_caches())


def test_the_function_space_cache_is_found_and_small():
    info = _caches()["funcspaces._function_space"].cache_info()
    assert info.maxsize is not None and info.maxsize <= 16


def test_the_three_hyperspaces_share_one_build():
    space = sierpinski_space()
    family = hyperspaces.compacts(space)
    hyperspaces._hyperspace.cache_clear()
    built = [build(space, family) for build in (hyperspaces.lower_vietoris, hyperspaces.upper_vietoris, hyperspaces.vietoris)]
    info = hyperspaces._hyperspace.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert [hy.variant for hy in built] == ["lower", "upper", "vietoris"]
    assert info.maxsize == 256

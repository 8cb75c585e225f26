"""Every ``lru_cache`` of the library is bounded, or named on a short list.

The caches are found the way ``benchmarks/run.py`` finds the ones it clears
before each pass: every attribute of a ``topolab.*`` module that has
``cache_clear`` and was defined in that module.  A new memo must either
carry a bound or be added here on purpose, with its README entry.
"""

import importlib
import pkgutil

import topolab

UNBOUNDED_ALLOWED = {
    "hyperspaces.lower_vietoris",
    "hyperspaces.upper_vietoris",
    "hyperspaces.vietoris",
    "spaces.homeomorphism_classes",
    "choice.limit_set_P",
    "choice.filterwise_limit_set",
}


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


def test_the_function_space_cache_is_found_and_small():
    info = _caches()["funcspaces._function_space"].cache_info()
    assert info.maxsize is not None and info.maxsize <= 16

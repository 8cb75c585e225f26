"""The benchmark's span tracer still wraps the library's layers and puts them back.

``benchmarks/tracing.py`` replaces public functions and the ``min_nbhds``
cached properties from outside the library (``--trace 1``); a refactor that
renames what it wraps must fail here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import topolab.cli  # noqa: F401  every traced layer must be imported
from topolab import funcspaces
from topolab.funcspaces import FunctionSpace
from topolab.spaces import FiniteSpace, discrete_space, sierpinski_space


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_min_nbhds_then_restore():
    tracing = _load_tracing()
    originals = {cls: cls.__dict__["min_nbhds"] for cls in (FiniteSpace, FunctionSpace)}
    funcspaces._function_space.cache_clear()  # start cold, as each benchmark pass does
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = funcspaces.compact_open(sierpinski_space(), discrete_space(2)).min_nbhds
    finally:
        restore()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("funcspaces.min_nbhds") == 1
    assert "funcspaces.compact_open" in names
    assert {cls: cls.__dict__["min_nbhds"] for cls in originals} == originals
    assert traced == funcspaces.compact_open(sierpinski_space(), discrete_space(2)).min_nbhds

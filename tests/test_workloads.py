"""The benchmark's workloads still run on the library and pass their checks.

``benchmarks/workloads.py`` calls the library through its public names; a
refactor that breaks a workload must fail here, not only in a benchmark
run.  One pass of each workload runs with a host-speed stub, every
verdict must hold, and the brute-force gate must find nothing.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import oracles
import topolab
import topolab.cli  # noqa: F401  the pairs workload runs the command in-process


class NoProbe:
    """Stands in for the benchmark's host-speed prober."""

    def maybe_probe(self):
        pass


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["Choice", "Corpus", "Pairs"])
def test_one_pass_passes_its_checks_and_gate(name, tmp_path):
    workload = getattr(_load_workloads(), name)()
    inputs = workload.generate(topolab, 7)
    out = workload.run_pass(topolab, inputs, tmp_path, NoProbe())
    verdicts = workload.verdicts(out)
    assert verdicts
    assert [label for label, ok in verdicts if ok is not True] == []
    assert workload.gate(topolab, inputs, out, oracles, random.Random("gate-7")) == []

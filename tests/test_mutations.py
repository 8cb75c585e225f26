"""Committed mutants that a suite must catch.

Each row of ``MUTANTS`` patches one kernel of the library and names the
suite and the max-n whose ``verify`` run must then exit 1 with a witness,
within a time bound (mutation testing after DeMillo, Lipton and Sayward
1978, "Hints on test data selection", Computer 11).  A mutant that no
suite catches is a finding: either a check is missing, or the mutant is
equivalent to the kernel and README should say why.

Known survivor: the ``embedding`` suite passes all 3468 checks at max-n 3
under the box mutant, since its family holds the singletons, so P_f is
taken as U_f and continuity and openness compare the mutant with itself.
"""

import json
import time

import pytest

from topolab import funcspaces
from topolab.cli import main
from topolab.funcspaces import FunctionSpace


def _box_without_last_coordinate(monkeypatch):
    """``FunctionSpace.min_nbhds`` pulls back over every kept slot but the last."""
    monkeypatch.setattr(FunctionSpace, "min_nbhds", property(lambda fs: fs._pull_back(fs._kept[:-1], lower=False)))


# (name, patch, suite, max_n, seconds)
MUTANTS = [
    ("box-without-last-coordinate", _box_without_last_coordinate, "vietoris-inclusion", 2, 30),
]


@pytest.mark.parametrize("name, patch, suite, max_n, seconds", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_caught(name, patch, suite, max_n, seconds, monkeypatch, tmp_path, capsys):
    funcspaces._function_space.cache_clear()  # cached spaces hold the kernel's own neighbourhoods
    patch(monkeypatch)
    report = tmp_path / "report.json"
    start = time.perf_counter()
    try:
        code = main(["verify", "--suite", suite, "--max-n", str(max_n), "--report", str(report)])
    finally:
        funcspaces._function_space.cache_clear()
    assert time.perf_counter() - start < seconds
    assert code == 1, name
    assert "Traceback" not in capsys.readouterr().err
    data = json.loads(report.read_text())
    assert data["totals"]["failed"] > 0 and data["witnesses"], name

"""``tools/time_verify.py`` times fresh ``verify`` processes and writes their record."""

import importlib.util
import json
from pathlib import Path

from topolab.suites import SUITE_NAMES


def _load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "time_verify.py"
    spec = importlib.util.spec_from_file_location("time_verify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_of_property_a(tmp_path, capsys):
    tool = _load_tool()
    assert tool.main(["--suite", "property-a", "--max-n", "1", "--runs", "1", "--out-dir", str(tmp_path)]) == 0
    assert "median process wall time at the reference speed" in capsys.readouterr().out
    record = json.loads((tmp_path / "BENCH_verify_property-a_n1.json").read_text())
    assert record["codes"] == [0] and record["totals"] == [{"checked": 5, "passed": 5, "failed": 0}]
    assert len(record["reference_s"]) == 1 and record["median_reference_s"] > 0


def test_one_run_of_every_suite(tmp_path, capsys):
    # --suite all writes a list of reports: the record keeps each suite's totals, in suite order
    tool = _load_tool()
    assert tool.main(["--suite", "all", "--max-n", "1", "--runs", "1", "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_verify_all_n1.json").read_text())
    assert record["codes"] == [0]
    (totals,) = record["totals"]
    assert len(totals) == len(SUITE_NAMES)
    assert all(t["failed"] == 0 and t["checked"] == t["passed"] > 0 for t in totals)

"""``tools/time_verify.py`` and ``tools/time_tier1.py`` time fresh processes and write their records."""

import importlib.util
import json
from pathlib import Path

from topolab.suites import SUITE_NAMES


def _load_tool(name: str = "time_verify"):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
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


def test_one_tier1_run_of_a_selection(tmp_path, capsys):
    # the arguments after -- go to pytest: one file, and a -k selection of three tests in it
    tool = _load_tool("time_tier1")
    selection = ["tests/test_maps.py", "-k", "negative_entry or length_mismatch or empty_map and not nonempty"]
    assert tool.main(["--runs", "1", "--out-dir", str(tmp_path), "--", *selection]) == 0
    assert "median process wall time at the reference speed" in capsys.readouterr().out
    record = json.loads((tmp_path / "BENCH_tier1.json").read_text())
    assert record["pytest_args"] == selection and record["codes"] == [0]
    (summary,) = record["summaries"]
    assert summary.startswith("3 passed, 3 deselected")
    assert len(record["reference_s"]) == 1 and record["median_reference_s"] > 0

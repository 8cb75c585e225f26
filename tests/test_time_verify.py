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


def test_one_run_of_finality_square(tmp_path, capsys):
    tool = _load_tool()
    assert tool.main(["--suite", "finality-square", "--max-n", "1", "--runs", "1", "--out-dir", str(tmp_path)]) == 0
    assert "median process wall time at the reference speed" in capsys.readouterr().out
    record = json.loads((tmp_path / "BENCH_verify_finality-square_n1.json").read_text())
    assert record["codes"] == [0] and record["totals"] == [{"checked": 1, "passed": 1, "failed": 0}]
    assert len(record["reference_s"]) == 1 and record["median_reference_s"] > 0
    # each run records its child CPU seconds, the load around it and whether it was contended
    assert record["cpus"] >= 1 and record["cpu_s"][0] > 0 and record["peak_rss_mb"][0] > 0
    assert [len(record[key][0]) for key in ("load_before", "load_after")] == [3, 3]
    assert record["contended"] in ([False], [True])


def test_a_run_is_contended_by_its_cpu_share_or_the_load_before_it():
    tool = _load_tool()

    def run(wall, cpu, load):
        return tool.Timed(0, "", "", wall, wall, cpu, (load, 0.0, 0.0), (0.0, 0.0, 0.0), 30.0)

    assert not tool.contended(run(10.0, 9.5, 0.5), one_worker=True, cpus=2)
    assert tool.contended(run(10.0, 8.5, 0.5), one_worker=True, cpus=2)  # another process took a tenth of its core
    assert not tool.contended(run(10.0, 8.5, 0.5), one_worker=False, cpus=2)  # workers: the ratio says nothing
    assert tool.contended(run(10.0, 19.0, 2.0), one_worker=False, cpus=2)  # the cores were busy before it started
    assert not tool.contended(run(10.0, 9.5, 1.9), one_worker=True, cpus=2)


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

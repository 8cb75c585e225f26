"""Time the tier-1 tests end to end: the median process wall time of fresh ``pytest`` runs, at the reference speed.

Each run is ``python -m pytest -q [pytest arguments]`` in a new process,
from the root of this checkout and on its ``src`` tree, so start-up,
collection and imports count.  The runs are timed as
``tools/time_verify.py`` times ``verify`` (its ``time_process``): with
host-speed probes taken around and during each run, which scale its wall
time to the reference speed of ``benchmarks/hostspeed.py``, and with its
CPU seconds and the load before and after it, which mark a run contended
when its CPU/wall ratio is low or the load shows another process on the
cores.

Usage, from the repository root:

    python tools/time_tier1.py [--runs 3] [-- <pytest arguments>]

Arguments after ``--`` go to pytest, for example ``-- -k "not mutant"``.
Prints one line per run and the median, and writes the record, with each
run's pytest summary line, to ``.benchmark-results/BENCH_tier1.json``
(``--out-dir`` names another directory).  Exits 0 when every run exited 0,
else 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _time_verify():
    """``tools/time_verify.py``, loaded from its file, for its process timer."""
    spec = importlib.util.spec_from_file_location("time_verify", ROOT / "tools" / "time_verify.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_runs(pytest_args: list[str], runs: int, timer) -> dict:
    """The record of ``runs`` fresh pytest processes, timed by ``timer`` (``tools/time_verify.py``): exit codes, summary lines, times, loads and contention flags."""
    hostspeed = timer._hostspeed()
    speed = hostspeed.HostSpeed()
    argv = [sys.executable, "-m", "pytest", "-q", *pytest_args]
    record = timer.new_record(pytest_args=pytest_args, runs=runs, summaries=[])
    for _ in range(runs):
        run = timer.time_process(argv, hostspeed, speed)
        timer.record_run(record, run, one_worker=True)  # pytest runs the tests in one process
        lines = run.stdout.strip().splitlines()
        record["summaries"].append(lines[-1] if lines else "")
        if run.code != 0:
            record["stderr"] = run.stderr
    record["median_reference_s"] = statistics.median(record["reference_s"])
    record["median_wall_s"] = statistics.median(record["wall_s"])
    return record


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".benchmark-results")
    args = parser.parse_args(argv[:split])
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    timer = _time_verify()
    record = time_runs(argv[split + 1 :], args.runs, timer)
    for k, (code, summary) in enumerate(zip(record["codes"], record["summaries"])):
        print(f"exit {code}  {summary}  {timer.run_line(record, k)}")
    median, runs = record["median_reference_s"], record["runs"]
    print(f"median process wall time at the reference speed: {median:.3f} s ({runs} runs)")
    if "stderr" in record:
        print(record["stderr"], end="", file=sys.stderr)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "BENCH_tier1.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(code == 0 for code in record["codes"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())

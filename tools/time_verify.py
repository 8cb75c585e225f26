"""Time ``topolab verify`` end to end: the median process wall time of fresh runs, at the reference speed.

Each run is ``python -m topolab.cli verify --suite <s> --max-n <n>
[--jobs <j>]`` in a new process, on the ``src`` tree of this checkout, so
start-up and imports count (``time_process``, which
``tools/time_tier1.py`` shares).  The host runs Python at one of two speeds
about 2x apart and may switch within a run, so this process takes
host-speed probes (``benchmarks/hostspeed.py``) while the run goes on,
every ``hostspeed.INTERVAL_S``, and ``NEIGHBOURS`` on each side of it.
A run's wall time at the reference speed is its wall time times
``hostspeed.REFERENCE_S`` over the median probe.  The probes take about
3 % of one core beside the run.  When the run's workers take every core,
the probes share the cores with them and read slow, so the reference
times come out low: compare such runs with each other, or by wall time.
Every run must report the same totals.

Usage, from the repository root:

    python tools/time_verify.py --suite vietoris-inclusion --max-n 4 [--jobs 2] [--runs 5]

``--suite all`` runs every suite in one process.  Prints one line per
run and the median, and writes the record to
``.benchmark-results/BENCH_verify_<suite>_n<max-n>.json`` (``--out-dir``
names another directory).  Exits 0 when every run exited 0, else 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEIGHBOURS = 2  # probes taken just before and just after each run


def _hostspeed():
    """``benchmarks/hostspeed.py``, loaded from its file; it is only read."""
    spec = importlib.util.spec_from_file_location("hostspeed", ROOT / "benchmarks" / "hostspeed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_process(argv: list[str], hostspeed, speed) -> tuple[int, str, str, float, float]:
    """Run ``argv`` once in a fresh process on the ``src`` tree of this checkout, from its root.

    Returns (exit code, standard output, standard error, wall seconds,
    wall seconds at the reference speed).  ``speed``, a
    ``hostspeed.HostSpeed``, takes ``NEIGHBOURS`` probes just before and
    just after the run and one every ``hostspeed.INTERVAL_S`` while it goes
    on; the reference time is the wall time times ``hostspeed.REFERENCE_S``
    over their median.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    first = len(speed.durations)
    for _ in range(NEIGHBOURS):
        speed.probe()
    start = hostspeed.clock()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as run:
        while True:
            try:
                stdout, stderr = run.communicate(timeout=hostspeed.INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                speed.probe()
    end = hostspeed.clock()
    for _ in range(NEIGHBOURS):
        speed.probe()
    probes = statistics.median(speed.durations[first:])
    return run.returncode, stdout, stderr, end - start, (end - start) * hostspeed.REFERENCE_S / probes


def time_runs(suite: str, max_n: int, jobs: int | None, runs: int) -> dict:
    """The record of ``runs`` fresh ``verify`` processes: exit codes, totals, raw and reference-speed wall times.

    A run's totals are its report's, or with ``--suite all`` the list of
    each suite's totals in suite order.
    """
    hostspeed = _hostspeed()
    speed = hostspeed.HostSpeed()
    record = {"suite": suite, "max_n": max_n, "jobs": jobs, "runs": runs}
    record.update(codes=[], totals=[], wall_s=[], reference_s=[])
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "report.json"
        argv = [sys.executable, "-m", "topolab.cli", "verify", "--suite", suite, "--max-n", str(max_n)]
        argv += ["--report", str(report)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        for _ in range(runs):
            code, _, stderr, wall, reference = time_process(argv, hostspeed, speed)
            record["codes"].append(code)
            record["wall_s"].append(wall)
            record["reference_s"].append(reference)
            if code in (0, 1):
                payload = json.loads(report.read_text())  # --suite all writes a list of reports
                totals = [r["totals"] for r in payload] if isinstance(payload, list) else payload["totals"]
                record["totals"].append(totals)
            else:
                record["totals"].append(None)
                record["stderr"] = stderr
    record["median_reference_s"] = statistics.median(record["reference_s"])
    record["median_wall_s"] = statistics.median(record["wall_s"])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", required=True)
    parser.add_argument("--max-n", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".benchmark-results")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    record = time_runs(args.suite, args.max_n, args.jobs, args.runs)
    for code, wall, reference in zip(record["codes"], record["wall_s"], record["reference_s"]):
        print(f"exit {code}  wall {wall:.3f} s  at the reference speed {reference:.3f} s")
    median, runs = record["median_reference_s"], record["runs"]
    print(f"median process wall time at the reference speed: {median:.3f} s ({runs} runs)")
    if "stderr" in record:
        print(record["stderr"], end="", file=sys.stderr)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_verify_{args.suite}_n{args.max_n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    totals = [t for t in record["totals"] if t is not None]
    if any(t != totals[0] for t in totals):
        print(f"the runs report different totals: {totals}", file=sys.stderr)
        return 1
    return 0 if all(code == 0 for code in record["codes"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())

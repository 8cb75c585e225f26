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

Each run also records the CPU seconds of its process tree (the change in
``getrusage(RUSAGE_CHILDREN)``, which counts the pool workers once they
are joined), the peak resident set so far and ``os.getloadavg()`` before
and after it.  A run is marked contended (``contended``) when another
process likely held its cores: with one worker its CPU/wall ratio is under
``CPU_SHARE``, or the 1-minute load before it was at least the usable CPU
count.  Compare uncontended runs.

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
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
NEIGHBOURS = 2  # probes taken just before and just after each run
CPU_SHARE = 0.9  # the least CPU/wall ratio of an uncontended run with one worker


def _hostspeed():
    """``benchmarks/hostspeed.py``, loaded from its file; it is only read."""
    spec = importlib.util.spec_from_file_location("hostspeed", ROOT / "benchmarks" / "hostspeed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Timed(NamedTuple):
    """One timed process run (``time_process``)."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    reference_s: float  # the wall time at the reference speed
    cpu_s: float  # user and system CPU seconds of the process and its joined children
    load_before: tuple[float, float, float]  # os.getloadavg() just before the run
    load_after: tuple[float, float, float]  # and just after it
    peak_rss_mb: float  # the largest resident set of any process this one has waited for so far, in MiB


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def contended(run: Timed, one_worker: bool, cpus: int) -> bool:
    """Whether another process likely held the run's cores.

    With one worker, a run that got a core to itself spends nearly all its
    wall time on the CPU, so a CPU/wall ratio under ``CPU_SHARE`` marks it;
    so does a 1-minute load of at least ``cpus`` before it, with or without
    workers.
    """
    return (one_worker and run.cpu_s < CPU_SHARE * run.wall_s) or run.load_before[0] >= cpus


def _children() -> tuple[float, float]:
    """The CPU seconds of every descendant waited for, and the largest resident set among them in MiB (Linux counts KiB)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def time_process(argv: list[str], hostspeed, speed) -> Timed:
    """Run ``argv`` once in a fresh process on the ``src`` tree of this checkout, from its root.

    ``speed``, a ``hostspeed.HostSpeed``, takes ``NEIGHBOURS`` probes just
    before and just after the run and one every ``hostspeed.INTERVAL_S``
    while it goes on; the reference time is the wall time times
    ``hostspeed.REFERENCE_S`` over their median.  The CPU time is the
    change in ``getrusage(RUSAGE_CHILDREN)`` over the run, which counts
    every descendant the run waited for.  Its peak resident set is a
    running maximum over every process this one has waited for, so with
    one command per tool process it is the peak over that command's runs.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    first = len(speed.durations)
    for _ in range(NEIGHBOURS):
        speed.probe()
    load_before, (cpu_before, _) = os.getloadavg(), _children()
    start = hostspeed.clock()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as run:
        while True:
            try:
                stdout, stderr = run.communicate(timeout=hostspeed.INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                speed.probe()
    end = hostspeed.clock()
    (cpu_after, peak), load_after = _children(), os.getloadavg()
    for _ in range(NEIGHBOURS):
        speed.probe()
    probes = statistics.median(speed.durations[first:])
    wall = end - start
    reference = wall * hostspeed.REFERENCE_S / probes
    return Timed(run.returncode, stdout, stderr, wall, reference, cpu_after - cpu_before, load_before, load_after, peak)


PER_RUN = ("wall_s", "reference_s", "cpu_s", "load_before", "load_after", "peak_rss_mb")  # ``Timed`` fields kept per run


def record_run(record: dict, run: Timed, one_worker: bool) -> None:
    """Append the run's exit code, ``PER_RUN`` fields and contention flag to the lists of ``record``."""
    record["codes"].append(run.code)
    for key in PER_RUN:
        record[key].append(getattr(run, key))
    record["contended"].append(contended(run, one_worker, record["cpus"]))


def new_record(**fields) -> dict:
    """A record with ``fields`` and the empty per-run lists that ``record_run`` fills."""
    return dict(fields, cpus=usable_cpus(), codes=[], contended=[], **{key: [] for key in PER_RUN})


def run_line(record: dict, k: int) -> str:
    """Run k's times, CPU/wall ratio, load before it and contention flag, for printing."""
    wall, cpu = record["wall_s"][k], record["cpu_s"][k]
    flag = "  CONTENDED" if record["contended"][k] else ""
    return (
        f"wall {wall:.3f} s  at the reference speed {record['reference_s'][k]:.3f} s  "
        f"cpu/wall {cpu / wall:.2f}  load before {record['load_before'][k][0]:.2f}  "
        f"peak {record['peak_rss_mb'][k]:.1f} MiB{flag}"
    )


def time_runs(suite: str, max_n: int, jobs: int | None, runs: int) -> dict:
    """The record of ``runs`` fresh ``verify`` processes: exit codes, totals, times, loads and contention flags.

    A run's totals are its report's, or with ``--suite all`` the list of
    each suite's totals in suite order.
    """
    hostspeed = _hostspeed()
    speed = hostspeed.HostSpeed()
    record = new_record(suite=suite, max_n=max_n, jobs=jobs, runs=runs, totals=[])
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "report.json"
        argv = [sys.executable, "-m", "topolab.cli", "verify", "--suite", suite, "--max-n", str(max_n)]
        argv += ["--report", str(report)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        for _ in range(runs):
            run = time_process(argv, hostspeed, speed)
            record_run(record, run, one_worker=jobs in (None, 1))
            if run.code in (0, 1):
                payload = json.loads(report.read_text())  # --suite all writes a list of reports
                totals = [r["totals"] for r in payload] if isinstance(payload, list) else payload["totals"]
                record["totals"].append(totals)
            else:
                record["totals"].append(None)
                record["stderr"] = run.stderr
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
    for k, code in enumerate(record["codes"]):
        print(f"exit {code}  {run_line(record, k)}")
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

"""Run one topolab benchmark workload and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload choice --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, with times at the host's
reference speed (see ``hostspeed.py``); ``--trace 1`` reports the
per-layer metrics of a traced run, and its tracing overhead against
untraced passes of the same run.  Human-readable tables go to standard
output, followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (context, inputs, raw samples)
is written to ``.benchmark-results/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = ROOT / ".benchmark-results"

WORKLOADS = {w.name: w for w in (workloads.Choice(), workloads.Pairs(), workloads.Corpus())}
SETUP_REPEATS = 15
MIN_PASSES = 4  # every item is timed at least four times
TAIL_BEYOND = 10  # item_ms.tail is the highest percentile with this many items beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("peak_rss_mb", "MiB"),
)

clock = time.perf_counter


def timed_setup(workload, seed: int):
    """Import topolab afresh and generate the inputs; returns ((start, end), tl, inputs)."""
    start = clock()
    for name in [n for n in sys.modules if n == "topolab" or n.startswith("topolab.")]:
        del sys.modules[name]
    tl = importlib.import_module("topolab")
    importlib.import_module("topolab.cli")
    inputs = workload.generate(tl, seed)
    return (start, clock()), tl, inputs


def cached_functions() -> list[tuple[str, str, object]]:
    """(layer, name, function) for every lru_cache function in topolab."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("topolab."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                out.append((name.split(".", 1)[1], attr, value))
    return out


def cache_stats(cached) -> dict:
    stats: dict = {}
    for layer, _, fn in cached:
        info = fn.cache_info()
        hits, misses = stats.get(layer, (0, 0))
        stats[layer] = (hits + info.hits, misses + info.misses)
    return stats


class Runner:
    """Timed passes of one workload with cold caches, and their checks."""

    def __init__(self, workload, tl, inputs, cached, scratch: Path, speed: hostspeed.HostSpeed):
        self.workload, self.tl, self.inputs = workload, tl, inputs
        self.cached, self.scratch, self.speed = cached, scratch, speed
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.last = None

    def run(self, budget: float, min_passes: int) -> list[dict]:
        """Cold passes until ``budget`` seconds have gone by, at least ``min_passes``.

        Returns one dict a pass: its start and end, its measured ``wall``
        (probe time taken out) and the start and end of each item.
        """
        passes: list[dict] = []
        start = clock()
        while len(passes) < min_passes or clock() - start < budget:
            for _, _, fn in self.cached:
                fn.cache_clear()
            gc.collect()
            warm = [f"{layer}.{name}" for layer, name, fn in self.cached if fn.cache_info().currsize]
            if warm:
                self.problems.append(f"pass {len(passes)} did not start cold: {warm}")
            self.speed.probe()
            spent = self.speed.spent
            t0 = clock()
            out = self.workload.run_pass(self.tl, self.inputs, self.scratch, self.speed)
            t1 = clock()
            wall = t1 - t0 - (self.speed.spent - spent)
            self.speed.probe()
            verdicts = self.workload.verdicts(out)
            self.attempted += len(verdicts)
            self.failures += [f"{label}: {ok}" for label, ok in verdicts if ok is not True]
            passes.append({"start": t0, "end": t1, "wall": wall, "items": out.items})
            self.last = out
        return passes

    def gate(self, seed: int) -> None:
        spec = importlib.util.spec_from_file_location("topolab_oracles", ORACLES)
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        rng = random.Random(f"gate-{seed}")
        try:
            self.problems += self.workload.gate(self.tl, self.inputs, self.last, oracles, rng)
        except Exception as exc:
            self.problems.append(f"gate raised {type(exc).__name__}: {exc}")


def at_reference_speed(passes: list[dict], speed: hostspeed.HostSpeed) -> tuple[list[float], list[list[float]]]:
    """Each pass's wall time and item latencies, at the reference speed."""
    walls = [speed.reference_seconds(p["start"], p["end"]) for p in passes]
    items = [[speed.reference_seconds(start, end) for start, end in p["items"]] for p in passes]
    return walls, items


def item_latencies(items: list[list[float]]) -> list[float]:
    """Each item's median time over the passes, in ascending order.

    Every pass runs the same items in the same order.
    """
    return sorted(statistics.median(times) for times in zip(*items))


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def context(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "topolab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "topolab_commit": git_commit(ROOT),
        "topolab_src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
    }


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>16.6g} {unit:<6} {note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "topolab" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"cannot find the topolab sources and tests/oracles.py under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    speed = hostspeed.HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        interval, tl, inputs = timed_setup(workload, args.seed)
        setups.append(interval)
    speed.probe()

    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    scratch = OUT / f"{stem}.tmp{os.getpid()}"
    scratch.mkdir()
    runner = Runner(workload, tl, inputs, cached_functions(), scratch, speed)
    record = {"context": context(args), "inputs": inputs}
    try:
        if args.trace:
            metrics = traced_run(args, runner, record)
        else:
            metrics = untraced_run(args, runner, record, setups)
        runner.gate(args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.failures)
    correct = runner.attempted > 0 and failed == 0 and not runner.problems
    print(
        f"check_fail_ratio {failed / max(runner.attempted, 1):.6g} "
        f"({failed} of {runner.attempted} checks wrong or raised)"
    )
    for line in runner.failures[:10] + runner.problems[:10]:
        print(f"  FAIL {line}")
    print(f"correctness gate: {'ok' if correct else 'FAILED'}")
    record.update(
        {
            "correct": correct,
            "attempted": runner.attempted,
            "failed": failed,
            "failures": runner.failures[:100],
            "gate_problems": runner.problems,
            "metrics": metrics,
        }
    )
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": correct, "attempted": max(runner.attempted, 1), "failed": failed, "metrics": metrics}
        )
    )
    return 0


def untraced_run(args, runner: Runner, record: dict, setups: list[tuple[float, float]]) -> dict:
    passes = runner.run(args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = runner.speed
    walls, items = at_reference_speed(passes, speed)
    setup_samples = [speed.reference_seconds(start, end) for start, end in setups]
    latencies = item_latencies(items)
    tail_rank = len(latencies) - TAIL_BEYOND  # nearest rank, so TAIL_BEYOND items lie beyond it
    tail_percentile = 100 * tail_rank / len(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "item_ms.p50": 1000 * statistics.median(latencies),
        "item_ms.tail": 1000 * latencies[tail_rank - 1],
        "peak_rss_mb": peak_rss_mb,
    }
    measured_setup = statistics.median(end - start for start, end in setups)
    measured_wall = statistics.median(p["wall"] for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} imports + input generations; measured {measured_setup:.4g} s",
        "wall_s": f"median of {len(passes)} cold passes; measured {measured_wall:.4g} s",
        "item_ms.p50": f"{len(latencies)} items, each its median over {len(passes)} passes",
        "item_ms.tail": f"p{tail_percentile:.4g} of {len(latencies)} items, {TAIL_BEYOND} beyond",
        "peak_rss_mb": "process peak after the passes",
    }
    probe_ms = 1000 * statistics.median(speed.durations)
    print(f"topolab benchmark: workload={args.workload} seed={args.seed} passes={len(passes)}")
    print(
        f"host speed: median probe {probe_ms:.4g} ms over {len(speed.durations)} probes; "
        f"times below are at the reference speed ({1000 * hostspeed.REFERENCE_S:g} ms a probe)"
    )
    print_table("end-to-end", [(n, values[n], u, notes[n]) for n, u in END_TO_END])
    origin = setups[0][0]
    record["samples"] = {
        "setup_s": setup_samples,
        "wall_s": walls,
        "items_s": items,
        "measured": {
            "setup": [[start - origin, end - origin] for start, end in setups],
            "passes": [
                {
                    "start": p["start"] - origin,
                    "end": p["end"] - origin,
                    "wall": p["wall"],
                    "items": [[start - origin, end - origin] for start, end in p["items"]],
                }
                for p in passes
            ],
            "probes": [[t - origin, d] for t, d in zip(speed.starts, speed.durations)],
        },
    }
    record["tail"] = {"percentile": tail_percentile, "items": len(latencies), "beyond": TAIL_BEYOND}
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}


def traced_run(args, runner: Runner, record: dict) -> dict:
    """Alternate untraced and traced passes, so both see the same machine."""
    tracer = tracing.Tracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict] = []
    start = clock()
    while not traced_walls or clock() - start < args.seconds:
        plain_walls += [p["wall"] for p in runner.run(0, 1)]
        restore = tracing.instrument(tracer)
        try:
            traced_walls += [p["wall"] for p in runner.run(0, 1)]
        finally:
            restore()
        last_spans, counters = tracer.reset()
        per_pass.append(tracing.pass_metrics(last_spans, counters, cache_stats(runner.cached), traced_walls[-1]))
    idle = tracing.idle_layers(last_spans)
    values = {
        name: statistics.median(p[name] for p in per_pass)
        for name, _ in tracing.LAYER_METRICS
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
    tracing.write_spans(spans_path, last_spans)

    print(
        f"topolab benchmark: workload={args.workload} seed={args.seed} "
        f"traced passes={len(traced_walls)} untraced passes={len(plain_walls)}"
    )
    rows = []
    for name, unit in tracing.LAYER_METRICS:
        layer = name.split(".", 1)[0]
        rows.append((name, values[name], unit, "idle on this workload" if layer in idle else ""))
    print_table("per layer (median of traced passes)", rows)
    print(
        f"tracing overhead: traced wall_s {statistics.median(traced_walls):.4f} - "
        f"untraced wall_s {statistics.median(plain_walls):.4f} = {values['trace.overhead_s']:.4f} s"
    )
    print("unmeasured from outside the library:")
    for line in tracing.UNMEASURED:
        print(f"  - {line}")
    print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    record["samples"] = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls, "per_pass": per_pass}
    record["idle_layers"] = sorted(idle)
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: space files, corpus materialization, hyper- and
function-space exports, and the verification suites.

Exit codes: 0 success / all checks passed, 1 a validation or suite check
failed (diagnostics or witnesses emitted), 2 input, usage, or size-limit
errors.  A command refuses by raising ``TopolabError`` (or an ``OSError``),
and ``main`` alone prints the refusal and returns 2.  ``main`` builds its
argument parser on its first call, not at import, and reuses it, so a
caller that runs ``verify`` in-process over and over builds it once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import limits
from .bitsets import points_of
from .errors import NotATopology, SizeLimitExceeded, TopolabError
from .fileio import check_writable, load_space, point_masks, read_json, space_to_dict, write_canonical
from .funcspaces import compact_open, set_open_topology
from .hyperspaces import closeds, compacts, lower_vietoris, upper_vietoris, vietoris
from .spaces import enumerate_topologies, generate_from_subbase, space_report
from .suites import SUITE_NAMES, SUITES, run_suites


def _apply_limits(args: argparse.Namespace) -> None:
    for flag, value in (("--limit-points", args.limit_points), ("--limit-opens", args.limit_opens)):
        if value is not None and value < 1:
            raise TopolabError(f"{flag} must be at least 1, got {value}")
    limits.set_limits(points=args.limit_points, opens=args.limit_opens)
    limits.max_opens()  # a malformed TOPOLAB_LIMIT_OPENS is refused before any work


def _check_n(n: int) -> None:
    if n < 0:
        raise TopolabError(f"--n must be non-negative, got {n}")


def cmd_space(args: argparse.Namespace) -> int:
    """Validate, generate, or describe a space file."""
    check_writable(args.out)
    if args.generate_subbase is not None:
        if args.n is None:
            raise TopolabError("--generate-subbase needs --n")
        _check_n(args.n)
        limits.guard_points(args.n, "--n")
        subbase = read_json(
            args.generate_subbase, "--generate-subbase", lambda v: point_masks(v, args.n, "the subbase"), literal=True
        )
        space = generate_from_subbase(args.n, subbase)
    else:
        if args.file is None:
            raise TopolabError("need a space file or --generate-subbase")
        try:
            space = load_space(args.file)
        except NotATopology as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
    if args.describe:
        rep = space_report(space)
        out = dict(space_to_dict(space))
        out["report"] = {
            "t1": rep.t1,
            "t2": rep.t2,
            "t3": rep.t3,
            "locally_compact": rep.locally_compact,
            "nested_neighbourhood": rep.nested_neighbourhood,
            "open_count": len(space.opens),
        }
        write_canonical(out)
    if args.out:
        write_canonical(space_to_dict(space), args.out)
    if not args.describe and not args.out:
        print(f"valid topology on {space.n} points with {len(space.opens)} opens")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    """Materialize all topologies on n points with stable filenames."""
    _check_n(args.n)
    corpus = list(enumerate_topologies(args.n))  # refuses n over 5 before the directory is made
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, space in enumerate(corpus):
        write_canonical(space_to_dict(space), outdir / f"topology_n{args.n}_{i:04d}.json")
    print(f"wrote {len(corpus)} topologies to {outdir}")
    return 0


def _resolve_family(space, spec: str):
    if spec in ("all", "compacts"):  # on a finite space every subset is compact
        return compacts(space)
    if spec == "closeds":
        return closeds(space)
    if spec.startswith("@"):
        return read_json(
            spec[1:], f"family file {spec[1:]}", lambda v: point_masks(v, space.n, "the family", nonempty=True)
        )
    raise TopolabError(f"unknown family spec {spec!r}")


def cmd_hyper(args: argparse.Namespace) -> int:
    """Emit a hyperspace as a space file plus the hyperpoint index table."""
    check_writable(args.out)
    space = load_space(args.space)
    family = _resolve_family(space, args.family)
    builder = {"lower": lower_vietoris, "upper": upper_vietoris, "vietoris": vietoris}[args.variant]
    hyper = builder(space, family)
    out = space_to_dict(hyper.topology)
    out["hyperpoints"] = [list(points_of(m)) for m in hyper.family]
    out["variant"] = args.variant
    write_canonical(out, args.out)
    return 0


def cmd_funcspace(args: argparse.Namespace) -> int:
    """Emit the function carrier and optionally its materialized topology."""
    check_writable(args.out)
    dom = load_space(args.dom)
    cod = load_space(args.cod)
    fns = compact_open(dom, cod, carrier=args.carrier).functions
    fsp = set_open_topology(fns, _resolve_family(dom, args.family), dom, cod)
    out = {
        "dom_n": dom.n,
        "cod_n": cod.n,
        "carrier": args.carrier,
        "functions": [list(f.image) for f in fsp.functions],
        "family": [list(points_of(a)) for a in fsp.family],
    }
    if args.materialize:
        out["topology"] = space_to_dict(fsp.materialize())
    write_canonical(out, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run verification suites and emit a RunReport per suite."""
    check_writable(args.report)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, max_n=args.max_n, jobs=args.jobs, inject_fault=args.inject_fault)
    if args.report:
        payload = [r.to_dict() for r in reports]
        write_canonical(payload if len(payload) > 1 else payload[0], args.report)
    for r in reports:
        status = "ok" if r.failed == 0 else "FAILED"
        print(f"{r.suite}: {r.passed}/{r.checked} checks passed [{status}] ({r.wall_time_s}s)")
        if r.arity:
            swept, labelled = ("representatives", "labelled spaces") if r.arity == 1 else ("class pairs", "labelled pairs")
            rerun = f", {r.reruns} {labelled} re-run after a failure" if r.reruns else ""
            print(f"  {r.classes} {swept} for {r.labelled} {labelled}{rerun}")
        for w in r.witnesses[:3]:
            print(f"  witness: {json.dumps(w, sort_keys=True)}")
    return 0 if all(r.failed == 0 for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="finite-topology computation and exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    guards = argparse.ArgumentParser(add_help=False)
    guards.add_argument("--limit-points", type=int, default=None, help="ground-set size guard")
    guards.add_argument("--limit-opens", type=int, default=None, help="open-set count guard")

    p = sub.add_parser("space", parents=[guards], help="validate / generate / describe space files")
    p.add_argument("file", nargs="?", help="space JSON file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--generate-subbase", default=None, metavar="JSON", help='e.g. "[[0,1],[1,2]]"')
    p.add_argument("--describe", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("corpus", parents=[guards], help="materialize all topologies on n points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("hyper", parents=[guards], help="hyperspace of a space file")
    p.add_argument("--space", required=True)
    p.add_argument("--family", default="all", help="all | compacts | closeds | @file")
    p.add_argument("--variant", choices=("lower", "upper", "vietoris"), default="vietoris")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("funcspace", parents=[guards], help="set-open function space between two space files")
    p.add_argument("--dom", required=True)
    p.add_argument("--cod", required=True)
    p.add_argument("--carrier", choices=("continuous", "all"), default="continuous")
    p.add_argument("--family", default="compacts", help="compacts | all | closeds | @file")
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_funcspace)

    p = sub.add_parser("verify", parents=[guards], help="run verification suites")
    p.add_argument("--suite", default="all", help=f"all | {' | '.join(SUITE_NAMES)}")
    bounds = ", ".join(f"{name} (<= {suite.max_n})" for name, suite in SUITES.items())
    p.add_argument("--max-n", type=int, default=3, dest="max_n", help=f"largest n (>= 1), y for finality-square: {bounds}; "
                   "every selected suite's bound is checked before any suite runs")
    p.add_argument("--report", default=None, help="write the RunReport JSON here")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (>= 1); never more than the work items or os.cpu_count()")
    p.add_argument("--inject-fault", action="store_true", help="harness self-test: flip one open set and require a failure")
    p.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first ``main`` call


def main(argv=None) -> int:
    """Parse ``argv`` with the one parser of the process and run its command; returns the exit code.

    Each call parses into a new namespace, and the size limits it sets are
    reset when it returns, so one call leaves nothing for the next.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        _apply_limits(args)
        return args.func(args)
    except SizeLimitExceeded as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except TopolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        limits.reset_limits()


if __name__ == "__main__":
    raise SystemExit(main())

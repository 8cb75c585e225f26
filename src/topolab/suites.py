"""Verification sweeps over the exhaustive small-space corpus.

Each suite walks a deterministic corpus, counts every individual check, and
collects structured witnesses for failures (the first witness is always the
smallest failing instance in sweep order, which makes regressions pinnable).
A RunReport serializes to canonical JSON; identical inputs give byte-identical
reports except for the single wall_time_s field.

vietoris-inclusion and embedding check statements about labelled pairs
(X, Y) that a relabelling of X or of Y carries onto the same statements,
so they run one pair of class representatives per pair of homeomorphism
classes and count its checks once per labelled pair of the orbit product
(169 class pairs for 1156 labelled pairs at max_n 3, 2116 for 151321 at
max_n 4, 34225 for 53743561 at max_n 5).  A class pair with a failure is
run again on each labelled pair of its orbit product, so counts and
witnesses are those of the labelled sweep; the report records how many
pairs stood for how many, outside the payload.

The fault-injection hook used by the harness self-test removes the full set
from the first corpus topology and routes the mangled family through
validation: the resulting axiom violation must surface as a witness and a
non-zero exit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Sequence

from .bitsets import complement, full_mask, iter_bits, points_of
from .choice import (
    check_filterwise_refinement,
    check_locally_compact_bound,
    check_lower_convergence_lemma,
    classify_property_A,
    limit_set_P,
)
from .errors import NotATopology, SizeLimitExceeded, TopolabError
from .filters import enumerate_ultrafilters, subsets_carrier
from .finality import check_finality_discrete_square, stone_cech_finite_discrete
from .funcspaces import compact_open, continuous_maps, mu_embedding_report
from .hyperspaces import _hit_index_mask, compacts, vietoris
from .spaces import enumerate_topologies, homeomorphism_classes, make_space

SUITE_NAMES = (
    "vietoris-inclusion",
    "embedding",
    "finality-square",
    "stone-cech",
    "choice-lemma",
    "property-a",
)

# The largest max_n of each suite, with the reason; stone-cech ignores max_n.
MAX_N = {
    "vietoris-inclusion": (5, "sweeps the homeomorphism classes of n <= 5"),
    "embedding": (5, "sweeps the homeomorphism classes of n <= 5"),
    "finality-square": (3, "checks y <= 3"),
    "choice-lemma": (3, "sweeps n <= 3 exhaustively plus a fixed 4-point sample"),
    "property-a": (3, "knows the counts for n <= 3"),
}

STONE_CECH_MAX_D = 4  # stone-cech checks the discrete spaces on 1 to 4 points
N4_SPACE_STRIDE = 30  # deterministic n=4 sample: corpus indices 0, 30, 60, ...


@dataclass
class RunReport:
    suite: str
    parameters: dict
    checked: int = 0
    passed: int = 0
    failed: int = 0
    witnesses: list = field(default_factory=list)
    wall_time_s: float = 0.0
    # how a class-pair sweep covered its labelled pairs; not part of the payload
    class_pairs: int = 0
    labelled_pairs: int = 0
    rerun_pairs: int = 0

    def record(self, ok: bool, witness: dict | None = None) -> None:
        self.checked += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if witness is not None:
                self.witnesses.append(witness)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "totals": {
                "checked": self.checked,
                "passed": self.passed,
                "failed": self.failed,
            },
            "witnesses": self.witnesses,
            "wall_time_s": self.wall_time_s,
        }


def _check_max_n(name: str, max_n: int) -> None:
    if max_n < 1:
        raise TopolabError(f"max_n must be at least 1, got {max_n}")
    if name in MAX_N and max_n > MAX_N[name][0]:
        bound, reason = MAX_N[name]
        raise SizeLimitExceeded(f"{name} {reason}; max_n {max_n} is over {bound}")


def check_request(names: Sequence[str], max_n: int, jobs: int = 1) -> None:
    """Refuse unknown suites, max_n or jobs below 1, and a max_n over any selected suite's bound."""
    for name in names:
        if name not in SUITE_NAMES:
            raise TopolabError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
        _check_max_n(name, max_n)
    if jobs < 1:
        raise TopolabError(f"jobs must be at least 1, got {jobs}")


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """``fn`` over ``items`` in order, on at most jobs, len(items) and os.cpu_count() workers."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with Pool(workers) as pool:
        return pool.map(fn, items)


def _class_pair_sweep(name: str, pair: Callable, max_n: int, jobs: int) -> RunReport:
    """Suite ``name``'s report: the checks of ``pair`` over every labelled (X, Y) on at most max_n points.

    ``pair`` maps ((nx, xi, x), (ny, yi, y)) to (checks, failed checks,
    witnesses) and is invariant under relabelling X and Y independently.  It
    runs once on each pair of class representatives, and its checks count
    |orbit X|·|orbit Y| times.  A class pair with a failure is run again on
    every labelled pair of its orbit product, and those results are added in
    the labelled sweep's order, so the report is the labelled sweep's.
    """
    _check_max_n(name, max_n)
    report = RunReport(name, {"max_n": max_n})
    classes = [
        [(n, i, space) for i, space in members]
        for n in range(1, max_n + 1)
        for _, members in homeomorphism_classes(n)
    ]
    class_pairs = [(cx, cy) for cx in classes for cy in classes]
    results = _pmap(pair, [(cx[0], cy[0]) for cx, cy in class_pairs], jobs)
    failing = []
    for (cx, cy), (checked, failed, _) in zip(class_pairs, results):
        if failed:
            failing += [(sx, sy) for sx in cx for sy in cy]
        else:
            report.checked += checked * len(cx) * len(cy)
            report.passed += checked * len(cx) * len(cy)
    failing.sort(key=lambda args: (args[0][:2], args[1][:2]))  # (nx, xi, ny, yi): the labelled order
    for checked, failed, witnesses in _pmap(pair, failing, jobs):
        report.checked += checked
        report.passed += checked - failed
        report.failed += failed
        report.witnesses.extend(witnesses)
    report.class_pairs = len(class_pairs)
    report.labelled_pairs = sum(map(len, classes)) ** 2
    report.rerun_pairs = len(failing)
    return report


# ---------------------------------------------------------------- inclusion

def _continuous_along(slot: dict[int, int], hmins, mins) -> bool:
    """f ↦ f(a) is continuous: the U_f of each value group lie in its pulled-back neighbourhood.

    ``slot`` maps each hyperpoint v to the mask of the maps with f(a) = v,
    ``hmins`` is the hyperspace's and ``mins`` the carrier's
    minimal-neighbourhood array.  The maps g with g(a) in the
    neighbourhood of v are the union of the groups whose hyperpoint lies
    in it, and the union of U_f over the group of v must lie inside them.
    """
    items = tuple(slot.items())
    for v, members in items:
        near = hmins[v]
        up = 0
        for u, others in items:
            if near >> u & 1:
                up |= others
        reach = 0
        while members:
            low = members & -members
            reach |= mins[low.bit_length() - 1]
            members ^= low
        if reach & ~up:
            return False
    return True


def _inclusion_pair(args) -> tuple[int, list]:
    """Hit-and-miss identities and Vietoris openness of the maps f ↦ f(a).

    The miss and hit index masks over compacts(y) and the subbasic sets of
    the singletons depend on the pair only and are built once.  For each
    compact a the image table ``images(a)`` gives one function mask per
    hyperpoint, and every preimage is a union of them.  The map into the
    Vietoris hyperspace is continuous when each U_f lies in the Vietoris
    neighbourhood of f(a) pulled back along f ↦ f(a), decided once per
    value group (``_continuous_along``).  When it holds, every Vietoris
    open, the miss and hit index masks (the Vietoris subbase) among them,
    pulls back to an open.  The Vietoris opens are counted, and listed one
    by one only to name the witnesses when continuity fails.
    """
    (nx, xi, x), (ny, yi, y) = args
    checked = 0
    witnesses: list = []
    fsp = compact_open(x, y)
    ky = compacts(y)
    hyper = vietoris(y, ky).topology
    mins = fsp.min_nbhds
    misses = [
        (fmask, full_mask(len(ky)) & ~_hit_index_mask(ky, fmask), complement(fmask, y.n)) for fmask in y.closeds
    ]
    hits = [
        (o, _hit_index_mask(ky, o), [fsp.subbasic(1 << pt, o) for pt in range(x.n)]) for o in y.opens
    ]

    def tag(kind: str, **extra) -> dict:
        base = {"x": (nx, xi), "y": (ny, yi), "kind": kind}
        base.update(extra)
        return base

    for a in compacts(x):
        slot = fsp.images(a)
        a_points = points_of(a)

        def preimage(index_mask: int) -> int:
            out = 0
            for k, m in slot.items():
                if index_mask >> k & 1:
                    out |= m
            return out

        continuous = _continuous_along(slot, hyper.min_nbhds, mins)

        def pulls_back_open(index_mask: int) -> bool:
            return continuous or fsp.is_open(preimage(index_mask))

        for fmask, missm, avoid in misses:
            lhs = preimage(missm)
            rhs = fsp.subbasic(a, avoid)
            checked += 2
            if lhs != rhs:
                witnesses.append(tag("miss-identity", a=a_points, closed=points_of(fmask)))
            if not pulls_back_open(missm):
                witnesses.append(tag("miss-preimage-not-open", a=a_points, closed=points_of(fmask)))
        for o, hitm, by_point in hits:
            lhs = preimage(hitm)
            rhs = 0
            for pt in a_points:
                rhs |= by_point[pt]
            checked += 2
            if lhs != rhs:
                witnesses.append(tag("hit-identity", a=a_points, open=points_of(o)))
            if not pulls_back_open(hitm):
                witnesses.append(tag("hit-preimage-not-open", a=a_points, open=points_of(o)))
        checked += hyper.open_count
        if continuous:
            continue
        for ovm in hyper.opens:
            if not fsp.is_open(preimage(ovm)):
                witnesses.append(
                    tag("vietoris-open-preimage-not-open", a=a_points, hyper_open=list(iter_bits(ovm)))
                )
    return checked, witnesses


def _inclusion_counts(args) -> tuple[int, int, list]:
    checked, witnesses = _inclusion_pair(args)
    return checked, len(witnesses), witnesses


def suite_vietoris_inclusion(max_n: int = 3, jobs: int = 1) -> RunReport:
    return _class_pair_sweep("vietoris-inclusion", _inclusion_counts, max_n, jobs)


# ---------------------------------------------------------------- embedding

def _embedding_pair(args) -> tuple[int, int, list]:
    """(checks, failed checks, witnesses): three flags, one witness per failing pair."""
    (nx, xi, x), (ny, yi, y) = args
    fam = tuple(range(1, 1 << x.n))
    rep = mu_embedding_report(x, y, continuous_maps(x, y), fam)
    bad = 3 - sum((rep.continuous, rep.open_onto_image, rep.injective))
    if not bad:
        return 3, 0, []
    detail = {
        "x": (nx, xi),
        "y": (ny, yi),
        "kind": "embedding",
        "continuous": rep.continuous,
        "open_onto_image": rep.open_onto_image,
        "injective": rep.injective,
    }
    return 3, bad, [detail]


def suite_embedding(max_n: int = 3, jobs: int = 1) -> RunReport:
    return _class_pair_sweep("embedding", _embedding_pair, max_n, jobs)


# ------------------------------------------------------------ finality square

def suite_finality_square(max_y: int = 3) -> RunReport:
    _check_max_n("finality-square", max_y)
    report = RunReport("finality-square", {"max_y": max_y})
    for y_n in range(1, max_y + 1):
        rep = check_finality_discrete_square(y_n)
        witness = None
        if not rep.equal:
            extra = sorted(set(rep.computed.opens) - set(rep.expected.opens))
            missing = sorted(set(rep.expected.opens) - set(rep.computed.opens))
            witness = {
                "kind": "finality-square",
                "y_n": y_n,
                "final_only_opens": extra[:4],
                "vietoris_only_opens": missing[:4],
            }
        report.record(rep.equal, witness)
        if y_n >= 2:
            report.record(
                rep.expected_is_discrete,
                None if rep.expected_is_discrete else {"kind": "vietoris-not-discrete", "y_n": y_n},
            )
    return report


# ----------------------------------------------------------------- stone-cech

def suite_stone_cech() -> RunReport:
    report = RunReport("stone-cech", {"max_d": STONE_CECH_MAX_D})
    for d_n in range(1, STONE_CECH_MAX_D + 1):
        rep = stone_cech_finite_discrete(d_n)
        for name, ok in (
            ("w-bijective", rep.w_bijective),
            ("closures-clopen", rep.closures_clopen),
            ("base-clopen", rep.base_is_clopen),
            ("clopen-closure-form", rep.clopen_closure_form),
        ):
            report.record(ok, None if ok else {"kind": name, "d_n": d_n})
    return report


# --------------------------------------------------------------- choice lemma

def _choice_space(args) -> tuple[int, list]:
    n, si, space = args
    checked = 0
    witnesses: list = []
    carrier = subsets_carrier(n)
    for ui, phi in enumerate(enumerate_ultrafilters(carrier)):
        vacuous = limit_set_P(space, phi) == 0
        ok = check_lower_convergence_lemma(space, phi)
        checked += 1
        if not ok:
            witnesses.append(
                {"kind": "lower-convergence", "n": n, "space": si, "ultrafilter": ui}
            )
        if vacuous:
            witnesses.append(
                {"kind": "vacuous-empty-limit-set", "n": n, "space": si, "ultrafilter": ui, "informational": True}
            )
        for a in range(1, 1 << n):
            checked += 2
            if not check_locally_compact_bound(space, phi, a):
                witnesses.append(
                    {"kind": "locally-compact-bound", "n": n, "space": si, "ultrafilter": ui, "a": points_of(a)}
                )
            if not check_filterwise_refinement(space, phi, a):
                witnesses.append(
                    {"kind": "filterwise-refinement", "n": n, "space": si, "ultrafilter": ui, "a": points_of(a)}
                )
    return checked, witnesses


def suite_choice_lemma(max_n: int = 3, jobs: int = 1) -> RunReport:
    """Exhaustive sweep for n <= max_n plus the deterministic 4-point sample.

    The sample takes every N4_SPACE_STRIDE-th topology of the 355-space
    corpus, with all 15 ultrafilters each.
    The n=4 sweep is not exhaustive, so max_n above 3 is refused rather than
    run as less than was asked for.
    """
    _check_max_n("choice-lemma", max_n)
    report = RunReport("choice-lemma", {"max_n": max_n, "n4_sample": max_n == 3})
    tasks = []
    for n in range(1, max_n + 1):
        for i, space in enumerate(enumerate_topologies(n)):
            tasks.append((n, i, space))
    if max_n == 3:
        for i, space in enumerate(enumerate_topologies(4)):
            if i % N4_SPACE_STRIDE == 0:
                tasks.append((4, i, space))
    for checked, witnesses in _pmap(_choice_space, tasks, jobs):
        real = [w for w in witnesses if not w.get("informational")]
        report.checked += checked
        report.passed += checked - len(real)
        report.failed += len(real)
        report.witnesses.extend(witnesses)
    return report


# ----------------------------------------------------------------- property A

def suite_property_a(max_n: int = 3) -> RunReport:
    _check_max_n("property-a", max_n)
    report = RunReport("property-a", {"max_n": max_n})
    expected_counts = {1: 1, 2: 3, 3: 7}
    for n in range(1, max_n + 1):
        cls = classify_property_A(n)
        checks = (
            ("property-a-equals-singletons", cls.property_a_equals_singletons),
            ("property-a-all-ultrafilters", cls.all_property_a_ultrafilters),
            ("property-a-all-countably-complete", cls.all_property_a_countably_complete),
            ("property-a-count", cls.property_a_count == expected_counts[n]),
            ("filter-count", cls.filter_count == (1 << ((1 << n) - 1)) - 1),
        )
        for name, ok in checks:
            report.record(
                ok,
                None
                if ok
                else {
                    "kind": name,
                    "n": n,
                    "property_a_count": cls.property_a_count,
                    "filter_count": cls.filter_count,
                },
            )
    return report


# ------------------------------------------------------------------- harness

def _fault_self_test(report: RunReport, max_n: int) -> None:
    """Flip one open set in the first corpus topology and expect detection."""
    first = next(iter(enumerate_topologies(min(max_n, 2))))
    mangled = [o for o in first.opens if o != first.full]
    try:
        make_space(first.n, mangled)
    except NotATopology as exc:
        report.record(
            False,
            {
                "kind": "injected-fault",
                "space": {"n": first.n, "opens": [list(points_of(o)) for o in mangled]},
                "violated_axiom": exc.axiom,
                "axiom_witness": exc.witness,
            },
        )
        return
    # validation failed to notice the flip: that is itself a failure
    report.record(False, {"kind": "injected-fault-not-detected"})


def run_suite(
    name: str,
    max_n: int = 3,
    jobs: int = 1,
    inject_fault: bool = False,
) -> RunReport:
    check_request([name], max_n, jobs)
    start = time.perf_counter()
    if name == "vietoris-inclusion":
        report = suite_vietoris_inclusion(max_n, jobs)
    elif name == "embedding":
        report = suite_embedding(max_n, jobs)
    elif name == "finality-square":
        report = suite_finality_square(max_n)
    elif name == "stone-cech":
        report = suite_stone_cech()
    elif name == "choice-lemma":
        report = suite_choice_lemma(max_n, jobs)
    else:
        report = suite_property_a(max_n)
    if inject_fault:
        report.parameters["inject_fault"] = True
        _fault_self_test(report, max_n)
    report.wall_time_s = round(time.perf_counter() - start, 3)
    return report


def run_suites(
    names: Sequence[str],
    max_n: int = 3,
    jobs: int = 1,
    inject_fault: bool = False,
) -> list[RunReport]:
    """Run the named suites in order, after checking the request for all of them."""
    check_request(names, max_n, jobs)
    return [run_suite(n, max_n=max_n, jobs=jobs, inject_fault=inject_fault) for n in names]

"""Verification sweeps over the exhaustive small-space corpus.

Each suite walks a deterministic corpus, counts every individual check, and
collects structured witnesses for failures (the first witness is always the
smallest failing instance in sweep order, which makes regressions pinnable).
A RunReport serializes to canonical JSON; identical inputs give byte-identical
reports except for the single wall_time_s field.

``SUITES`` is the registry: for each suite name, its runner
(max_n, jobs) -> RunReport, its largest max_n and the reason for that
bound; every suite reads max_n.  The CLI reads its suite names and its
``--max-n`` help from it.  Each per-item check returns one triple,
(checks, failed checks, witnesses), and ``RunReport.add`` folds such
triples into a report.

vietoris-inclusion, embedding and choice-lemma check statements that a
relabelling of each space carries onto the same statements, so they share
one class sweep (``_class_sweep``): a group is a tuple of orbits, its check
runs once on the orbits' first members and counts once per labelled tuple
of the orbit product.  The pair suites sweep the product of the classes
with themselves (169 class pairs for 1156 labelled pairs at max_n 3, 2116
for 151321 at max_n 4, 34225 for 53743561 at max_n 5); choice-lemma sweeps
one class at a time (25 representatives for 46 labelled spaces at max_n 3,
the 4-point sample included, and 46 for 389 at max_n 4).  Before the
sweep, the orbits of each size must cover the corpus indices
0 .. T(n) − 1 once each (T from OEIS A000798); otherwise one failed check
with an ``orbit-weights`` witness is recorded.  A group with a failure is
run again on each labelled tuple of its orbit product, so counts and
witnesses are those of the labelled sweep; the report records how many
tuples stood for how many, outside the payload.

vietoris-inclusion checks each Y's side against its definitions once per
Y, and the continuity of the singleton coordinates f ↦ f(x) once per
pair.  When both hold, the continuity of every f ↦ f(a) and the miss
identities follow, and only the hit identities are computed compact by
compact; otherwise every check is computed compact by compact
(``_inclusion_pair``).

No suite re-checks what a theorem decides without saying so (README,
"Notes on definitions").  Property (A) holds exactly for the filters
whose kernel is one subset, and ``has_property_A`` decides it by that
theorem, so there is no property-a suite: ``classify_property_A`` is a
library call, as ``finality.stone_cech_finite_discrete`` is.

The fault-injection hook used by the harness self-test removes the full set
from the first corpus topology and routes the mangled family through
validation: the resulting axiom violation must surface as a witness and a
non-zero exit.
"""

from __future__ import annotations

import os
import time
from functools import partial, reduce
from itertools import product, repeat
from math import prod
from operator import or_
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Sequence

from .bitsets import complement, iter_bits, points_of
from .choice import check_filterwise_refinement, check_locally_compact_bound, check_lower_convergence_lemma
from .errors import NotATopology, SizeLimitExceeded, TopolabError
from .filters import enumerate_ultrafilters, subsets_carrier
from .finality import check_finality_discrete_square, pushed_edges
from .funcspaces import _continuous_images, _embedding_report, _function_space, compact_open
from .hyperspaces import compacts, vietoris
from .spaces import FiniteSpace, enumerate_topologies, homeomorphism_classes, make_space

N4_SPACE_STRIDE = 30  # deterministic n=4 sample: corpus indices 0, 30, 60, ...
ORBIT_SUMS = (1, 4, 29, 355, 6942)  # the labelled topologies on 1 to 5 points (OEIS A000798)


class RunReport(SimpleNamespace):
    """The counts and witnesses of one suite run; equal when every field is, and unhashable, as it mutates.

    arity, classes, labelled and reruns say how a class sweep covered its
    labelled tuples of ``arity`` spaces: how many class tuples stood for how
    many labelled ones, and how many labelled tuples ran again after a
    failure.  They are not part of the payload.
    """

    def __init__(self, suite: str, parameters: dict):
        super().__init__(
            suite=suite, parameters=parameters, checked=0, passed=0, failed=0, witnesses=[], wall_time_s=0.0,
            arity=0, classes=0, labelled=0, reruns=0,
        )

    def add(self, results: Iterable[tuple[int, int, Sequence[dict]]]) -> None:
        """Fold (checks, failed checks, witnesses) triples into the totals, witnesses in order."""
        for checked, failed, witnesses in results:
            self.checked += checked
            self.passed += checked - failed
            self.failed += failed
            self.witnesses.extend(witnesses)

    def record(self, ok: bool, witness: dict) -> None:
        """One check, and ``witness`` when it fails."""
        self.add([(1, 0, ())] if ok else [(1, 1, (witness,))])

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
    bound, why = SUITES[name].max_n, SUITES[name].why
    if max_n > bound:
        raise SizeLimitExceeded(f"{name} {why}; max_n {max_n} is over {bound}")


def check_request(names: Sequence[str], max_n: int, jobs: int = 1) -> None:
    """Refuse unknown suites, max_n or jobs below 1, and a max_n over any selected suite's bound."""
    for name in names:
        if name not in SUITES:
            raise TopolabError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
        _check_max_n(name, max_n)
    if jobs < 1:
        raise TopolabError(f"jobs must be at least 1, got {jobs}")


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """``fn`` over ``items`` in order, on at most jobs, len(items) and os.cpu_count() workers."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    from multiprocessing import Pool  # imported here, so a run without workers leaves multiprocessing unloaded

    with Pool(workers) as pool:
        return pool.map(fn, items)


def _orbits(report: RunReport, max_n: int) -> list[list[tuple[int, int, FiniteSpace]]]:
    """The orbits of each n <= max_n, as (n, corpus index, space) lists, checking their sizes into ``report``."""
    classes = []
    for n in range(1, max_n + 1):
        orbits = [[(n, i, space) for i, space in members] for _, members in homeomorphism_classes(n)]
        found = sorted(i for orbit in orbits for _, i, _ in orbit)
        if found != list(range(ORBIT_SUMS[n - 1])):
            witness = {"kind": "orbit-weights", "n": n, "found": len(found), "expected": ORBIT_SUMS[n - 1]}
            report.add([(1, 1, [witness])])
        classes += orbits
    return classes


def _class_sweep(report: RunReport, check: Callable, groups: Sequence[tuple], jobs: int) -> RunReport:
    """Fold into ``report`` the checks of ``check`` over every labelled tuple of each group's orbit product.

    A group is a tuple of orbits.  ``check`` maps a tuple of (n, i, space),
    one per orbit, to (checks, failed checks, witnesses), and is invariant
    under relabelling each space.  It runs once on the orbits' first
    members, and its checks count once per labelled tuple of the product.
    A group with a failure is run again on every labelled tuple of its
    product, and those results are added in labelled order, so the report
    is the labelled sweep's.
    """
    results = _pmap(check, [tuple(orbit[0] for orbit in group) for group in groups], jobs)
    sizes = [prod(map(len, group)) for group in groups]
    report.add((checked * size, 0, ()) for size, (checked, failed, _) in zip(sizes, results) if not failed)
    failing = [args for group, (_, failed, _) in zip(groups, results) if failed for args in product(*group)]
    failing.sort(key=lambda args: [space[:2] for space in args])  # (n, i) of each space: the labelled order
    report.add(_pmap(check, failing, jobs))
    report.arity, report.classes, report.labelled, report.reruns = len(groups[0]), len(groups), sum(sizes), len(failing)
    return report


def _pair_suite(name: str, pair: Callable, max_n: int, jobs: int) -> RunReport:
    """Suite ``name``'s report: ``pair`` over every labelled (X, Y) on at most max_n points, by class pair."""
    _check_max_n(name, max_n)
    report = RunReport(name, {"max_n": max_n})
    classes = _orbits(report, max_n)
    return _class_sweep(report, pair, [(cx, cy) for cx in classes for cy in classes], jobs)


# ---------------------------------------------------------------- inclusion

class _Codomain(NamedTuple):
    """What ``_inclusion_pair`` reads of Y, built once per Y in a run (``_codomain``).

    ``near``, ``miss_at`` and ``hit_at`` are indexed by image mask: entry
    img is about the hyperpoint at position img − 1 of ``compacts(y)``, as
    in ``FunctionSpace.images``.
    """

    hyper: FiniteSpace  # the Vietoris topology on compacts(y), over the positions
    near: tuple[int, ...]  # near[img]: the Vietoris neighbourhood of img's hyperpoint, as image-mask bits
    avoids: tuple[int, ...]  # Y ∖ F for each closed F of Y
    miss_at: tuple[tuple[int, ...], ...]  # miss_at[img]: the positions j of the closeds whose miss mask holds img
    hit_at: tuple[tuple[int, ...], ...]  # hit_at[img]: the positions j of the opens whose hit mask holds img
    exact: bool  # compacts(y) is in mask order and near agrees with its definition, so miss_at and hit_at do (``_codomain``)


def _codomain(y: FiniteSpace, memo: dict | None = None) -> _Codomain:
    """Y's side of the inclusion checks: the Vietoris topology and the miss and hit index masks over ``compacts(y)``.

    The index masks are stored per hyperpoint: entry k + 1 of ``miss_at``
    and ``hit_at`` lists the closeds F with c ∩ F = ∅ and the opens O with
    c ∩ O ≠ ∅, c = compacts(y)[k], so both read the listing.  ``exact`` is
    decided by brute force from Y's U_y and the image masks v, not the
    listing: it holds when ``compacts(y)`` lists the non-empty subsets in
    mask order, and for every image v, near[v] holds exactly the u ⊆
    hull(v) that meet U_p for each p ∈ v.  In mask order c = v at entry v,
    so miss_at[v] and hit_at[v] are then the closeds v misses and the opens
    v meets by their construction.  A run keeps each Y's side in ``memo``,
    a new one per run; without one it is built on each call.
    """
    if memo is not None and y in memo:
        return memo[y]
    ky = compacts(y)
    hyper = vietoris(y, ky).topology
    near = (0, *(u << 1 for u in hyper.min_nbhds))
    miss_at = ((), *(tuple(j for j, fmask in enumerate(y.closeds) if not c & fmask) for c in ky))
    hit_at = ((), *(tuple(j for j, o in enumerate(y.opens) if c & o) for c in ky))
    images = range(1, 1 << y.n)

    def agrees(v: int) -> bool:  # near at image v, against its definition
        nbhds = [y.min_nbhds[p] for p in iter_bits(v)]
        hull = reduce(or_, nbhds)
        return near[v] == sum(1 << u for u in images if not u & ~hull and all(u & w for w in nbhds))

    exact = ky == tuple(images) and all(map(agrees, images))
    side = _Codomain(hyper, near, tuple(complement(fmask, y.n) for fmask in y.closeds), miss_at, hit_at, exact)
    if memo is not None:
        memo[y] = side
    return side


def _continuous_along(groups: dict[int, int], near: Sequence[int], mins: Sequence[int]) -> bool:
    """f ↦ f(a) is continuous into the hyperspace whose neighbourhoods are ``near``, one test per image group.

    ``groups`` maps each value v to the mask of the maps f ↦ v, and
    ``pushed_edges`` gives, per v, the mask of the values u of the edges
    v → u pushed forward.  The coordinate is continuous when every such u
    lies in U_v, that is, when no reached value lies outside near[v].
    """
    return all(not reached & ~near[v] for v, reached in pushed_edges(groups, mins))


def _singletons_continuous(fsp, near: Sequence[int]) -> bool:
    """f ↦ f({x}) is continuous for every point x of the domain (``_continuous_along`` on the singleton tables)."""
    mins = fsp.min_nbhds
    return all(_continuous_along(fsp._table(1 << x), near, mins) for x in range(fsp.dom.n))


def _preimages(table: dict[int, int], at: Sequence[tuple[int, ...]], count: int) -> list[int]:
    """Per set j of ``count``, the union of the masks of the entries img of ``table`` with j in at[img]."""
    out = [0] * count
    for img, m in table.items():
        for j in at[img]:
            out[j] |= m
    return out


def _inclusion_pair(args, codomains: dict | None = None) -> tuple[int, int, list]:
    """Hit-and-miss identities and Vietoris openness of the maps f ↦ f(a).

    Y's side, the Vietoris topology and the miss and hit index masks over
    compacts(y), comes from ``_codomain``, kept in ``codomains`` if given.
    For each compact a the image table ``fsp._table(a)`` gives one function
    mask per image, and every preimage is a union of them: a pass over the
    entries adds each mask to the preimages of every open set its
    hyperpoint meets, and one more to those of every closed set it misses.
    The right-hand routes are ``fsp.subbasic(a, Y ∖ F)`` for the miss
    identity and the union of the singleton subbasic sets over a for the
    hit identity, grown over the subsets b of X in mask order from b − x,
    x the lowest point of b.

    Once per pair, two preconditions decide the miss identity and the
    continuity of every f ↦ f(a) for all compacts a at once (README,
    "Notes on definitions"): Y's side is ``exact``, and every f ↦ f({x})
    is continuous (``_singletons_continuous``).  Then every g ∈ U_f has
    g(x) ∈ U_{f(x)}, so g(a) ⊆ hull f(a) and g(a) meets U_y for each
    y ∈ f(a): g(a) is Vietoris-near f(a).  And the two sides of the miss
    identity are unions over the same entries of ``_table(a)``, tested by
    miss_at[img] and by img ⊆ Y ∖ F, which exactness makes one test.  The
    hit identity, the check of the table recurrence against the singleton
    tables, is computed for each compact.

    A pair without both preconditions, or a compact whose hit identity
    fails, takes the per-compact route: the map into the Vietoris
    hyperspace is continuous when every edge it pushes forward lies in the
    Vietoris preorder (``_continuous_along``), tested per image group.
    When it holds, every Vietoris open, the miss and hit index masks (the
    Vietoris subbase) among them, pulls back to an open.  The Vietoris
    opens are counted, and listed one by one only to name the witnesses
    when continuity fails.  Each witness is one failed check; a compact
    whose identities hold and whose map is continuous adds none, and the
    rest are checked set by set, in the order of the witnesses.
    """
    (nx, xi, x), (ny, yi, y) = args
    witnesses: list = []
    fsp = compact_open(x, y)
    side = _codomain(y, codomains)
    mins = fsp.min_nbhds
    subbasic = fsp.subbasic
    closeds, opens, avoids, miss_at, hit_at = y.closeds, y.opens, side.avoids, side.miss_at, side.hit_at
    by_point = [list(map(subbasic, repeat(1 << pt, len(opens)), opens)) for pt in range(x.n)]
    hit_rhs = [[0] * len(opens)]  # hit_rhs[a]: the union of by_point[pt] over pt ∈ a, per open
    for b in range(1, 1 << x.n):
        hit_rhs.append(list(map(or_, hit_rhs[b & b - 1], by_point[(b & -b).bit_length() - 1])))
    compacts_x = compacts(x)
    implied = side.exact and _singletons_continuous(fsp, side.near)

    def tag(kind: str, **extra) -> dict:
        base = {"x": (nx, xi), "y": (ny, yi), "kind": kind}
        base.update(extra)
        return base

    for a in compacts_x:
        table = fsp._table(a)
        lhs_hit, rhs_hit = _preimages(table, hit_at, len(opens)), hit_rhs[a]
        if implied and lhs_hit == rhs_hit:
            continue
        lhs_miss = _preimages(table, miss_at, len(closeds))
        rhs_miss = list(map(subbasic, repeat(a, len(avoids)), avoids))
        continuous = _continuous_along(table, side.near, mins)
        if continuous and lhs_miss == rhs_miss and lhs_hit == rhs_hit:
            continue
        a_points = points_of(a)
        for fmask, lhs, rhs in zip(closeds, lhs_miss, rhs_miss):
            if lhs != rhs:
                witnesses.append(tag("miss-identity", a=a_points, closed=points_of(fmask)))
            if not (continuous or fsp.is_open(lhs)):
                witnesses.append(tag("miss-preimage-not-open", a=a_points, closed=points_of(fmask)))
        for o, lhs, rhs in zip(opens, lhs_hit, rhs_hit):
            if lhs != rhs:
                witnesses.append(tag("hit-identity", a=a_points, open=points_of(o)))
            if not (continuous or fsp.is_open(lhs)):
                witnesses.append(tag("hit-preimage-not-open", a=a_points, open=points_of(o)))
        if continuous:
            continue
        for ovm in side.hyper.opens:
            if not fsp.is_open(sum(m for img, m in table.items() if ovm >> img - 1 & 1)):
                witnesses.append(
                    tag("vietoris-open-preimage-not-open", a=a_points, hyper_open=list(iter_bits(ovm)))
                )
    checked = len(compacts_x) * (2 * len(closeds) + 2 * len(opens) + side.hyper.open_count)
    return checked, len(witnesses), witnesses


def suite_vietoris_inclusion(max_n: int = 3, jobs: int = 1) -> RunReport:
    return _pair_suite("vietoris-inclusion", partial(_inclusion_pair, codomains={}), max_n, jobs)


# ---------------------------------------------------------------- embedding

def _embedding_pair(args) -> tuple[int, int, list]:
    """(checks, failed checks, witnesses): three flags, one witness per failing pair.

    The flags are ``mu_embedding_report``'s on the continuous maps and the
    non-empty subsets of X, read off the space on their image tuples, so no
    map is built.
    """
    (nx, xi, x), (ny, yi, y) = args
    fam = tuple(range(1, 1 << x.n))
    rep = _embedding_report(_function_space(x, y, _continuous_images(x, y), fam))
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
    return _pair_suite("embedding", _embedding_pair, max_n, jobs)


# ------------------------------------------------------------ finality square

def suite_finality_square(max_y: int = 3) -> RunReport:
    _check_max_n("finality-square", max_y)
    report = RunReport("finality-square", {"max_y": max_y})
    for y_n in range(1, max_y + 1):
        rep = check_finality_discrete_square(y_n)
        computed, expected = set(rep.computed.opens), set(rep.expected.opens)
        report.record(
            rep.equal,
            {
                "kind": "finality-square",
                "y_n": y_n,
                "final_only_opens": sorted(computed - expected)[:4],
                "vietoris_only_opens": sorted(expected - computed)[:4],
            },
        )
        if y_n >= 2:
            report.record(rep.expected_is_discrete, {"kind": "vietoris-not-discrete", "y_n": y_n})
    return report


# --------------------------------------------------------------- choice lemma

def _choice_space(args) -> tuple[int, int, list]:
    """(checks, failed checks, witnesses) of one space, given as the 1-tuple ((n, corpus index, space),)."""
    ((n, si, space),) = args
    checked = 0
    witnesses: list = []
    carrier = subsets_carrier(n)
    for ui, phi in enumerate(enumerate_ultrafilters(carrier)):
        checked += 1
        if not check_lower_convergence_lemma(space, phi):
            witnesses.append({"kind": "lower-convergence", "n": n, "space": si, "ultrafilter": ui})
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
    return checked, len(witnesses), witnesses


def suite_choice_lemma(max_n: int = 3, jobs: int = 1) -> RunReport:
    """Every space on n <= max_n points by class, plus at max_n 3 the deterministic 4-point sample.

    The sample takes every N4_SPACE_STRIDE-th topology of the 355-space
    corpus, each as an orbit of its own, with all 15 ultrafilters; at
    max_n 4 every 4-point class is swept instead.
    """
    _check_max_n("choice-lemma", max_n)
    report = RunReport("choice-lemma", {"max_n": max_n, "n4_sample": max_n == 3})
    groups = [(orbit,) for orbit in _orbits(report, max_n)]
    if max_n == 3:
        groups += [([(4, i, space)],) for i, space in enumerate(enumerate_topologies(4)) if i % N4_SPACE_STRIDE == 0]
    return _class_sweep(report, _choice_space, groups, jobs)


# ------------------------------------------------------------------- harness

class Suite(NamedTuple):
    run: Callable[[int, int], RunReport]  # (max_n, jobs) -> the suite's report
    max_n: int  # the largest max_n
    why: str  # the reason for that bound


# The runners call the suite functions by their module names, so a patched or wrapped suite function is the one run.
SUITES = {
    "vietoris-inclusion": Suite(
        lambda max_n, jobs: suite_vietoris_inclusion(max_n, jobs), 5, "sweeps the homeomorphism classes of n <= 5"
    ),
    "embedding": Suite(lambda max_n, jobs: suite_embedding(max_n, jobs), 5, "sweeps the homeomorphism classes of n <= 5"),
    "finality-square": Suite(lambda max_n, jobs: suite_finality_square(max_n), 3, "checks y <= 3"),
    "choice-lemma": Suite(
        lambda max_n, jobs: suite_choice_lemma(max_n, jobs),
        4,
        "enumerates choice functions on at most 4 points",
    ),
}
SUITE_NAMES = tuple(SUITES)


def _fault_self_test(report: RunReport, max_n: int) -> None:
    """Flip one open set in the first corpus topology and expect detection."""
    first = next(iter(enumerate_topologies(min(max_n, 2))))
    mangled = [o for o in first.opens if o != first.full]
    try:
        make_space(first.n, mangled)
    except NotATopology as exc:
        witness = {
            "kind": "injected-fault",
            "space": {"n": first.n, "opens": [list(points_of(o)) for o in mangled]},
            "violated_axiom": exc.axiom,
            "axiom_witness": exc.witness,
        }
    else:  # validation failed to notice the flip: that is itself a failure
        witness = {"kind": "injected-fault-not-detected"}
    report.add([(1, 1, [witness])])


def run_suite(
    name: str,
    max_n: int = 3,
    jobs: int = 1,
    inject_fault: bool = False,
) -> RunReport:
    check_request([name], max_n, jobs)
    start = time.perf_counter()
    report = SUITES[name].run(max_n, jobs)
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

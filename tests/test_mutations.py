"""Committed mutants that a suite must catch.

Each row of ``MUTANTS`` patches one kernel of the library and names the
suite and the max-n whose ``verify`` run must then exit 1 with a witness,
within a time bound (mutation testing after DeMillo, Lipton and Sayward
1978, "Hints on test data selection", Computer 11).  A mutant caught by
two suites has a row for each; ``orbit-weight-one-more`` is caught by both
pair suites and by ``choice-lemma``, whose orbits of n points must cover
the corpus indices 0 .. T(n) − 1 once each.  A mutant that no suite
catches is a finding: either a check is missing, or the mutant is
equivalent to the kernel and README should say why.

Known survivors, pinned in ``SURVIVORS`` with their check counts:

* the ``embedding`` suite passes all 3468 checks at max-n 3 under the box
  mutant, since it reads no box: its family holds the singletons, so
  P_f = U_f, and continuity and openness come from that theorem, and
  injectivity from the distinct image tuples;
* it passes them under ``points-on-the-next-map`` too: it reads no box,
  the image tuples are not the point table, and the continuity mask is
  the full mask moved by one map, so no map is refused;
* ``vietoris-inclusion`` passes under ``vietoris-as-lower``, with 0
  failures: only its check count moves, 988 → 923 at max-n 2 and
  242352 → 163944 at max-n 3, as it counts the opens of a coarser target.
  A coarser target keeps every f ↦ f(A) continuous, so the suite cannot
  see a topology that is too coarse (ROADMAP item 4);
* ``finality-square`` passes under ``hull-without-last-point``: on a
  discrete Y every U_a is {a}, so the mutant equals the kernel there;
* every suite passes under ``final-from-edges-without-closure``.  Only
  ``finality-square`` builds a final topology, and on its discrete Y every
  pushed edge f(A) → g(A) is a loop, so there is nothing to close;
* every suite passes under ``continuous-along-always-true``, where
  ``pushed_edges`` yields no group's reach to ``suites._continuous_along``:
  it is equivalent to the kernel on a correct library.  The once-per-pair
  test of the singleton coordinates reads the point table, not
  ``pushed_edges``, so the mutant reaches only the compact-by-compact
  route, which a correct library takes on no pair.  With that route
  forced (``per_compact_route``), every f ↦ f(a) from the compact-open
  space into the Vietoris hyperspace is continuous, so the Vietoris opens
  that the mutant skips all pull back to opens, and the suite counts them
  either way;
* ``finality-square`` passes under ``compacts-one-place-on``: on its
  discrete Y the final and the Vietoris topology on the compacts are both
  discrete, and a discrete space relabelled is itself.  ``embedding`` and
  ``choice-lemma`` read no ``compacts`` listing at all;
* ``finality-square`` passes under ``discrete-sources-read-the-smallest``,
  where ``final_from_discrete_sources`` keeps only its smallest source: on
  a discrete Y every source size pushes only loops.  The comparison of the
  route with the source-by-source oracle in ``test_finality`` catches it;

Before and after each run the caches of results built from the kernels
(``CACHES``) are emptied, so the kernel's results do not serve the mutant
and the mutant's do not outlive it.  The memo of each Y's side of the
inclusion checks is no cache of the list: each ``vietoris-inclusion`` run
makes a new one, the ``codomains`` keyword of the ``functools.partial`` of
``suites._inclusion_pair`` that it sweeps.  The class sweep re-runs every
failing class on its labelled orbit, so ``choice-lemma`` gives the labelled
sweep's report under both choice mutants too.

``per_compact_route`` makes the box theorem's two preconditions of the
inclusion shortcut false, so every compact of every pair is checked one
by one, its hit identity included; under it the
``vietoris-inclusion`` reports of the kernel and of every row that names
that suite keep their bytes.
"""

import json
import time
from functools import cached_property, reduce
from operator import and_, or_

import pytest

import test_finality
from oracles import assert_same_report, labelled_sweep
from topolab import choice, cli, filters, finality, funcspaces, hyperspaces, spaces, suites
from topolab.bitsets import full_mask, iter_bits
from topolab.cli import main
from topolab.filters import FilterOnCarrier
from topolab.funcspaces import FunctionSpace
from topolab.hyperspaces import HyperSpace
from topolab.spaces import FiniteSpace

# the memos of results built from the kernels; the enumerations read no kernel a mutant patches
CACHES = (funcspaces._function_space, hyperspaces._hyperspace, choice._kernel_images)


def _box_without_last_coordinate(monkeypatch):
    """``FunctionSpace.min_nbhds`` pulls back over every kept slot but the last."""
    monkeypatch.setattr(FunctionSpace, "min_nbhds", property(lambda fs: fs._pull_back(fs._kept[:-1], lower=False)))


def _points_on_the_next_map(monkeypatch):
    """``FunctionSpace._points`` records f(x) = y on the map after f, and the last map's value on the first.

    Every column stays a partition of the carrier, but the point table no
    longer agrees with the image columns that the box looks values up by.
    """
    real = FunctionSpace._points.func

    def mutant(fs):
        full, last = full_mask(fs.size), fs.size - 1
        return tuple(tuple((m << 1 | m >> last) & full for m in row) for row in real(fs)) if fs.size else real(fs)

    table = cached_property(mutant)
    table.__set_name__(FunctionSpace, "_points")
    monkeypatch.setattr(FunctionSpace, "_points", table)


def _vietoris_as_lower(monkeypatch):
    """``_hyperspace`` hands out its lower topology as the Vietoris one."""
    real = hyperspaces._hyperspace

    def mutant(space, family):
        lower, upper, _ = real(space, family)
        return lower, upper, lower

    monkeypatch.setattr(hyperspaces, "_hyperspace", mutant)


def _hull_without_last_point(monkeypatch):
    """``_hyperspace`` takes the hull of A without U_a for the last point a of A, keeping a itself.

    The upper and Vietoris neighbourhoods shrink, so the mutant's topologies
    are finer than the kernel's, except on a discrete base.
    """
    real = hyperspaces._hyperspace

    def mutant(space, family):
        lower, _, _ = real(space, family)
        fam, mins = lower.family, space.min_nbhds

        def hull(a):
            last = 1 << a.bit_length() - 1
            return reduce(or_, (mins[x] for x in iter_bits(a ^ last)), last)

        upper = tuple(sum(1 << j for j, b in enumerate(fam) if b & ~hull(a) == 0) for a in fam)
        both = tuple(map(and_, lower.topology.min_nbhds, upper))
        return (
            lower,
            HyperSpace(space, fam, FiniteSpace(len(fam), upper), "upper"),
            HyperSpace(space, fam, FiniteSpace(len(fam), both), "vietoris"),
        )

    monkeypatch.setattr(hyperspaces, "_hyperspace", mutant)


def _converges_reversed(monkeypatch):
    """``converges`` asks U_x ⊆ kernel instead of kernel ⊆ U_x, in every module that reads it."""

    def mutant(space, filt, x):
        if filt.carrier.size != space.n:
            raise ValueError("filter carrier does not index the space's points")
        return space.min_nbhds[x] & ~filt.kernel == 0

    for module in (filters, choice, hyperspaces):
        monkeypatch.setattr(module, "converges", mutant)


def _limit_set_reads_the_next_subset(monkeypatch):
    """``limit_set_P`` reads each map's value on subset i + 1 (mod 2^n − 1) for a kernel index i; only ``choice`` reads it."""
    real = choice.limit_set_P

    def mutant(space, phi):
        size = phi.carrier.size
        return real(space, FilterOnCarrier(phi.carrier, sum(1 << (i + 1) % size for i in iter_bits(phi.kernel))))

    monkeypatch.setattr(choice, "limit_set_P", mutant)


def _compacts_one_place_on(monkeypatch):
    """``compacts`` lists the last subset first, so compact k sits at position k, not k − 1, in every module that reads it."""
    real = hyperspaces.compacts

    def mutant(space):
        family = real(space)
        return family[-1:] + family[:-1]

    for module in (hyperspaces, funcspaces, finality, suites, cli):
        monkeypatch.setattr(module, "compacts", mutant)


def _orbit_weight_one_more(monkeypatch):
    """``homeomorphism_classes`` lists the first member of each size's last class twice, so that orbit weighs one more."""
    real = spaces.homeomorphism_classes

    def mutant(n):
        classes = real(n)
        rep, members = classes[-1]
        return classes[:-1] + ((rep, members + members[:1]),)

    for module in (spaces, suites):
        monkeypatch.setattr(module, "homeomorphism_classes", mutant)


def _final_from_edges_without_closure(monkeypatch):
    """``final_from_edges`` adds the loops and the edges but skips Warshall's transitive closure, in every module that reads it."""

    def mutant(n, edges):
        reach = [1 << x for x in range(n)]
        for a, b in edges:
            reach[a] |= 1 << b
        return FiniteSpace(n, tuple(reach))

    for module in (spaces, finality):
        monkeypatch.setattr(module, "final_from_edges", mutant)


def _continuous_along_always_true(monkeypatch):
    """``suites._continuous_along`` reads no group's reach from ``pushed_edges``, so every coordinate counts as continuous."""
    monkeypatch.setattr(suites, "pushed_edges", lambda groups, mins: iter(()))


def _discrete_sources_read_the_smallest(monkeypatch):
    """``finality.final_from_discrete_sources`` keeps only its smallest source, so a larger one pushes no edge."""
    real = finality.final_from_discrete_sources

    def mutant(cod, z_n, source_masks):
        return real(cod, z_n, sorted(source_masks, key=int.bit_count)[:1])

    monkeypatch.setattr(finality, "final_from_discrete_sources", mutant)


# (name, patch, suite, max_n, seconds)
MUTANTS = [
    ("box-without-last-coordinate", _box_without_last_coordinate, "vietoris-inclusion", 2, 30),
    ("points-on-the-next-map", _points_on_the_next_map, "vietoris-inclusion", 2, 30),
    ("vietoris-as-lower", _vietoris_as_lower, "finality-square", 2, 30),
    ("hull-without-last-point", _hull_without_last_point, "vietoris-inclusion", 2, 30),
    ("converges-reversed", _converges_reversed, "choice-lemma", 2, 30),
    ("limit-set-reads-the-next-subset", _limit_set_reads_the_next_subset, "choice-lemma", 2, 30),
    ("compacts-one-place-on", _compacts_one_place_on, "vietoris-inclusion", 2, 30),
    ("orbit-weight-one-more", _orbit_weight_one_more, "vietoris-inclusion", 2, 30),
    ("orbit-weight-one-more", _orbit_weight_one_more, "embedding", 3, 30),
    ("orbit-weight-one-more", _orbit_weight_one_more, "choice-lemma", 2, 30),
]

# (name, patch, suite, max_n, checks): mutants the suite cannot see, with its check count under them
SURVIVORS = [
    ("box-without-last-coordinate", _box_without_last_coordinate, "embedding", 3, 3468),
    ("points-on-the-next-map", _points_on_the_next_map, "embedding", 3, 3468),
    ("vietoris-as-lower", _vietoris_as_lower, "vietoris-inclusion", 2, 923),
    ("hull-without-last-point", _hull_without_last_point, "finality-square", 3, 5),
    ("final-from-edges-without-closure", _final_from_edges_without_closure, "finality-square", 3, 5),
    ("continuous-along-always-true", _continuous_along_always_true, "vietoris-inclusion", 2, 988),
    ("compacts-one-place-on", _compacts_one_place_on, "finality-square", 3, 5),
    ("discrete-sources-read-the-smallest", _discrete_sources_read_the_smallest, "finality-square", 3, 5),
]


def per_compact_route(monkeypatch):
    """Make the box theorem's two preconditions false, so every compact of every pair takes the per-compact route."""
    real = suites._codomain
    monkeypatch.setattr(suites, "_codomain", lambda y, memo=None: real(y, memo)._replace(exact=False))
    monkeypatch.setattr(suites, "_singletons_continuous", lambda fsp, near: False)


@pytest.fixture
def cold_caches():
    """Empty ``CACHES`` before and after the test, so no kernel result serves a mutant and no mutant result outlives it."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def _verify(patch, suite, max_n, monkeypatch, tmp_path) -> tuple[int, dict]:
    patch(monkeypatch)
    report = tmp_path / "report.json"
    code = main(["verify", "--suite", suite, "--max-n", str(max_n), "--report", str(report)])
    return code, json.loads(report.read_text())


# a mutant caught by more than one suite is named with the suite
MUTANT_IDS = [row[0] if [r[0] for r in MUTANTS].count(row[0]) == 1 else f"{row[0]}-{row[2]}" for row in MUTANTS]


@pytest.mark.parametrize("name, patch, suite, max_n, seconds", MUTANTS, ids=MUTANT_IDS)
def test_mutant_is_caught(name, patch, suite, max_n, seconds, monkeypatch, tmp_path, capsys, cold_caches):
    start = time.perf_counter()
    code, data = _verify(patch, suite, max_n, monkeypatch, tmp_path)
    assert time.perf_counter() - start < seconds
    assert code == 1, name
    assert "Traceback" not in capsys.readouterr().err
    assert data["totals"]["failed"] > 0 and data["witnesses"], name


@pytest.mark.parametrize("name, patch, suite, max_n, checks", SURVIVORS, ids=[f"{row[0]}-{row[2]}" for row in SURVIVORS])
def test_known_survivor_passes(name, patch, suite, max_n, checks, monkeypatch, tmp_path, cold_caches):
    code, data = _verify(patch, suite, max_n, monkeypatch, tmp_path)
    assert code == 0, name
    assert data["totals"] == {"checked": checks, "failed": 0, "passed": checks}


# the vietoris-inclusion rows, and the kernel as a survivor with its check counts at max-n 2 and 3
INCLUSION_ROWS = [(row[0], row[1], None) for row in MUTANTS if row[2] == "vietoris-inclusion"]
INCLUSION_ROWS += [(row[0], row[1], {row[3]: row[4]}) for row in SURVIVORS if row[2] == "vietoris-inclusion"]
INCLUSION_ROWS += [("kernel", lambda monkeypatch: None, {2: 988, 3: 242352})]


@pytest.mark.parametrize("max_n", [2, 3])
@pytest.mark.parametrize("name, patch, pinned", INCLUSION_ROWS, ids=[row[0] for row in INCLUSION_ROWS])
def test_the_inclusion_shortcut_gives_the_per_compact_bytes(name, patch, pinned, max_n, monkeypatch, cold_caches):
    # with its preconditions forced false, every compact takes the per-compact route: the report payload,
    # whose canonical JSON is the report file, must not move, nor must the failures that set the exit code,
    # and a survivor keeps its pinned count
    payloads = []
    for route in (patch, per_compact_route):  # the second run keeps the mutant patched
        route(monkeypatch)
        report = suites.run_suite("vietoris-inclusion", max_n=max_n)
        report.wall_time_s = 0.0
        payloads.append(report.to_dict())
    assert payloads[0] == payloads[1], name
    if pinned is None:
        assert report.failed > 0 and report.witnesses, name
    else:
        assert report.failed == 0, name
        if max_n in pinned:
            assert report.checked == pinned[max_n], name


def test_the_discrete_sources_oracle_catches_the_smallest_source(monkeypatch, corpus3):
    # the survivor of finality-square fails the route's comparison with the source-by-source scan
    _discrete_sources_read_the_smallest(monkeypatch)
    with pytest.raises(AssertionError):
        test_finality.assert_route_matches_the_per_source_loop(corpus3)


def test_orbit_weights_witness_leaves_the_sweep_as_it_was(monkeypatch):
    # each duplicated member weighs its class one more, as before, and one failed check names its size
    _orbit_weight_one_more(monkeypatch)
    # under choice-lemma the duplicated 1- and 2-point members add their 3 and 21 checks
    for suite, checked in (("vietoris-inclusion", 1632), ("choice-lemma", 87 + 3 + 21)):
        report = suites.run_suite(suite, max_n=2)
        assert (report.checked, report.failed) == (checked + 2, 2), suite
        assert report.witnesses == [
            {"kind": "orbit-weights", "n": 1, "found": 2, "expected": 1},
            {"kind": "orbit-weights", "n": 2, "found": 5, "expected": 4},
        ]


@pytest.mark.parametrize(
    "name, patch, failed",
    [("converges-reversed", _converges_reversed, 392), ("limit-set-reads-the-next-subset", _limit_set_reads_the_next_subset, 1780)],
    ids=["converges-reversed", "limit-set-reads-the-next-subset"],
)
def test_choice_lemma_mutant_gives_the_labelled_bytes(name, patch, failed, monkeypatch, cold_caches):
    # every failing class is re-run on its labelled orbit, so the report is the labelled sweep's
    patch(monkeypatch)
    report = suites.run_suite("choice-lemma", max_n=3)
    assert report.failed == failed, name
    assert_same_report(report, labelled_sweep("choice-lemma", 3))


def test_the_codomain_memo_lives_for_one_run(monkeypatch):
    # a run of the kernel, then one of a mutant: each run checks its pairs with a new, empty memo
    runs = []
    real = suites._class_sweep

    def sweep(report, check, groups, jobs):
        runs.append((check, dict(check.keywords["codomains"])))
        return real(report, check, groups, jobs)

    monkeypatch.setattr(suites, "_class_sweep", sweep)
    hyperspaces._hyperspace.cache_clear()
    assert suites.run_suite("vietoris-inclusion", max_n=2).failed == 0
    _hull_without_last_point(monkeypatch)
    assert suites.run_suite("vietoris-inclusion", max_n=2).failed == 62
    (first, at_first), (second, at_second) = runs
    assert first is not second and at_first == at_second == {}
    assert len(first.keywords["codomains"]) == 4  # the Y classes of n <= 2

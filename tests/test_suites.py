import json
import random
from collections import Counter

import pytest

from oracles import (
    assert_same_report,
    canonical_form_by_relabelling,
    inclusion_pair_by_scan,
    labelled_sweep,
    relabel_by_opens,
)
from test_mutations import MUTANTS, SURVIVORS, cold_caches, per_compact_route  # noqa: F401 (a fixture)
from topolab import choice, suites
from topolab.cli import main
from topolab.fileio import dumps_canonical
from topolab.bitsets import full_mask
from topolab.errors import SizeLimitExceeded, TopolabError
from topolab.funcspaces import FunctionSpace, MuEmbeddingReport, compact_open
from topolab.hyperspaces import HyperSpace, compacts, vietoris
from topolab.spaces import discrete_space, enumerate_topologies, homeomorphism_classes, sierpinski_space


# the caught mutants under which the inclusion shortcut's soundness is checked
SHORTCUT_MUTANTS = ("box-without-last-coordinate", "points-on-the-next-map", "hull-without-last-point", "compacts-one-place-on")

# 4-point class pairs (X, Y) by position in homeomorphism_classes(4): X runs from the discrete
# space (class 0) to the indiscrete one (class 32), and each Y has at most 648 Vietoris opens
FOUR_POINT_CLASS_PAIRS = ((0, 26), (7, 5), (20, 12), (32, 2), (3, 8), (12, 20))


def _class_pairs():
    """The 169 pairs of class representatives with at most 3 points, then the 4-point class pairs."""

    def rep(n, k):
        i, space = homeomorphism_classes(n)[k][1][0]
        return n, i, space

    reps = [rep(n, k) for n in (1, 2, 3) for k in range(len(homeomorphism_classes(n)))]
    return [(sx, sy) for sx in reps for sy in reps] + [(rep(4, kx), rep(4, ky)) for kx, ky in FOUR_POINT_CLASS_PAIRS]


def _class_members(max_n):
    """The first member of each homeomorphism class on at most max_n points."""
    return [members[0][1] for n in range(1, max_n + 1) for _, members in homeomorphism_classes(n)]


class TestInclusionPair:
    def test_matches_the_per_open_scan(self):
        pairs = _class_pairs()
        assert len(pairs) == 169 + len(FOUR_POINT_CLASS_PAIRS)
        for args in pairs:
            assert suites._inclusion_pair(args) == inclusion_pair_by_scan(args)

    @pytest.mark.parametrize("coarsen", ["indiscrete", "merge-next"])
    def test_failed_continuity_gives_the_scan_witnesses(self, monkeypatch, coarsen):
        # coarser carrier neighbourhoods break the continuity of f -> f(a);
        # the witnesses must then be those of the per-open scan
        original = FunctionSpace.__dict__["min_nbhds"].func

        def coarse(fs):
            if coarsen == "indiscrete":
                return (full_mask(fs.size),) * fs.size
            return tuple(m | 1 << (i + 1) % fs.size for i, m in enumerate(original(fs)))

        monkeypatch.setattr(FunctionSpace, "min_nbhds", property(coarse))
        kinds = set()
        for args in _class_pairs():
            result = suites._inclusion_pair(args)
            assert result == inclusion_pair_by_scan(args)
            kinds |= {w["kind"] for w in result[2]}
        assert {"vietoris-open-preimage-not-open", "miss-preimage-not-open", "hit-preimage-not-open"} <= kinds

    def test_failed_identities_give_the_scan_witnesses(self, monkeypatch):
        # a subbasic set that loses its first function breaks both identities
        original = FunctionSpace.subbasic
        monkeypatch.setattr(FunctionSpace, "subbasic", lambda fs, a, w: original(fs, a, w) & ~1)
        kinds = set()
        for args in _class_pairs():
            result = suites._inclusion_pair(args)
            assert result == inclusion_pair_by_scan(args)
            kinds |= {w["kind"] for w in result[2]}
        assert {"miss-identity", "hit-identity"} <= kinds

    def test_a_fault_in_the_hit_route_alone_gives_the_scan_witnesses(self, monkeypatch):
        # singleton subbasic sets that lose their first function break the hit identity
        # on compacts of two or more points, whose miss identity still holds
        original = FunctionSpace.subbasic

        def lose_first(fs, a, w):
            return original(fs, a, w) & (~1 if a & a - 1 == 0 else -1)

        monkeypatch.setattr(FunctionSpace, "subbasic", lose_first)
        hit_alone = 0
        for args in _class_pairs():
            result = suites._inclusion_pair(args)
            assert result == inclusion_pair_by_scan(args)
            by_compact = Counter((tuple(w["a"]), w["kind"]) for w in result[2])
            hits = [a for a, kind in by_compact if kind == "hit-identity"]
            hit_alone += sum((a, "miss-identity") not in by_compact for a in hits)
        assert hit_alone > 0

    @pytest.mark.parametrize("coarsen", [None, "indiscrete", "merge-next"])
    def test_continuity_on_the_codomain_side_is_the_scan_verdict(self, monkeypatch, coarsen):
        # _continuous_along over the image tables and the memoized neighbourhoods of Y
        # holds exactly when every Vietoris open pulls back to an open
        if coarsen == "indiscrete":
            monkeypatch.setattr(FunctionSpace, "min_nbhds", property(lambda fs: (full_mask(fs.size),) * fs.size))
        elif coarsen == "merge-next":
            original = FunctionSpace.__dict__["min_nbhds"].func
            merged = property(lambda fs: tuple(m | 1 << (i + 1) % fs.size for i, m in enumerate(original(fs))))
            monkeypatch.setattr(FunctionSpace, "min_nbhds", merged)
        verdicts = Counter()
        for (_, _, x), (_, _, y) in _class_pairs():
            fsp, side = compact_open(x, y), suites._codomain(y)
            hyper = vietoris(y, compacts(y)).topology
            for a in compacts(x):
                table = fsp._table(a)
                scan = all(fsp.is_open(sum(m for img, m in table.items() if o >> img - 1 & 1)) for o in hyper.opens)
                assert suites._continuous_along(table, side.near, fsp.min_nbhds) == scan, (x, y, a)
                verdicts[scan] += 1
        assert verdicts[False] > 0 if coarsen else not verdicts[False]

    def test_the_shortcut_holds_on_the_kernel(self):
        # Y's side is exact on every class with n <= 5, and both preconditions hold on all 169 class pairs
        ys = _class_members(5)
        assert len(ys) == 185 and all(suites._codomain(y).exact for y in ys)
        for (_, _, x), (_, _, y) in _class_pairs()[:169]:
            assert suites._singletons_continuous(compact_open(x, y), suites._codomain(y).near), (x, y)

    @pytest.mark.parametrize("name", SHORTCUT_MUTANTS)
    def test_the_shortcut_is_sound_under_the_caught_mutants(self, name, monkeypatch, cold_caches):
        # whenever both preconditions hold for a class pair, the per-compact route finds no witness there
        dict((row[0], row[1]) for row in MUTANTS)[name](monkeypatch)
        held = []
        for args in _class_pairs()[:169]:
            (_, _, x), (_, _, y) = args
            side = suites._codomain(y)
            if side.exact and suites._singletons_continuous(compact_open(x, y), side.near):
                held.append(args)
        per_compact_route(monkeypatch)
        assert held and [suites._inclusion_pair(args)[1] for args in held] == [0] * len(held)

    @pytest.mark.parametrize(
        "name, exact",
        [
            ("hull-without-last-point", lambda y: y.min_nbhds == tuple(1 << p for p in range(y.n))),  # discrete
            ("vietoris-as-lower", lambda y: set(y.min_nbhds) == {y.full}),  # indiscrete
            ("compacts-one-place-on", lambda y: y.n == 1),
            ("box-without-last-coordinate", lambda y: True),
            ("points-on-the-next-map", lambda y: True),
        ],
        ids=["hull-without-last-point", "vietoris-as-lower", "compacts-one-place-on", "box", "points"],
    )
    def test_where_y_stays_exact_under_a_mutant(self, name, exact, monkeypatch, cold_caches):
        dict((row[0], row[1]) for row in MUTANTS + SURVIVORS)[name](monkeypatch)
        ys = _class_members(5)
        assert [suites._codomain(y).exact for y in ys] == list(map(exact, ys))


class TestRequestChecks:
    @staticmethod
    def fake_pool(monkeypatch, cpus: int) -> list:
        """Replace the worker pool by one that starts no process; returns the pool sizes asked for."""
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
        return started

    def test_pool_never_exceeds_the_items(self, monkeypatch):
        started = self.fake_pool(monkeypatch, cpus=64)
        assert suites._pmap(abs, [1, -2, 3], jobs=64) == [1, 2, 3]
        assert suites._pmap(abs, [1, -2, 3], jobs=2) == [1, 2, 3]
        assert started == [3, 2]

    def test_pool_never_exceeds_the_cpus(self, monkeypatch):
        started = self.fake_pool(monkeypatch, cpus=4)
        items = list(range(-20, 20))
        assert suites._pmap(abs, items, jobs=10**6) == [abs(i) for i in items]
        assert started == [4]

    def test_bounds_are_checked_before_any_suite_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(suites, "run_suite", lambda name, **kwargs: ran.append(name))
        with pytest.raises(SizeLimitExceeded, match="finality-square"):
            suites.run_suites(suites.SUITE_NAMES, max_n=4)
        assert ran == []

    @pytest.mark.parametrize("max_n,jobs", [(0, 1), (-1, 1), (3, 0), (3, -2)])
    def test_nonpositive_max_n_or_jobs_refused(self, max_n, jobs):
        for name in suites.SUITE_NAMES:
            with pytest.raises(TopolabError):
                suites.run_suite(name, max_n=max_n, jobs=jobs)

    def test_unknown_suite_refused(self):
        with pytest.raises(TopolabError, match="unknown suite"):
            suites.check_request(["embedding", "bogus"], 3)


# (suite, parameters, checks) of the canonical reports at --max-n 3
PINNED_REPORTS = [
    ("vietoris-inclusion", {"max_n": 3}, 242352),
    ("embedding", {"max_n": 3}, 3468),
    ("finality-square", {"max_y": 3}, 5),
    ("choice-lemma", {"max_n": 3, "n4_sample": True}, 8712),
]


class TestPinnedReports:
    """The canonical report bytes at --max-n 3, all but wall_time_s."""

    @staticmethod
    def _report(tmp_path, suite, *extra) -> str:
        path = tmp_path / f"{suite}.json"
        assert main(["verify", "--suite", suite, "--max-n", "3", "--report", str(path), *extra]) == 0
        return path.read_text()

    @pytest.mark.parametrize("suite,parameters,checks", PINNED_REPORTS)
    def test_report_bytes(self, tmp_path, capsys, suite, parameters, checks):
        text = self._report(tmp_path, suite)
        expected = {
            "suite": suite,
            "parameters": parameters,
            "totals": {"checked": checks, "passed": checks, "failed": 0},
            "witnesses": [],
            "wall_time_s": json.loads(text)["wall_time_s"],
        }
        assert text == dumps_canonical(expected)

    def test_jobs_give_the_same_bytes(self, tmp_path, capsys):
        serial = json.loads(self._report(tmp_path, "vietoris-inclusion"))
        parallel = json.loads(self._report(tmp_path, "vietoris-inclusion", "--jobs", "2"))
        serial["wall_time_s"] = parallel["wall_time_s"]
        assert dumps_canonical(parallel) == dumps_canonical(serial)


def _counts(result) -> tuple[int, Counter]:
    checked, *_, witnesses = result
    return checked, Counter(w["kind"] for w in witnesses)


class TestClassReduction:
    """One tuple of class representatives stands for its orbit product: asserted, not assumed."""

    @staticmethod
    def _relabelled_pairs(seed, max_n, count):
        rng = random.Random(seed)
        corpus = [(n, i, sp) for n in range(1, max_n + 1) for i, sp in enumerate(enumerate_topologies(n))]
        for _ in range(count):
            (nx, xi, x), (ny, yi, y) = rng.choice(corpus), rng.choice(corpus)
            px, py = rng.sample(range(nx), nx), rng.sample(range(ny), ny)
            relabelled = ((nx, xi, relabel_by_opens(x, px)), (ny, yi, relabel_by_opens(y, py)))
            yield ((nx, xi, x), (ny, yi, y)), relabelled

    def test_pair_results_survive_relabelling(self):
        for args, relabelled in self._relabelled_pairs(11, 4, 24):
            assert _counts(suites._inclusion_pair(args)) == _counts(suites._inclusion_pair(relabelled))
            assert _counts(suites._embedding_pair(args)) == _counts(suites._embedding_pair(relabelled))

    def test_witness_counts_survive_relabelling(self, monkeypatch):
        # indiscrete function spaces: a fault that relabelling X or Y leaves unchanged
        monkeypatch.setattr(FunctionSpace, "min_nbhds", property(lambda fs: (full_mask(fs.size),) * fs.size))
        kinds = Counter()
        for args, relabelled in self._relabelled_pairs(12, 3, 40):
            counts = _counts(suites._inclusion_pair(args))
            assert counts == _counts(suites._inclusion_pair(relabelled))
            kinds += counts[1]
        assert set(kinds) >= {"vietoris-open-preimage-not-open", "miss-preimage-not-open", "hit-preimage-not-open"}

    def test_choice_results_survive_relabelling(self, monkeypatch):
        rng = random.Random(13)
        corpus = [(n, i, sp) for n in range(1, 5) for i, sp in enumerate(enumerate_topologies(n))]
        cases = [((n, i, sp), (n, i, relabel_by_opens(sp, rng.sample(range(n), n)))) for n, i, sp in rng.sample(corpus, 24)]
        for args, relabelled in cases:
            assert suites._choice_space((args,)) == suites._choice_space((relabelled,))
        # convergence asks U_x ⊆ kernel: a fault that relabelling the space leaves unchanged
        monkeypatch.setattr(choice, "converges", lambda space, filt, x: space.min_nbhds[x] & ~filt.kernel == 0)
        kinds = Counter()
        for args, relabelled in cases:
            counts = _counts(suites._choice_space((args,)))
            assert counts == _counts(suites._choice_space((relabelled,)))
            kinds += counts[1]
        assert kinds["lower-convergence"] > 0

    @pytest.mark.parametrize(
        "suite, max_n, coverage",
        [
            ("vietoris-inclusion", 3, (2, 169, 1156, 0)),
            ("embedding", 3, (2, 169, 1156, 0)),
            ("choice-lemma", 3, (1, 25, 46, 0)),
            ("choice-lemma", 4, (1, 46, 389, 0)),
        ],
        ids=["vietoris-inclusion", "embedding", "choice-lemma-3", "choice-lemma-4"],
    )
    def test_report_bytes_match_the_labelled_sweep(self, suite, max_n, coverage):
        report = suites.run_suite(suite, max_n=max_n)
        assert (report.arity, report.classes, report.labelled, report.reruns) == coverage
        assert_same_report(report, labelled_sweep(suite, max_n))

    @pytest.mark.parametrize("suite", ["vietoris-inclusion", "embedding"])
    def test_class_fault_is_rerun_on_every_labelled_pair(self, suite, monkeypatch):
        # a fault whenever Y is a Sierpinski space, in either labelling
        sierpinski = canonical_form_by_relabelling(sierpinski_space())
        real_vietoris, real_report = suites.vietoris, suites._embedding_report

        def fine_vietoris(space, family):
            if canonical_form_by_relabelling(space) != sierpinski:
                return real_vietoris(space, family)
            return HyperSpace(space, family, discrete_space(len(family)), "vietoris")

        def failing_report(fs):
            rep = real_report(fs)
            if canonical_form_by_relabelling(fs.cod) != sierpinski:
                return rep
            return MuEmbeddingReport(
                continuous=False,
                open_onto_image=rep.open_onto_image,
                injective=rep.injective,
                family_has_singletons=rep.family_has_singletons,
            )

        monkeypatch.setattr(suites, "vietoris", fine_vietoris)
        monkeypatch.setattr(suites, "_embedding_report", failing_report)
        report = suites.run_suite(suite, max_n=3)
        assert report.failed > 0
        assert report.reruns == 34 * 2  # every X against both labellings of Sierpinski
        assert {tuple(w["y"]) for w in report.witnesses} == {(2, 1), (2, 2)}
        assert_same_report(report, labelled_sweep(suite, 3))

    def test_choice_class_fault_is_rerun_on_both_labellings(self, monkeypatch):
        # a fault whenever the space is a Sierpinski space, in either labelling
        sierpinski = canonical_form_by_relabelling(sierpinski_space())
        real = suites.check_lower_convergence_lemma

        def failing(space, phi):
            return canonical_form_by_relabelling(space) != sierpinski and real(space, phi)

        monkeypatch.setattr(suites, "check_lower_convergence_lemma", failing)
        report = suites.run_suite("choice-lemma", max_n=3)
        assert (report.failed, report.reruns) == (2 * 3, 2)  # both labellings, each with its 3 ultrafilters
        assert {(w["n"], w["space"]) for w in report.witnesses} == {(2, 1), (2, 2)}
        assert_same_report(report, labelled_sweep("choice-lemma", 3))


def _labelled_spaces(max_n):
    return [sp for n in range(1, max_n + 1) for sp in enumerate_topologies(n)]


def _inclusion_closed_form(max_n) -> int:
    """Σ_X (2^n_X − 1) · Σ_Y (4·|opens Y| + open_count V(Y)): per compact a of X, the miss and hit
    identity and openness checks over the closeds and opens of Y, and one check per Vietoris open."""
    spaces = _labelled_spaces(max_n)
    per_y = sum(4 * y.open_count + vietoris(y, compacts(y)).topology.open_count for y in spaces)
    return sum((1 << x.n) - 1 for x in spaces) * per_y


class TestPinnedTotals:
    def test_closed_form_at_max_n_3(self):
        assert _inclusion_closed_form(3) == 242352

    def test_closed_forms_at_max_n_5(self):
        # the totals of both sweeps at --max-n 5, which tier-1 does not run
        assert _inclusion_closed_form(5) == 535606258622994
        assert 3 * len(_labelled_spaces(5)) ** 2 == 3 * 7331**2 == 161230683

    def test_vietoris_inclusion_at_max_n_4(self):
        report = suites.run_suite("vietoris-inclusion", max_n=4)
        assert (report.checked, report.failed) == (596278092, 0)
        assert report.checked == _inclusion_closed_form(4)
        assert (report.classes, report.labelled) == (46**2, 389**2)

    def test_embedding_at_max_n_4(self):
        report = suites.run_suite("embedding", max_n=4)
        assert (report.checked, report.failed) == (453963, 0)
        assert report.checked == 3 * len(_labelled_spaces(4)) ** 2

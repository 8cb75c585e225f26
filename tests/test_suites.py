import json

import pytest

from oracles import inclusion_pair_by_scan
from topolab import suites
from topolab.cli import main
from topolab.fileio import dumps_canonical
from topolab.bitsets import full_mask
from topolab.errors import SizeLimitExceeded, TopolabError
from topolab.funcspaces import FunctionSpace


def _pairs(corpus3):
    """All pairs of spaces with at most 2 points, plus a spread of 3-point pairs."""
    small = [entry for entry in corpus3 if entry[0] <= 2]
    sample = small + corpus3[5::7]
    return [(sx, sy) for sx in sample for sy in sample]


class TestInclusionPair:
    def test_matches_the_per_open_scan(self, corpus3):
        for args in _pairs(corpus3):
            assert suites._inclusion_pair(args) == inclusion_pair_by_scan(args)

    @pytest.mark.parametrize("coarsen", ["indiscrete", "merge-next"])
    def test_failed_continuity_gives_the_scan_witnesses(self, corpus3, monkeypatch, coarsen):
        # coarser carrier neighbourhoods break the continuity of f -> f(a);
        # the witnesses must then be those of the per-open scan
        original = FunctionSpace.__dict__["min_nbhds"].func

        def coarse(fs):
            if coarsen == "indiscrete":
                return (full_mask(fs.size),) * fs.size
            return tuple(m | 1 << (i + 1) % fs.size for i, m in enumerate(original(fs)))

        monkeypatch.setattr(FunctionSpace, "min_nbhds", property(coarse))
        kinds = set()
        for args in _pairs(corpus3):
            checked, witnesses = suites._inclusion_pair(args)
            assert (checked, witnesses) == inclusion_pair_by_scan(args)
            kinds |= {w["kind"] for w in witnesses}
        assert {"vietoris-open-preimage-not-open", "miss-preimage-not-open", "hit-preimage-not-open"} <= kinds

    def test_failed_identities_give_the_scan_witnesses(self, corpus3, monkeypatch):
        # a subbasic set that loses its first function breaks both identities
        original = FunctionSpace.subbasic
        monkeypatch.setattr(FunctionSpace, "subbasic", lambda fs, a, w: original(fs, a, w) & ~1)
        kinds = set()
        for args in _pairs(corpus3):
            checked, witnesses = suites._inclusion_pair(args)
            assert (checked, witnesses) == inclusion_pair_by_scan(args)
            kinds |= {w["kind"] for w in witnesses}
        assert {"miss-identity", "hit-identity"} <= kinds


class TestRequestChecks:
    def test_pool_never_exceeds_the_items(self, monkeypatch):
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

        monkeypatch.setattr(suites, "Pool", FakePool)
        assert suites._pmap(abs, [1, -2, 3], jobs=64) == [1, 2, 3]
        assert suites._pmap(abs, [1, -2, 3], jobs=2) == [1, 2, 3]
        assert started == [3, 2]

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
    ("property-a", {"max_n": 3}, 15),
    ("stone-cech", {"max_d": 4}, 16),
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

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import topolab
from topolab.cli import main
from topolab.limits import DEFAULT_MAX_POINTS as GUARD
from topolab.suites import SUITE_NAMES, SUITES


def run(args):
    return main(args)


@pytest.fixture()
def sierpinski_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": 2, "opens": [[], [1], [0, 1]]}))
    return path


class TestSpaceCommand:
    def test_valid_file(self, sierpinski_file, capsys):
        assert run(["space", str(sierpinski_file)]) == 0
        assert "valid topology" in capsys.readouterr().out

    def test_invalid_topology(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "opens": [[], [0], [1]]}))
        assert run(["space", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["space", str(bad)]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["space", str(tmp_path / "absent.json")]) == 2

    def test_the_file_of_a_discrete_16_point_space_validates_at_once(self, tmp_path, capsys):
        # the 65536 opens that ``space --out`` writes are checked by one count, not by their 2^31 pairs
        path = tmp_path / "d16.json"
        subbase = json.dumps([[x] for x in range(16)])
        assert run(["space", "--n", "16", "--generate-subbase", subbase, "--out", str(path)]) == 0
        start = time.perf_counter()
        assert run(["space", str(path)]) == 0
        assert time.perf_counter() - start < 5
        assert "valid topology on 16 points with 65536 opens" in capsys.readouterr().out

    def test_generate_and_describe(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run(
            ["space", "--n", "3", "--generate-subbase", "[[0,1],[1,2]]", "--out", str(out), "--describe"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["opens"] == [[], [1], [0, 1], [1, 2], [0, 1, 2]]
        assert json.loads(capsys.readouterr().out)["report"]["open_count"] == 5

    @pytest.mark.parametrize(
        "space, flags",
        [
            ({"n": 2, "opens": [[], [1], [0, 1]]}, (False, False, False, 3)),
            ({"n": 3, "opens": [[], [0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 1, 2]]}, (True, True, True, 8)),
            ({"n": 3, "opens": [[], [0, 1, 2]]}, (False, False, True, 2)),
        ],
        ids=["sierpinski", "discrete-3", "indiscrete-3"],
    )
    def test_describe_report(self, tmp_path, capsys, space, flags):
        # the whole report: finite spaces are locally compact and nested, and T2 is T1
        path = tmp_path / "s.json"
        path.write_text(json.dumps(space))
        assert run(["space", str(path), "--describe"]) == 0
        t1, t2, t3, open_count = flags
        report = {"t1": t1, "t2": t2, "t3": t3, "locally_compact": True, "nested_neighbourhood": True}
        assert json.loads(capsys.readouterr().out) == dict(space, report=dict(report, open_count=open_count))


    def test_generate_subbase_without_n_exits_2(self, capsys):
        assert run(["space", "--generate-subbase", "[[0]]"]) == 2
        assert "needs --n" in capsys.readouterr().err

    def test_neither_file_nor_subbase_exits_2(self, capsys):
        assert run(["space"]) == 2
        assert "need a space file or --generate-subbase" in capsys.readouterr().err

    def test_opens_limit_from_the_environment_and_the_flag_over_it(self, monkeypatch, capsys):
        # the discrete 5-point space has 32 opens
        monkeypatch.setenv("TOPOLAB_LIMIT_OPENS", "16")
        args = ["space", "--n", "5", "--generate-subbase", "[[0],[1],[2],[3],[4]]"]
        assert run(args) == 2
        assert "size limit" in capsys.readouterr().err
        assert run(args + ["--limit-opens", "64"]) == 0
        assert "with 32 opens" in capsys.readouterr().out

    def test_subbase_outside_ground_set_exits_2(self, capsys):
        assert run(["space", "--generate-subbase", "[[5]]", "--n", "2"]) == 2
        assert "--generate-subbase" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [["--n", "2000000"], ["--n", str((1 << 20) + 1)], ["--n", "9", "--limit-points", "8"]])
    def test_n_over_the_point_guard_exits_2(self, capsys, size):
        # refused before any mask of the ground set is built
        assert run(["space", *size, "--generate-subbase", "[]"]) == 2
        assert "size limit" in capsys.readouterr().err

    def test_indiscrete_space_on_2_to_the_16_points(self, capsys):
        # the summary lists the opens: one full mask repeated at every point
        assert run(["space", "--n", str(1 << 16), "--generate-subbase", "[]"]) == 0
        assert capsys.readouterr().out == "valid topology on 65536 points with 2 opens\n"

    def test_generated_opens_over_the_open_guard_exit_2(self, capsys):
        # the discrete 3-point space has 8 opens; the plain summary lists them behind the guard
        assert run(["space", "--n", "3", "--generate-subbase", "[[0],[1],[2]]", "--limit-opens", "4"]) == 2
        assert "size limit" in capsys.readouterr().err
        assert run(["space", "--n", "3", "--generate-subbase", "[[0],[1],[2]]", "--limit-opens", "8"]) == 0
        assert "with 8 opens" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2, "opens": [[], [True], [0, 1]]},
            {"n": True, "opens": [[], [0]]},
        ],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, data):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(data))
        assert run(["space", str(bad)]) == 2
        assert "malformed space file" in capsys.readouterr().err
        assert run(["space", "--generate-subbase", "[[true]]", "--n", "2"]) == 2


class TestCorpusCommand:
    def test_counts_and_determinism(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        assert run(["corpus", "--n", "3", "--out", str(d1)]) == 0
        assert run(["corpus", "--n", "3", "--out", str(d2)]) == 0
        files1 = sorted(p.name for p in d1.iterdir())
        assert len(files1) == 29
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_n2(self, tmp_path):
        out = tmp_path / "c"
        assert run(["corpus", "--n", "2", "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 4

    def test_n_over_5_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(["corpus", "--n", "6", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "size limit" in err and "Traceback" not in err
        assert not out.exists()


class TestHyperCommand:
    def test_lower_variant(self, sierpinski_file, tmp_path):
        out = tmp_path / "h.json"
        code = run(
            ["hyper", "--space", str(sierpinski_file), "--family", "all", "--variant", "lower", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["hyperpoints"] == [[0], [1], [0, 1]]
        assert data["opens"] == [[], [1, 2], [0, 1, 2]]

    def test_family_file_holding_an_object_exits_2(self, sierpinski_file, tmp_path, capsys):
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"members": [[0]]}))
        assert run(["hyper", "--space", str(sierpinski_file), "--family", f"@{family}"]) == 2
        assert "family file" in capsys.readouterr().err

    def test_family_file_with_a_boolean_point_exits_2(self, sierpinski_file, tmp_path, capsys):
        family = tmp_path / "f.json"
        family.write_text(json.dumps([[0], [True]]))
        assert run(["hyper", "--space", str(sierpinski_file), "--family", f"@{family}"]) == 2
        assert "family file" in capsys.readouterr().err

    def test_space_file_without_opens_exits_2(self, tmp_path, capsys):
        space = tmp_path / "s.json"
        space.write_text(json.dumps({"n": 2}))
        assert run(["hyper", "--space", str(space)]) == 2
        assert "malformed space file" in capsys.readouterr().err

    def test_closeds_family(self, sierpinski_file, capsys):
        assert run(["hyper", "--space", str(sierpinski_file), "--family", "closeds"]) == 0
        assert json.loads(capsys.readouterr().out)["hyperpoints"] == [[0], [0, 1]]

    @pytest.mark.parametrize("command", ["hyper", "funcspace"])
    def test_unknown_family_spec_exits_2(self, sierpinski_file, capsys, command):
        path = str(sierpinski_file)
        spaces = ["--space", path] if command == "hyper" else ["--dom", path, "--cod", path]
        assert run([command, *spaces, "--family", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown family spec 'bogus'" in err and "Traceback" not in err


class TestFuncspaceCommand:
    def test_continuous_carrier(self, sierpinski_file, tmp_path):
        out = tmp_path / "f.json"
        code = run(
            ["funcspace", "--dom", str(sierpinski_file), "--cod", str(sierpinski_file), "--materialize", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["functions"] == [[0, 0], [0, 1], [1, 1]]
        assert len(data["topology"]["opens"]) == 4


    @pytest.mark.parametrize("carrier", ["continuous", "all"])
    def test_carrier_over_the_point_guard_exits_2(self, tmp_path, capsys, carrier):
        # discrete 8-point spaces: 8^8 maps, every one continuous
        d8 = tmp_path / "d8.json"
        d8.write_text(json.dumps({"n": 8, "opens": [[x for x in range(8) if m >> x & 1] for m in range(256)]}))
        assert run(["funcspace", "--dom", str(d8), "--cod", str(d8), "--carrier", carrier]) == 2
        assert "size limit" in capsys.readouterr().err

    def test_limit_points_bounds_the_carrier(self, sierpinski_file, capsys):
        args = ["funcspace", "--dom", str(sierpinski_file), "--cod", str(sierpinski_file)]
        assert run(args + ["--limit-points", "2"]) == 2  # three continuous maps
        assert "size limit" in capsys.readouterr().err
        assert run(args + ["--limit-points", "3"]) == 0


class TestVerifyCommand:
    def test_small_all(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = run(["verify", "--suite", "all", "--max-n", "2", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert [r["suite"] for r in payload] == list(SUITES) and len(payload) == 4
        assert all(r["totals"]["failed"] == 0 for r in payload)

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "bogus"]) == 2
        # retired suites, whose checks a theorem decides: ultrafilters on a finite set are principal, and property (A)
        # holds exactly for a one-subset kernel; ``stone_cech_finite_discrete`` and ``classify_property_A`` are library calls
        for retired in ("stone-cech", "property-a"):
            capsys.readouterr()
            assert run(["verify", "--suite", retired]) == 2
            err = capsys.readouterr().err
            assert "unknown suite" in err and repr(retired) in err and "Traceback" not in err
            assert all(name in err for name in SUITES) and len(SUITES) == 4

    def test_bad_opens_limit_in_environment_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TOPOLAB_LIMIT_OPENS", "abc")
        assert run(["verify", "--suite", "finality-square"]) == 2
        assert "TOPOLAB_LIMIT_OPENS" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_one_over_the_bound_is_refused_before_any_suite_runs(self, suite, monkeypatch, capsys):
        # the refusal names the bound and its reason, and comes before any suite runs
        from topolab import suites

        bound = SUITES[suite].max_n
        ran = []
        monkeypatch.setattr(suites, "run_suite", lambda name, **kwargs: ran.append(name))
        assert run(["verify", "--suite", suite, "--max-n", str(bound + 1)]) == 2
        err = capsys.readouterr().err
        assert "size limit" in err and f"over {bound}" in err and SUITES[suite].why in err
        assert "Traceback" not in err and ran == []
        with pytest.raises(SystemExit):
            run(["verify", "--help"])
        assert f"{suite}(<={bound})" in "".join(capsys.readouterr().out.split())

    def test_finality_square_honours_max_n(self, tmp_path):
        report = tmp_path / "r.json"
        totals = {}
        for max_n in (1, 2, 3):
            assert run(["verify", "--suite", "finality-square", "--max-n", str(max_n), "--report", str(report)]) == 0
            payload = json.loads(report.read_text())
            assert payload["parameters"] == {"max_y": max_n}
            totals[max_n] = payload["totals"]["checked"]
        # y = 1 checks equality only; every larger y adds the discreteness check
        assert totals == {1: 1, 2: 3, 3: 5}

    def test_embedding_failure_gives_one_witness_per_pair(self, monkeypatch):
        from topolab import suites
        from topolab.funcspaces import MuEmbeddingReport

        failing = MuEmbeddingReport(
            continuous=False, open_onto_image=False, injective=True, family_has_singletons=True
        )
        monkeypatch.setattr(suites, "_embedding_report", lambda fs: failing)
        report = suites.suite_embedding(max_n=2)
        pairs = 5 * 5  # the 1- and 2-point corpus has 5 spaces
        assert report.checked == 3 * pairs
        assert report.failed == 2 * pairs
        assert report.passed == pairs
        assert len(report.witnesses) == pairs
        assert len({(tuple(w["x"]), tuple(w["y"])) for w in report.witnesses}) == pairs

    def test_inject_fault(self, tmp_path):
        report = tmp_path / "r.json"
        code = run(
            ["verify", "--suite", "finality-square", "--max-n", "2", "--inject-fault", "--report", str(report)]
        )
        assert code == 1
        payload = json.loads(report.read_text())
        witnesses = payload["witnesses"]
        assert witnesses and witnesses[-1]["kind"] == "injected-fault"
        assert witnesses[-1]["violated_axiom"]

    def test_limit_flag_trips_exit_2(self, tmp_path, capsys):
        # a 4-point discrete space: no other test builds its Vietoris
        # hyperspace, so the generation (and its guard) actually runs here
        big = tmp_path / "d4.json"
        opens = [[p for p in range(4) if m >> p & 1] for m in range(16)]
        big.write_text(json.dumps({"n": 4, "opens": opens}))
        code = run(["hyper", "--space", str(big), "--variant", "vietoris", "--limit-opens", "2"])
        assert code == 2
        assert "size limit" in capsys.readouterr().err

    def test_report_determinism(self, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        run(["verify", "--suite", "finality-square", "--report", str(r1)])
        run(["verify", "--suite", "finality-square", "--report", str(r2)])
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        assert d1 == d2

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        run(["verify", "--suite", "vietoris-inclusion", "--max-n", "2", "--report", str(serial)])
        run(["verify", "--suite", "vietoris-inclusion", "--max-n", "2", "--jobs", "2", "--report", str(parallel)])
        d1 = json.loads(serial.read_text())
        d2 = json.loads(parallel.read_text())
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        assert d1 == d2

    def test_summary_names_the_class_pairs(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["verify", "--suite", "embedding", "--max-n", "3", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "169 class pairs for 1156 labelled pairs" in out
        assert "re-run" not in out
        assert "class pairs" not in report.read_text()  # stdout only: the report keeps its bytes

    @pytest.mark.parametrize(
        "max_n, line", [(3, "25 representatives for 46 labelled spaces"), (4, "46 representatives for 389 labelled spaces")]
    )
    def test_summary_names_the_representatives(self, tmp_path, capsys, max_n, line):
        report = tmp_path / "r.json"
        assert run(["verify", "--suite", "choice-lemma", "--max-n", str(max_n), "--report", str(report)]) == 0
        assert f"\n  {line}\n" in capsys.readouterr().out
        assert "representatives" not in report.read_text()  # stdout only: the report keeps its bytes

    def test_summary_counts_the_rerun_pairs(self, monkeypatch, capsys):
        from topolab import suites
        from topolab.funcspaces import MuEmbeddingReport

        failing = MuEmbeddingReport(
            continuous=False, open_onto_image=True, injective=True, family_has_singletons=True
        )
        monkeypatch.setattr(suites, "_embedding_report", lambda fs: failing)
        assert run(["verify", "--suite", "embedding", "--max-n", "2"]) == 1
        assert "16 class pairs for 25 labelled pairs, 25 labelled pairs re-run after a failure" in capsys.readouterr().out


class TestSpaceFileValidation:
    def test_point_outside_ground_set_rejected(self):
        from topolab.fileio import space_from_dict

        with pytest.raises(ValueError):
            space_from_dict({"n": 2, "opens": [[], [0, 7], [0, 1]]})

    @pytest.mark.parametrize("opens", [5, None, {"0": [0]}, "", "[[0]]"])
    def test_opens_that_are_not_a_list_exit_2(self, tmp_path, sierpinski_file, capsys, opens):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "opens": opens}))
        for argv in (
            ["space", str(bad)],
            ["hyper", "--space", str(bad)],
            ["funcspace", "--dom", str(bad), "--cod", str(sierpinski_file)],
            ["funcspace", "--dom", str(sierpinski_file), "--cod", str(bad)],
        ):
            assert run(argv) == 2, argv
            assert "'opens' must be a list" in capsys.readouterr().err

    def test_ground_set_over_the_point_guard_exits_2(self, tmp_path, capsys):
        # refused before any mask of the ground set is built
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": 1 << 40, "opens": []}))
        assert run(["space", str(big)]) == 2
        assert "size limit" in capsys.readouterr().err

    def test_input_order_irrelevant(self):
        from topolab.fileio import space_from_dict

        a = space_from_dict({"n": 2, "opens": [[1, 0], [1], []]})
        b = space_from_dict({"n": 2, "opens": [[], [1], [0, 1]]})
        assert a == b


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def command_lines(draw):
    """(argv, must_refuse): a corpus, verify or generate-subbase invocation."""
    kind = draw(st.sampled_from(["corpus", "verify", "space"]))
    if kind == "corpus":
        n = draw(st.integers(-3, 3))
        return ["corpus", "--n", str(n), "--out", "{tmp}"], n < 0
    if kind == "verify":
        suite = draw(st.sampled_from(("all",) + SUITE_NAMES))
        max_n = draw(st.integers(-2, 2))
        jobs = draw(st.integers(-1, 1))
        return ["verify", "--suite", suite, "--max-n", str(max_n), "--jobs", str(jobs)], max_n < 1 or jobs < 1
    n = draw(st.integers(-1, 3) | st.integers(GUARD + 1, 1 << 40))
    return ["space", "--n", str(n), f"--generate-subbase={json.dumps(draw(JSON))}"], n < 0 or n > GUARD


@st.composite
def space_bodies(draw):
    """(body, must_refuse): a space file body with random JSON for n and opens."""
    n = draw(st.integers(-1, 3) | JSON)
    point_lists = st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=5)
    chains = st.lists(st.sampled_from([[], [0], [0, 1], [0, 1, 2]]), max_size=4)  # valid whenever the ends fit n
    opens = draw(point_lists | chains | JSON | JSON.filter(lambda v: not isinstance(v, list)))
    return {"n": n, "opens": opens}, not isinstance(opens, list)


POINT_LISTS = st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=4)

DEEP = "[" * 5000 + "]" * 5000  # nested past the recursion limit


def is_point_lists(value, n: int, nonempty: bool = False) -> bool:
    """value is a JSON list of lists of points 0..n−1, JSON booleans excluded (each list non-empty when ``nonempty``)."""
    return isinstance(value, list) and all(
        isinstance(entry, list) and (len(entry) > 0 or not nonempty) and all(type(p) is int and 0 <= p < n for p in entry)
        for entry in value
    )


def subbase_value(text: str):
    """The JSON value of a --generate-subbase string, or None when it is not JSON."""
    try:
        return json.loads(text)
    except ValueError:
        return None


class TestExitCodeContract:
    """main returns 0, 1 or 2 and never raises; bad sizes and counts give 2."""

    @settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=command_lines())
    def test_main_keeps_the_contract(self, tmp_path, capsys, command):
        argv, must_refuse = command
        code = main([arg.replace("{tmp}", str(tmp_path / "corpus")) for arg in argv])
        capsys.readouterr()
        assert code in (0, 1, 2)
        if must_refuse:
            assert code == 2, argv

    @pytest.mark.parametrize("where", ["missing/r.json", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_report_exits_2_before_any_suite_runs(self, tmp_path, monkeypatch, capsys, where):
        from topolab import suites

        ran = []
        monkeypatch.setattr(suites, "run_suite", lambda name, **kwargs: ran.append(name))
        assert run(["verify", "--suite", "choice-lemma", "--report", str(tmp_path / where)]) == 2
        err = capsys.readouterr().err
        assert "i/o error" in err and str(tmp_path) in err and "Traceback" not in err and ran == []

    @pytest.mark.parametrize(
        "argv",
        [["space", "{s}"], ["hyper", "--space", "{s}"], ["funcspace", "--dom", "{s}", "--cod", "{s}"]],
        ids=["space", "hyper", "funcspace"],
    )
    def test_unwritable_out_exits_2(self, tmp_path, sierpinski_file, capsys, argv):
        argv = [arg.replace("{s}", str(sierpinski_file)) for arg in argv]
        assert run([*argv, "--out", str(tmp_path / "missing" / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "i/o error" in err and "o.json" in err and "Traceback" not in err

    def test_the_report_probe_leaves_no_file_and_truncates_none(self, tmp_path, capsys):
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("earlier report\n")
        for path in (fresh, kept):
            assert run(["verify", "--suite", "choice-lemma", "--max-n", "5", "--report", str(path)]) == 2
        assert not fresh.exists() and kept.read_text() == "earlier report\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--limit-points", "--limit-opens"])
    def test_nonpositive_limit_flags_are_refused_by_name(self, tmp_path, sierpinski_file, capsys, flag, value):
        corpus = tmp_path / "corpus"
        for argv in (
            ["space", str(sierpinski_file)],
            ["corpus", "--n", "0", "--out", str(corpus)],
            ["verify", "--suite", "finality-square"],
        ):
            assert run([*argv, flag, value]) == 2, argv
            err = capsys.readouterr().err
            assert f"{flag} must be at least 1, got {value}" in err and "Traceback" not in err
        assert not corpus.exists()

    @pytest.mark.parametrize(
        "value, argv", [("0", ["verify", "--suite", "finality-square"]), ("-5", ["space", "{s}"])], ids=["verify", "space"]
    )
    def test_nonpositive_opens_limit_in_environment_is_refused_by_name(
        self, sierpinski_file, monkeypatch, capsys, value, argv
    ):
        # next to the malformed value "abc" (TestVerifyCommand): refused before any work, not read as a size limit
        monkeypatch.setenv("TOPOLAB_LIMIT_OPENS", value)
        assert run([arg.replace("{s}", str(sierpinski_file)) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert f"TOPOLAB_LIMIT_OPENS must be at least 1, got {value}" in err and "Traceback" not in err

    def test_hyperspace_over_the_open_guard_exits_2_at_once(self, tmp_path, capsys):
        # the Vietoris hyperspace on the 63 compacts of a discrete 6-point
        # space is discrete: its 2^63 opens are counted and refused, not listed
        path = tmp_path / "d6.json"
        path.write_text(json.dumps({"n": 6, "opens": [[x for x in range(6) if m >> x & 1] for m in range(64)]}))
        start = time.perf_counter()
        assert main(["hyper", "--space", str(path), "--family", "compacts"]) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert "open-set limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("variant", ["lower", "upper"])
    def test_dedekind_hyperspace_over_the_open_guard_exits_2_at_once(self, tmp_path, capsys, variant):
        # the lower and upper hyperspaces on the 63 compacts of a discrete
        # 6-point space have 7828353 opens, a Dedekind number less one; they
        # are counted and refused, as writing them would take gigabytes
        path = tmp_path / "d6.json"
        path.write_text(json.dumps({"n": 6, "opens": [[x for x in range(6) if m >> x & 1] for m in range(64)]}))
        start = time.perf_counter()
        assert main(["hyper", "--space", str(path), "--family", "compacts", "--variant", variant]) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert "open-set limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("family", ["compacts", "all", "@file"])
    def test_hyperspace_over_the_point_guard_exits_2(self, tmp_path, capsys, family):
        # the family is the hyperspace's ground set: the 127 non-empty
        # subsets of an indiscrete 7-point space pass a guard of 100 points
        path = tmp_path / "i7.json"
        path.write_text(json.dumps({"n": 7, "opens": [[], list(range(7))]}))
        if family == "@file":
            members = tmp_path / "family.json"
            members.write_text(json.dumps([[x for x in range(7) if m >> x & 1] for m in range(1, 128)]))
            family = f"@{members}"
        assert main(["hyper", "--space", str(path), "--family", family, "--limit-points", "100"]) == 2
        err = capsys.readouterr().err
        assert "size limit" in err and "127 points" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["hyper", "--family", "compacts"], ["hyper", "--family", "all"], ["funcspace", "--cod", "{point}"]],
        ids=["hyper-compacts", "hyper-all", "funcspace"],
    )
    def test_thirty_points_exit_2_in_bounded_memory(self, tmp_path, command):
        # the 2^30 − 1 compacts of a 30-point space are refused before one is
        # listed; the child's address space is capped, so listing them would
        # end in a MemoryError traceback, not in swap
        space = tmp_path / "i30.json"
        space.write_text(json.dumps({"n": 30, "opens": [[], list(range(30))]}))
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"n": 1, "opens": [[], [0]]}))
        flag = "--space" if command[0] == "hyper" else "--dom"
        argv = [arg.replace("{point}", str(point)) for arg in command] + [flag, str(space)]
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from topolab.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(topolab.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr[-2000:]
        assert "size limit" in done.stderr and "Traceback" not in done.stderr

    @settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=space_bodies())
    def test_space_files_keep_the_contract(self, tmp_path, capsys, body):
        data, must_refuse = body
        path = tmp_path / "space.json"
        path.write_text(json.dumps(data))
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"n": 1, "opens": [[], [0]]}))
        for argv in (
            ["space", str(path)],
            ["hyper", "--space", str(path)],
            ["funcspace", "--dom", str(path), "--cod", str(point)],
        ):
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), argv
            if must_refuse:
                assert code == 2, (argv, data)

    @settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=POINT_LISTS | JSON)
    def test_family_files_keep_the_contract(self, tmp_path, capsys, sierpinski_file, body):
        # a list of non-empty point lists on the 2 points of the space gives 0, anything else 2
        path = tmp_path / "family.json"
        path.write_text(json.dumps(body))
        expected = 0 if is_point_lists(body, 2, nonempty=True) else 2
        for argv in (
            ["hyper", "--space", str(sierpinski_file), "--family", f"@{path}"],
            ["funcspace", "--dom", str(sierpinski_file), "--cod", str(sierpinski_file), "--family", f"@{path}"],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == expected, (argv, body, err)
            assert "Traceback" not in err
            if expected == 2:
                assert "family file" in err

    @settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(max_size=6) | JSON.map(json.dumps) | POINT_LISTS.map(json.dumps))
    def test_subbase_strings_keep_the_contract(self, capsys, text):
        # a list of point lists on the 3 points gives 0, anything else 2
        code = main(["space", "--n", "3", f"--generate-subbase={text}"])
        err = capsys.readouterr().err
        assert code == (0 if is_point_lists(subbase_value(text), 3) else 2), (text, err)
        if code == 2:
            assert "--generate-subbase" in err

    @pytest.mark.parametrize(
        "argv, role",
        [
            (["space", "{deep space}"], "malformed space file"),
            (["hyper", "--space", "{deep space}"], "malformed space file"),
            (["funcspace", "--dom", "{deep space}", "--cod", "{s}"], "malformed space file"),
            (["funcspace", "--dom", "{s}", "--cod", "{deep space}"], "malformed space file"),
            (["hyper", "--space", "{s}", "--family", "@{deep}"], "family file"),
            (["funcspace", "--dom", "{s}", "--cod", "{s}", "--family", "@{deep}"], "family file"),
            (["space", "--n", "2", "--generate-subbase", DEEP], "--generate-subbase"),
            (["hyper", "--space", "{s}", "--family", "@{not utf}"], "family file"),
            (["funcspace", "--dom", "{s}", "--cod", "{s}", "--family", "@{not utf}"], "family file"),
        ],
        ids=[
            "deep-space", "deep-hyper-space", "deep-funcspace-dom", "deep-funcspace-cod", "deep-hyper-family",
            "deep-funcspace-family", "deep-subbase", "non-utf8-hyper-family", "non-utf8-funcspace-family",
        ],
    )
    def test_undecodable_input_exits_2(self, tmp_path, sierpinski_file, capsys, argv, role):
        bodies = {
            "{deep}": DEEP.encode(),
            "{deep space}": b'{"n": 2, "opens": ' + DEEP.encode() + b"}",
            "{not utf}": b"\xff[[0], [1]]",  # neither UTF-8 nor a UTF-16 or -32 pattern
        }
        argv = [arg.replace("{s}", str(sierpinski_file)) for arg in argv]
        for key, body in bodies.items():
            path = tmp_path / f"{key.strip('{}').replace(' ', '-')}.json"
            path.write_bytes(body)
            argv = [arg.replace(key, str(path)) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert role in err and "Traceback" not in err

    def test_undecodable_input_exits_2_in_a_child(self, tmp_path):
        # the real stderr of the command line, not only main's return value
        deep = tmp_path / "deep.json"
        deep.write_text('{"n": 2, "opens": ' + DEEP + "}")
        env = {**os.environ, "PYTHONPATH": str(Path(topolab.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-m", "topolab.cli", "space", str(deep)], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 2, done.stderr[-2000:]
        assert "malformed space file" in done.stderr and "Traceback" not in done.stderr


class TestFileBoundary:
    """The command line reads and writes JSON only through topolab.fileio."""

    def test_cli_opens_and_parses_no_file_itself(self):
        tree = ast.parse((Path(topolab.__file__).parent / "cli.py").read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [alias.name for alias in node.names if alias.name in ("load", "loads")]
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append("open")
            elif isinstance(func, ast.Attribute):
                if func.attr in ("open", "read_text", "read_bytes", "write_text"):
                    found.append(func.attr)
                elif func.attr in ("load", "loads") and isinstance(func.value, ast.Name) and func.value.id == "json":
                    found.append(f"json.{func.attr}")
        assert found == []

"""Acceptance gate: every criterion as one test with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are exact (the checks are combinatorial); the
runtime budgets are generous on commodity hardware.
"""

import time

from oracles import brute_force_topologies
from topolab.bitsets import is_subset, nonempty_subsets
from topolab.choice import classify_property_A
from topolab.cli import main as cli_main
from topolab.finality import check_finality_discrete_square, stone_cech_finite_discrete
from topolab.funcspaces import continuous_maps, mu_embedding_report
from topolab.spaces import (
    enumerate_topologies,
    is_t3,
    shrink_between,
)
from topolab.suites import (
    suite_choice_lemma,
    suite_embedding,
    suite_vietoris_inclusion,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_enumeration_oracle():
    start = time.perf_counter()
    expected = {1: 1, 2: 4, 3: 29, 4: 355}
    ok = True
    for n, count in expected.items():
        ours = sum(1 for _ in enumerate_topologies(n))
        ok = ok and ours == count
    for n in (1, 2, 3, 4):
        oracle = brute_force_topologies(n)
        ours = sorted(sp.opens for sp in enumerate_topologies(n))
        ok = ok and ours == sorted(oracle)
    elapsed = time.perf_counter() - start
    verdict(1, ok and elapsed < 60, f"enumeration matches brute-force oracle for n<=4 in {elapsed:.1f}s")


def test_criterion_2_embedding_suite():
    start = time.perf_counter()
    fam = tuple(nonempty_subsets(3))
    failures = 0
    for dom in enumerate_topologies(3):
        for cod in enumerate_topologies(3):
            rep = mu_embedding_report(dom, cod, continuous_maps(dom, cod), fam)
            if not (rep.continuous and rep.open_onto_image and rep.injective):
                failures += 1
    elapsed = time.perf_counter() - start
    verdict(
        2,
        failures == 0,
        f"29x29 pairs: mu is open, continuous, injective everywhere ({elapsed:.1f}s)",
    )


def test_criterion_3_inclusion_suite():
    start = time.perf_counter()
    report = suite_vietoris_inclusion(max_n=3)
    elapsed = time.perf_counter() - start
    verdict(
        3,
        report.failed == 0 and report.checked > 0,
        f"{report.checked} identity/openness checks over the corpus, all pass ({elapsed:.1f}s)",
    )


def test_criterion_4_finality_equality():
    start = time.perf_counter()
    r2 = check_finality_discrete_square(2)
    r3 = check_finality_discrete_square(3)
    ok = (
        r2.equal
        and len(r2.computed.opens) == 8
        and r2.computed.n == 3
        and r3.equal
        and len(r3.computed.opens) == 128
        and r3.computed.n == 7
    )
    elapsed = time.perf_counter() - start
    verdict(
        4,
        ok and elapsed < 600,
        f"discrete-square final topology equals Vietoris: y=2 (8 opens), y=3 (128 opens) in {elapsed:.1f}s",
    )


def test_criterion_5_choice_suites():
    start = time.perf_counter()
    report = suite_choice_lemma(max_n=3)
    elapsed = time.perf_counter() - start
    verdict(
        5,
        report.failed == 0 and not report.witnesses and elapsed < 300 and report.parameters["n4_sample"],
        f"{report.checked} convergence/bound checks (exhaustive n<=3 plus n=4 sample), all pass ({elapsed:.1f}s)",
    )


def test_criterion_6_property_a_classification():
    start = time.perf_counter()
    c2 = classify_property_A(2)
    c3 = classify_property_A(3)
    ok = (
        c2.filter_count == 7
        and c2.property_a_count == 3
        and c3.filter_count == 127
        and c3.property_a_count == 7
        and c2.property_a_equals_singletons
        and c3.property_a_equals_singletons
        and c2.all_property_a_ultrafilters
        and c3.all_property_a_ultrafilters
        and c2.all_property_a_countably_complete
        and c3.all_property_a_countably_complete
    )
    elapsed = time.perf_counter() - start
    verdict(6, ok, f"property (A) filters are exactly the 3/7 and 7/127 singleton filters ({elapsed:.1f}s)")


def test_criterion_7_shrink_lemma():
    start = time.perf_counter()
    checked = 0
    absent = 0
    for n in (1, 2, 3, 4):
        for sp in enumerate_topologies(n):
            if not is_t3(sp):
                continue
            for o in sp.opens:
                for k in range(1 << sp.n):  # every subset of a finite space is compact
                    if not is_subset(k, o):
                        continue
                    checked += 1
                    if shrink_between(sp, k, o) is None:
                        absent += 1
    elapsed = time.perf_counter() - start
    verdict(
        7,
        absent == 0 and checked > 0,
        f"{checked} (regular space, compact, open) triples over n<=4, no Absent ({elapsed:.1f}s)",
    )


def test_criterion_8_stone_cech_checks():
    start = time.perf_counter()
    ok = True
    for d_n in (1, 2, 3, 4):
        rep = stone_cech_finite_discrete(d_n)
        ok = ok and rep.w_bijective and rep.closures_clopen and rep.base_is_clopen and rep.clopen_closure_form
        ok = ok and rep.ultrafilter_count == d_n
    elapsed = time.perf_counter() - start
    verdict(8, ok, f"ultrafilter-space checks incl. the point bijection for d<=4 ({elapsed:.1f}s)")


def test_acceptance_run_cli_verify_all(tmp_path, capsys):
    # the documented acceptance run: every suite, default corpus size, exit 0
    import json

    report_path = tmp_path / "all.json"
    code = cli_main(["verify", "--suite", "all", "--max-n", "3", "--report", str(report_path)])
    capsys.readouterr()
    payload = json.loads(report_path.read_text())
    assert code == 0
    assert len(payload) == 4
    assert all(r["totals"]["failed"] == 0 for r in payload)


def test_criterion_9_invariant_regression_and_fault(tmp_path, capsys):
    # the per-module invariant suites run as part of the full pytest session;
    # here the harness self-test must turn an injected fault into exit 1
    start = time.perf_counter()
    embedding = suite_embedding(max_n=2)
    report_path = tmp_path / "fault.json"
    code = cli_main(
        ["verify", "--suite", "finality-square", "--max-n", "2", "--inject-fault", "--report", str(report_path)]
    )
    capsys.readouterr()
    import json

    payload = json.loads(report_path.read_text())
    witness_ok = any(w.get("kind") == "injected-fault" and w.get("violated_axiom") for w in payload["witnesses"])
    elapsed = time.perf_counter() - start
    verdict(
        9,
        embedding.failed == 0 and code == 1 and witness_ok,
        f"invariant suites green and injected fault exits 1 with a witness ({elapsed:.1f}s)",
    )

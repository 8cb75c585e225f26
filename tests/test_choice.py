import pytest

from oracles import choice_function_count, filterwise_by_kernel_sample, is_choice_function
from topolab.bitsets import is_subset, nonempty_subsets, points_of
from topolab.choice import (
    check_filterwise_refinement,
    check_locally_compact_bound,
    check_lower_convergence_lemma,
    classify_property_A,
    enumerate_choice_functions,
    filterwise_limit_set,
    has_property_A,
    limit_set_P,
)
from topolab import choice
from topolab.errors import SizeLimitExceeded
from topolab.filters import FilterOnCarrier, enumerate_filters, enumerate_ultrafilters, subsets_carrier
from topolab.spaces import closure, discrete_space, indiscrete_space, sierpinski_space
from topolab.suites import suite_choice_lemma

S = sierpinski_space()
C2 = subsets_carrier(2)
C3 = subsets_carrier(3)


def subset_filter(n, *masks):
    carrier = subsets_carrier(n)
    return FilterOnCarrier(carrier, sum(1 << (m - 1) for m in masks))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 24), (4, 20736)])
    def test_counts(self, n, count):
        assert choice_function_count(n) == count
        if n < 4:  # the 4-point functions are counted in the test below
            assert sum(1 for _ in enumerate_choice_functions(n)) == count

    def test_enumerated_count_and_validity(self):
        fns = list(enumerate_choice_functions(3))
        assert len(fns) == 24
        assert all(is_choice_function(3, f) for f in fns)
        assert len(set(fns)) == 24

    def test_four_point_functions_build_and_are_distinct(self):
        fns = list(enumerate_choice_functions(4))
        assert len(fns) == 20736
        assert all(is_choice_function(4, f) for f in fns)
        assert len(set(fns)) == 20736

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_choice_functions(5))


class TestLimitSet:
    def test_sierpinski_point_filter(self):
        phi = subset_filter(2, 0b10)  # kernel {{1}}
        assert limit_set_P(S, phi) == 0b11

    def test_discrete_point_filter_returns_the_set(self):
        for a in nonempty_subsets(2):
            phi = subset_filter(2, a)
            assert limit_set_P(discrete_space(2), phi) == a

    def test_indiscrete_everything(self):
        for a in nonempty_subsets(2):
            assert limit_set_P(indiscrete_space(2), subset_filter(2, a)) == 0b11

    def test_hit_characterization(self, corpus3):
        # p is reachable iff every kernel member meets p's minimal nbhd
        for _, _, sp in corpus3:
            carrier = subsets_carrier(sp.n)
            for phi in enumerate_filters(carrier):
                got = limit_set_P(sp, phi)
                expect = 0
                for x in range(sp.n):
                    m = sp.min_nbhds[x]
                    if all((i + 1) & m for i in points_of(phi.kernel)):
                        expect |= 1 << x
                assert got == expect


class TestLowerConvergence:
    def test_sierpinski_worked_case(self):
        phi = subset_filter(2, 0b10)
        p = limit_set_P(S, phi)
        assert closure(S, p) == 0b11
        assert check_lower_convergence_lemma(S, phi)

    def test_single_point_space(self):
        one = discrete_space(1)
        phi = subset_filter(1, 0b1)
        assert check_lower_convergence_lemma(one, phi)

    def test_all_ultrafilters_n3(self, corpus_n3):
        for sp in corpus_n3:
            for phi in enumerate_ultrafilters(C3):
                assert check_lower_convergence_lemma(sp, phi)

    def test_general_filters_too(self, corpus3):
        # the statement is asserted for ultrafilters; on finite carriers it
        # holds for arbitrary filters as well, which the sweep confirms
        for _, _, sp in corpus3:
            carrier = subsets_carrier(sp.n)
            for phi in enumerate_filters(carrier):
                assert check_lower_convergence_lemma(sp, phi)


class TestBounds:
    def test_locally_compact_bound_exhaustive_n2(self, corpus3):
        for n, _, sp in corpus3:
            if n > 2:
                continue
            carrier = subsets_carrier(sp.n)
            for phi in enumerate_ultrafilters(carrier):
                for a in nonempty_subsets(sp.n):
                    assert check_locally_compact_bound(sp, phi, a)

    def test_filterwise_refinement_exhaustive_n2(self, corpus3):
        for n, _, sp in corpus3:
            if n > 2:
                continue
            carrier = subsets_carrier(sp.n)
            for phi in enumerate_ultrafilters(carrier):
                for a in nonempty_subsets(sp.n):
                    assert check_filterwise_refinement(sp, phi, a)

    def test_filterwise_superset_of_single_function_limits(self, corpus3):
        for _, _, sp in corpus3:
            carrier = subsets_carrier(sp.n)
            for phi in enumerate_ultrafilters(carrier):
                assert is_subset(limit_set_P(sp, phi), filterwise_limit_set(sp, phi))

    def test_uncapped_sweep_on_four_points_is_the_limit_set(self, corpus_n4):
        # the cap is not read: every kernel's points are its singletons' points
        phi = next(iter(enumerate_ultrafilters(subsets_carrier(4))))
        for sp in corpus_n4[::118]:
            assert filterwise_limit_set(sp, phi, None) == limit_set_P(sp, phi)
            assert check_filterwise_refinement(sp, phi, 0b1, None)

    def test_filter_off_the_subset_carrier_is_refused(self):
        # a filter on the 7 subsets of 3 points does not apply to a 2-point space
        phi = FilterOnCarrier(C3, 1)
        with pytest.raises(ValueError, match="subset carrier"):
            limit_set_P(discrete_space(2), phi)
        with pytest.raises(ValueError, match="subset carrier"):
            filterwise_limit_set(discrete_space(2), phi)

    def test_vacuous_when_not_convergent(self):
        # discrete space: eps({0}) does not lower-converge to {1}
        d = discrete_space(2)
        phi = subset_filter(2, 0b01)
        assert check_locally_compact_bound(d, phi, 0b10)
        assert check_filterwise_refinement(d, phi, 0b10)


class TestPropertyA:
    def test_point_filter_always_holds(self):
        for a in nonempty_subsets(2):
            rep = has_property_A(2, subset_filter(2, a))
            assert rep.holds and rep.is_singleton and rep.is_ultrafilter

    def test_two_singletons_kernel_fails_with_witness(self):
        rep = has_property_A(2, subset_filter(2, 0b01, 0b10))
        assert not rep.holds
        assert rep.witness is not None
        imgk = {rep.witness.image[i] for i in (0, 1)}
        assert len(imgk) == 2

    def test_full_set_kernel_holds(self):
        rep = has_property_A(2, subset_filter(2, 0b11))
        assert rep.holds

    @pytest.mark.parametrize(
        "n,filters,prop_a", [(1, 1, 1), (2, 7, 3), (3, 127, 7)]
    )
    def test_classification_counts(self, n, filters, prop_a):
        cls = classify_property_A(n)
        assert cls.filter_count == filters
        assert cls.property_a_count == prop_a
        assert cls.property_a_equals_singletons
        assert cls.all_property_a_ultrafilters
        assert cls.all_property_a_countably_complete

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            classify_property_A(4)


class TestN4Sample:
    def test_stride_sample_passes(self, corpus_n4):
        carrier = subsets_carrier(4)
        ultras = list(enumerate_ultrafilters(carrier))
        for sp in corpus_n4[::71]:  # lighter stride here; the suite uses 30
            for phi in ultras[::3]:
                assert check_lower_convergence_lemma(sp, phi)
                for a in list(nonempty_subsets(4))[::4]:
                    assert check_locally_compact_bound(sp, phi, a)
                    assert check_filterwise_refinement(sp, phi, a, pair_cap=20)


class TestFilterwiseAgainstKernelSample:
    """The filterwise set is ``limit_set_P``; the sampled kernel sweep of the oracle agrees."""

    def test_every_filter_up_to_three_points_uncapped(self, corpus3):
        pairs = 0
        for _, _, sp in corpus3:
            for phi in enumerate_filters(subsets_carrier(sp.n)):
                assert filterwise_limit_set(sp, phi) == filterwise_by_kernel_sample(sp, phi, None)
                pairs += 1
        assert pairs == 3712

    def test_four_point_ultrafilters_with_a_pair_cap(self, corpus_n4):
        ultras = list(enumerate_ultrafilters(subsets_carrier(4)))
        for sp in (corpus_n4[0], corpus_n4[-1]):
            for phi in ultras:
                assert filterwise_limit_set(sp, phi, 20) == filterwise_by_kernel_sample(sp, phi, 20)

    def test_suite_enumerates_once_per_space_and_filter(self, monkeypatch):
        # 1 + 4 spaces on 1 and 2 points, with 1 and 3 ultrafilters: 13 pairs
        calls = []
        enumerate_all = choice.enumerate_choice_functions

        def counted(n):
            calls.append(n)
            return enumerate_all(n)

        monkeypatch.setattr(choice, "enumerate_choice_functions", counted)
        limit_set_P.cache_clear()
        report = suite_choice_lemma(max_n=2)
        limit_set_P.cache_clear()
        assert report.failed == 0
        assert len(calls) == 13

import random
from functools import reduce
from operator import and_

import pytest

from oracles import (
    applied_kernel,
    checked_choice_functions,
    choice_function_count,
    filterwise_by_kernel_sample,
    is_choice_function,
    limit_set_by_enumeration,
    property_a_by_enumeration,
)
from topolab.bitsets import is_subset, nonempty_subsets, points_of
from topolab.choice import (
    check_filterwise_refinement,
    check_locally_compact_bound,
    check_lower_convergence_lemma,
    classify_property_A,
    filterwise_limit_set,
    has_property_A,
    limit_set_P,
)
from topolab import choice
from topolab.errors import SizeLimitExceeded
from topolab.filters import FilterOnCarrier, enumerate_filters, enumerate_ultrafilters, subsets_carrier
from topolab.maps import FiniteMap
from topolab.spaces import closure, discrete_space, enumerate_topologies, indiscrete_space, sierpinski_space
from topolab.suites import N4_SPACE_STRIDE, suite_choice_lemma

S = sierpinski_space()
C2 = subsets_carrier(2)
C3 = subsets_carrier(3)


def subset_filter(n, *masks):
    carrier = subsets_carrier(n)
    return FilterOnCarrier(carrier, sum(1 << (m - 1) for m in masks))


class TestEnumeration:
    """The image tuples that ``_kernel_images`` reads: every choice function once, in the oracle's order."""

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 24), (4, 20736)])
    def test_counts(self, n, count):
        assert choice_function_count(n) == count
        if n < 4:  # the 4-point functions are counted in the test below
            assert sum(1 for _ in choice._choice_images(n)) == count

    def test_enumerated_count_and_validity(self):
        fns = [FiniteMap(7, 3, image) for image in choice._choice_images(3)]
        assert len(fns) == 24
        assert all(is_choice_function(3, f) for f in fns)
        assert len(set(fns)) == 24

    def test_four_point_functions_build_and_are_distinct(self):
        images = list(choice._choice_images(4))
        assert images == [f.image for f in checked_choice_functions(4)]
        assert len(set(images)) == 20736

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            choice._choice_images(5)


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

    def test_five_points_by_theorem(self):
        # no enumeration of the 5-point choice functions: the property holds for one kernel subset, and the
        # witness of a larger kernel is a choice function whose kernel values differ
        carrier = subsets_carrier(5)
        for kernel in (1, 1 << 30, 0b11, 1 | 1 << 30, (1 << 31) - 1, 1 << 2 | 1 << 6 | 1 << 14):
            report = has_property_A(5, FilterOnCarrier(carrier, kernel))
            assert report.holds == (kernel.bit_count() == 1) == (report.witness is None)
            if report.witness is not None:
                assert is_choice_function(5, report.witness)
                assert len({report.witness.image[i] for i in points_of(kernel)}) > 1


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

    def test_suite_enumerates_once_per_n_and_kernel(self, monkeypatch):
        twins = checked_choice_functions(4)
        # the sweeps read image tuples once per (n, kernel): 1 + 3 ultrafilter kernels on 1 and 2 points,
        # not once for each of the 1 + 4 · 3 = 13 (space, ultrafilter) pairs
        images_of = choice._choice_images
        calls = []
        read = []

        def counted(n):
            calls.append(n)
            for image in images_of(n):
                read.append(image)
                yield image

        monkeypatch.setattr(choice, "_choice_images", counted)
        choice._kernel_images.cache_clear()
        report = suite_choice_lemma(max_n=2)
        assert report.failed == 0
        assert calls == [1, 2, 2, 2]
        # a cold 4-point call reads every choice function's image tuple once, in the order of the checked maps
        read.clear()
        phi = next(iter(enumerate_ultrafilters(subsets_carrier(4))))
        limit_set_P(discrete_space(4), phi)
        limit_set_P(indiscrete_space(4), phi)
        choice._kernel_images.cache_clear()
        assert len(read) == 20736
        assert read == [f.image for f in twins]


class TestSweepsBuildNoMaps:
    """The sweeps read image tuples; ``has_property_A`` builds one ``FiniteMap``, its witness, and only on failure."""

    @pytest.fixture
    def built(self, monkeypatch):
        # ``choice`` imports no map factory that skips ``FiniteMap.__init__``, so counting that sees every map it makes
        assert not {"_unchecked_maps", "all_maps"} & set(vars(choice))
        built = []
        init = FiniteMap.__init__

        def counted_init(f, *args):
            built.append(f)
            init(f, *args)

        monkeypatch.setattr(FiniteMap, "__init__", counted_init)
        FiniteMap(1, 1, (0,))
        assert len(built) == 1
        built.clear()
        return built

    def test_cold_four_point_limit_set_builds_no_map(self, built):
        carrier = subsets_carrier(4)
        choice._kernel_images.cache_clear()
        try:
            for sp in (discrete_space(4), indiscrete_space(4)):
                for phi in (next(iter(enumerate_ultrafilters(carrier))), FilterOnCarrier(carrier, 0b101)):
                    limit_set_P(sp, phi)
        finally:
            choice._kernel_images.cache_clear()
        assert built == []

    def test_property_a_builds_at_most_its_witness(self, built):
        assert has_property_A(4, subset_filter(4, 0b0110)).holds
        assert built == []
        report = has_property_A(4, subset_filter(4, 0b0001, 0b0010))
        assert not report.holds
        assert len(built) == 1 and built[0] is report.witness


class TestUltrafilterClosedForm:
    """For an ultrafilter with kernel {S}, ``limit_set_P`` is cl(S) (ROADMAP item 2); the library keeps the sweep."""

    def test_every_space_up_to_three_points(self, corpus3):
        pairs = 0
        for _, _, sp in corpus3:
            for phi in enumerate_ultrafilters(subsets_carrier(sp.n)):
                assert limit_set_P(sp, phi) == closure(sp, phi.kernel.bit_length())
                pairs += 1
        assert pairs == 1 * 1 + 4 * 3 + 29 * 7

    def test_the_four_point_sample_of_the_suite(self, corpus_n4):
        spaces = corpus_n4[::N4_SPACE_STRIDE]
        ultras = list(enumerate_ultrafilters(subsets_carrier(4)))
        assert (len(spaces), len(ultras)) == (12, 15)
        for sp in spaces:
            for phi in ultras:
                assert limit_set_P(sp, phi) == closure(sp, phi.kernel.bit_length())

    @pytest.mark.parametrize("n, cases", [(1, 1), (2, 4 * 3), (3, 29 * 7), (4, 355 * 15)])
    def test_no_ultrafilter_has_an_empty_limit_set(self, n, cases):
        # P = cl(S) holds S ≠ ∅, so the choice-lemma sweep, which runs ultrafilters only, meets no vacuous instance
        found = 0
        for sp in enumerate_topologies(n):
            for phi in enumerate_ultrafilters(subsets_carrier(n)):
                assert limit_set_P(sp, phi) != 0, (sp, phi.kernel)
                found += 1
        assert found == cases


def meet_of_closures(space, phi) -> int:
    """⋂ cl(S) over the kernel members S of ``phi``: the points x whose U_x meets every kernel member."""
    return reduce(and_, (closure(space, s) for s in phi.kernel_elements()), space.full)


class TestLimitSetIdentities:
    """P = ⋂ cl(S) over the kernel, and lower convergence to A is A ⊆ P (ROADMAP item 2); the library keeps the sweep."""

    def test_every_filter_up_to_three_points(self, corpus3):
        pairs = 0
        for _, _, sp in corpus3:
            for phi in enumerate_filters(subsets_carrier(sp.n)):
                assert limit_set_P(sp, phi) == meet_of_closures(sp, phi), (sp, phi.kernel)
                pairs += 1
        assert pairs == 3712

    def test_every_ultrafilter_on_every_four_point_space(self, corpus_n4):
        ultras = list(enumerate_ultrafilters(subsets_carrier(4)))
        pairs = 0
        for sp in corpus_n4:
            for phi in ultras:
                assert limit_set_P(sp, phi) == meet_of_closures(sp, phi), (sp, phi.kernel)
                pairs += 1
        assert pairs == 355 * 15

    def test_lower_convergence_is_containment_in_the_limit_set(self, corpus3):
        cases = 0
        for _, _, sp in corpus3:
            for phi in enumerate_filters(subsets_carrier(sp.n)):
                p = limit_set_P(sp, phi)
                for a in nonempty_subsets(sp.n):
                    assert choice._hyper_converges(sp, phi, a) == is_subset(a, p), (sp, phi.kernel, a)
                    cases += 1
        assert cases == 25866


class TestAgainstEnumerationOracle:
    """One read of each map's kernel values agrees with the per-function route of the oracle."""

    def test_limit_set_on_every_filter_up_to_three_points(self, corpus3):
        pairs = 0
        for _, _, sp in corpus3:
            for phi in enumerate_filters(subsets_carrier(sp.n)):
                assert limit_set_P(sp, phi) == limit_set_by_enumeration(sp, phi)
                pairs += 1
        assert pairs == 3712

    def test_limit_set_on_the_four_point_sample_of_the_suite(self, corpus_n4):
        spaces = corpus_n4[::N4_SPACE_STRIDE]
        ultras = list(enumerate_ultrafilters(subsets_carrier(4)))
        assert (len(spaces), len(ultras)) == (12, 15)
        for sp in spaces:
            for phi in ultras:
                assert limit_set_P(sp, phi) == limit_set_by_enumeration(sp, phi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kernel_images(self, n):
        # every filter up to 3 points; on 4 points every ultrafilter
        carrier = subsets_carrier(n)
        phis = enumerate_filters(carrier) if n < 4 else enumerate_ultrafilters(carrier)
        for phi in phis:
            kernel = points_of(phi.kernel)
            expected = {applied_kernel((f,), kernel) for f in checked_choice_functions(n)}
            assert choice._kernel_images(n, phi.kernel) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_property_a_flag_and_witness(self, n):
        # every filter up to 3 points; on 4 points the kernels of one or two subsets, every ultrafilter among
        # them, and a seeded sample of the rest
        kernels = range(1, 1 << (1 << n) - 1) if n < 4 else [k for k in range(1, 1 << 15) if k.bit_count() <= 2]
        if n == 4:
            kernels += random.Random(29).sample([k for k in range(1, 1 << 15) if k.bit_count() > 2], 200)
        for kernel in kernels:
            phi = FilterOnCarrier(subsets_carrier(n), kernel)
            report = has_property_A(n, phi)
            holds, witness = property_a_by_enumeration(n, phi)
            assert (report.holds, report.witness) == (holds, witness)
            assert hash(report.witness) == hash(witness)


class TestChoiceLemmaTotals:
    @pytest.mark.parametrize("max_n, checks", [(1, 3), (2, 87), (3, 8712), (4, 168207)])
    def test_pinned_totals(self, max_n, checks):
        # per space: each ultrafilter (2^n − 1 of them) gives one convergence
        # check and two bound checks per non-empty subset; T(n) = 1, 4, 29, 355
        # spaces, plus at max-n 3 the 4-point sample of 12 spaces × 15 ultrafilters × 31
        spaces = (1, 4, 29, 355)
        closed = sum(spaces[n - 1] * ((1 << n) - 1) * ((1 << n + 1) - 1) for n in range(1, max_n + 1))
        assert closed + (max_n == 3) * 12 * 15 * 31 == checks
        report = suite_choice_lemma(max_n=max_n)
        assert (report.checked, report.passed, report.failed) == (checks, checks, 0)
        assert report.witnesses == []
        assert report.parameters == {"max_n": max_n, "n4_sample": max_n == 3}

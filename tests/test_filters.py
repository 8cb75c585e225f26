import itertools

import pytest

from oracles import (
    applied_kernel,
    explicit_function_filter_apply,
    filter_members,
    image_filter_kernel,
    is_countably_complete_by_members,
    is_ultrafilter_by_definition,
    refines_by_members,
)
from topolab.bitsets import mask_of, points_of
from topolab.choice import _kernel_values, has_property_A
from topolab.filters import (
    Carrier,
    FilterOnCarrier,
    contains,
    converges,
    enumerate_filters,
    enumerate_ultrafilters,
    is_ultrafilter,
    points_carrier,
    singleton_filter,
    subsets_carrier,
)
from topolab.maps import FiniteMap
from topolab.spaces import discrete_space, minimal_open_nbhd, sierpinski_space

ABC = Carrier(("a", "b", "c"))
S = sierpinski_space()


def all_filters(carrier):
    return list(enumerate_filters(carrier))


def image_kernel(f, filt):
    """The library's image kernel of a filter under an index map."""
    return mask_of(_kernel_values(points_of(filt.kernel))(f.image))


class TestBasics:
    def test_singleton(self):
        f = singleton_filter(ABC, "a")
        assert f.kernel == 0b001
        assert f.kernel_elements() == ("a",)
        assert contains(f, 0b011)  # {a, b}
        assert not contains(f, 0b010)  # {b}

    def test_counts(self):
        assert len(all_filters(ABC)) == 7
        assert len(list(enumerate_ultrafilters(ABC))) == 3
        assert len(all_filters(Carrier((0,)))) == 1
        seven = Carrier(tuple(range(7)))
        assert len(all_filters(seven)) == 127
        assert [f.kernel for f in all_filters(ABC)] == list(range(1, 8))
        assert [u.kernel for u in enumerate_ultrafilters(ABC)] == [0b001, 0b010, 0b100]

    @pytest.mark.parametrize("kernel", [0, 0b1000, -1, frozenset({0}), True, 1.0])
    def test_kernel_must_be_a_nonempty_mask(self, kernel):
        with pytest.raises(ValueError, match="non-empty mask"):
            FilterOnCarrier(ABC, kernel)

    def test_contains_by_members(self):
        for f in all_filters(ABC):
            members = set(filter_members(f))
            assert all(contains(f, a) == (a in members) for a in range(8))


class TestUltrafilters:
    def test_by_kernel(self):
        assert is_ultrafilter(singleton_filter(ABC, "b"))
        assert not is_ultrafilter(FilterOnCarrier(ABC, 0b011))

    def test_two_point_kernel_fails_definition(self):
        assert not is_ultrafilter_by_definition(FilterOnCarrier(ABC, 0b011))

    def test_whole_carrier_kernel(self):
        assert not is_ultrafilter(FilterOnCarrier(ABC, 0b111))
        assert is_ultrafilter(FilterOnCarrier(Carrier(("x",)), 0b1))

    def test_routes_agree_up_to_five(self):
        for size in range(1, 6):
            carrier = Carrier(tuple(range(size)))
            for f in all_filters(carrier):
                assert is_ultrafilter(f) == is_ultrafilter_by_definition(f)

    def test_ultrafilters_over(self):
        # the ultrafilters refining a filter are the point filters of its kernel
        for f in all_filters(ABC):
            over = [u for u in enumerate_ultrafilters(ABC) if refines_by_members(u, f)]
            assert [u.kernel for u in over] == [1 << i for i in points_of(f.kernel)]
        over = [u for u in enumerate_ultrafilters(ABC) if refines_by_members(u, FilterOnCarrier(ABC, 0b011))]
        assert [u.kernel_elements() for u in over] == [("a",), ("b",)]


class TestImages:
    def test_constant_and_identity(self):
        f = FilterOnCarrier(ABC, 0b101)
        assert image_kernel(FiniteMap(3, 3, (1, 1, 1)), f) == 0b010
        assert image_kernel(FiniteMap(3, 3, (0, 1, 2)), f) == f.kernel

    def test_merging_map(self):
        f = FilterOnCarrier(ABC, 0b101)  # kernel {a, c}
        m = FiniteMap(3, 2, (0, 0, 1))  # a,b -> x ; c -> y
        assert image_kernel(m, f) == 0b11

    def test_image_filter_definition_oracle(self):
        # B belongs to the image filter iff some member maps into B
        for size in (2, 3):
            carrier = Carrier(tuple(range(size)))
            maps = [FiniteMap(size, 2, img) for img in itertools.product(range(2), repeat=size)]
            for m in maps:
                for filt in all_filters(carrier):
                    kernel = image_kernel(m, filt)
                    assert kernel == image_filter_kernel(m, filt)
                    members = filter_members(filt)
                    for b in range(1 << 2):
                        via_members = any(
                            all(b >> m.image[i] & 1 for i in points_of(mem)) for mem in members
                        )
                        assert (kernel & ~b == 0) == via_members

    def test_functoriality(self):
        for size in (2, 3, 4):
            carrier = Carrier(tuple(range(size)))
            maps = [FiniteMap(size, size, img) for img in itertools.product(range(size), repeat=size)]
            for f, g in itertools.product(maps[:6], maps[:6]):
                g_after_f = FiniteMap(size, size, tuple(g.image[y] for y in f.image))
                for filt in all_filters(carrier):
                    lhs = image_kernel(g_after_f, filt)
                    rhs = image_kernel(g, FilterOnCarrier(carrier, image_kernel(f, filt)))
                    assert lhs == rhs


class TestConvergence:
    def test_neighborhood_filter(self):
        # the open-neighbourhood filter of x has kernel U_x, and a filter
        # converges to x exactly when it refines that filter
        assert [minimal_open_nbhd(S, x) for x in range(2)] == [0b11, 0b10]
        assert minimal_open_nbhd(discrete_space(3), 2) == 0b100
        for sp in (S, discrete_space(3)):
            carrier = points_carrier(sp.n)
            for x in range(sp.n):
                nbhd_filter = FilterOnCarrier(carrier, minimal_open_nbhd(sp, x))
                for phi in all_filters(carrier):
                    assert converges(sp, phi, x) == refines_by_members(phi, nbhd_filter)

    def test_point_filter_converges_to_its_point(self, corpus3):
        for _, _, sp in corpus3:
            carrier = points_carrier(sp.n)
            for x in range(sp.n):
                assert converges(sp, singleton_filter(carrier, x), x)

    def test_sierpinski(self):
        carrier = points_carrier(2)
        for f in all_filters(carrier):
            assert converges(S, f, 0)  # the only neighbourhood of 0 is X
        assert not converges(S, singleton_filter(carrier, 0), 1)

    def test_monotone(self, corpus3):
        for _, _, sp in corpus3:
            carrier = points_carrier(sp.n)
            filters = all_filters(carrier)
            for phi in filters:
                for psi in filters:
                    if not refines_by_members(psi, phi):
                        continue
                    for x in range(sp.n):
                        if converges(sp, phi, x):
                            assert converges(sp, psi, x)


class TestCountableCompleteness:
    def test_always_true(self):
        # the definition holds for every filter, and the property-A report says the same
        for size in (1, 2, 3, 4):
            carrier = Carrier(tuple(range(size)))
            for f in all_filters(carrier):
                assert is_countably_complete_by_members(f)
        for n in (1, 2):
            for f in enumerate_filters(subsets_carrier(n)):
                assert is_countably_complete_by_members(f)
                assert has_property_A(n, f).is_countably_complete


class TestRepresentationExactness:
    def test_upward_closed_and_intersection_closed(self):
        for size in (1, 2, 3):
            carrier = Carrier(tuple(range(size)))
            for f in all_filters(carrier):
                members = filter_members(f)
                for m in members:
                    for bigger in range(1 << size):
                        if m & ~bigger == 0:
                            assert bigger in members
                for a, b in itertools.combinations(members, 2):
                    assert (a & b) in members

    def test_every_filter_family_has_unique_kernel(self):
        # enumerate all upward+intersection closed families of non-empty
        # subsets on a 3-element carrier; each must equal exactly one kernel
        size = 3
        universe = list(range(1, 1 << size))
        kernels = {}
        for f in all_filters(Carrier(tuple(range(size)))):
            kernels[frozenset(filter_members(f))] = f.kernel
        count = 0
        for bits in range(1, 1 << len(universe)):
            fam = frozenset(universe[i] for i in range(len(universe)) if bits >> i & 1)
            upward = all(b in fam for a in fam for b in universe if a & ~b == 0)
            inter = all((a & b) in fam for a in fam for b in fam)
            if upward and inter and fam:
                count += 1
                assert fam in kernels
        assert count == len(kernels) == 7


class TestFunctionFilterApply:
    def test_singleton_function_kernel_collapses_to_image(self):
        c = subsets_carrier(2)
        f = FiniteMap(3, 2, (0, 1, 0))
        phi = FilterOnCarrier(c, 0b101)
        assert applied_kernel((f,), points_of(phi.kernel)) == image_filter_kernel(f, phi) == 0b01

    def test_singleton_argument_kernel(self):
        f = FiniteMap(3, 2, (0, 1, 0))
        g = FiniteMap(3, 2, (0, 1, 1))
        kernel = points_of(singleton_filter(subsets_carrier(2), 0b11).kernel)  # kernel {X}, index 2
        assert applied_kernel((f, g), kernel) == 0b11

    def test_against_explicit_generation_oracle(self):
        c = subsets_carrier(2)  # 3 subsets of a 2-point set
        fns = (FiniteMap(3, 2, (0, 1, 0)), FiniteMap(3, 2, (0, 1, 1)), FiniteMap(3, 2, (1, 1, 0)))
        fn_carrier = Carrier(fns)
        for fn_filter in all_filters(fn_carrier):
            fn_members = [tuple(fns[i] for i in points_of(m)) for m in filter_members(fn_filter)]
            for phi in all_filters(c):
                got = applied_kernel(fn_filter.kernel_elements(), points_of(phi.kernel))
                assert got == explicit_function_filter_apply(fn_members, filter_members(phi))

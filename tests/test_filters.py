import itertools

import pytest

from oracles import (
    explicit_function_filter_apply,
    is_countably_complete_by_members,
    is_ultrafilter_by_definition,
)
from topolab.errors import EmptyIntersection
from topolab.filters import (
    Carrier,
    FilterOnCarrier,
    contains,
    converges,
    enumerate_filters,
    enumerate_ultrafilters,
    filter_from_sets,
    filter_image,
    function_filter_apply,
    functions_carrier,
    is_countably_complete,
    is_ultrafilter,
    neighborhood_filter,
    points_carrier,
    singleton_filter,
    subsets_carrier,
    ultrafilters_over,
)
from topolab.maps import FiniteMap, compose, identity_map
from topolab.spaces import discrete_space, sierpinski_space

ABC = Carrier(("a", "b", "c"))
S = sierpinski_space()


def all_filters(carrier):
    return list(enumerate_filters(carrier))


class TestBasics:
    def test_singleton(self):
        f = singleton_filter(ABC, "a")
        assert f.kernel_elements() == ("a",)
        assert contains(f, ["a", "b"])
        assert not contains(f, ["b"])

    def test_generated(self):
        f = filter_from_sets(ABC, [["a", "b"], ["b", "c"]])
        assert f.kernel_elements() == ("b",)
        g = filter_from_sets(ABC, [["a"]])
        assert g.kernel_elements() == ("a",)

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            filter_from_sets(ABC, [["a"], ["b"]])

    def test_counts(self):
        assert len(all_filters(ABC)) == 7
        assert len(list(enumerate_ultrafilters(ABC))) == 3
        assert len(all_filters(Carrier((0,)))) == 1
        seven = Carrier(tuple(range(7)))
        assert len(all_filters(seven)) == 127


class TestUltrafilters:
    def test_by_kernel(self):
        assert is_ultrafilter(singleton_filter(ABC, "b"))
        assert not is_ultrafilter(FilterOnCarrier(ABC, frozenset({0, 1})))

    def test_two_point_kernel_fails_definition(self):
        assert not is_ultrafilter_by_definition(FilterOnCarrier(ABC, frozenset({0, 1})))

    def test_whole_carrier_kernel(self):
        assert not is_ultrafilter(FilterOnCarrier(ABC, frozenset({0, 1, 2})))
        assert is_ultrafilter(FilterOnCarrier(Carrier(("x",)), frozenset({0})))

    def test_routes_agree_up_to_five(self):
        for size in range(1, 6):
            carrier = Carrier(tuple(range(size)))
            for f in all_filters(carrier):
                assert is_ultrafilter(f) == is_ultrafilter_by_definition(f)

    def test_ultrafilters_over(self):
        f = FilterOnCarrier(ABC, frozenset({0, 1}))
        over = ultrafilters_over(f)
        assert [u.kernel_elements() for u in over] == [("a",), ("b",)]
        u = singleton_filter(ABC, "c")
        assert ultrafilters_over(u) == [u]
        whole = FilterOnCarrier(ABC, frozenset({0, 1, 2}))
        assert len(ultrafilters_over(whole)) == 3
        # refinement sanity: each listed ultrafilter contains the filter
        assert all(x.refines(f) for x in over)


class TestImages:
    def test_constant_and_identity(self):
        f = FilterOnCarrier(ABC, frozenset({0, 2}))
        const = FiniteMap(3, 3, (1, 1, 1))
        assert filter_image(const, f).kernel == frozenset({1})
        assert filter_image(identity_map(3), f).kernel == f.kernel

    def test_merging_map(self):
        f = FilterOnCarrier(ABC, frozenset({0, 2}))  # kernel {a, c}
        m = FiniteMap(3, 2, (0, 0, 1))  # a,b -> x ; c -> y
        assert filter_image(m, f).kernel == frozenset({0, 1})

    def test_image_filter_definition_oracle(self):
        # B belongs to the image filter iff some member maps into B
        for size in (2, 3):
            carrier = Carrier(tuple(range(size)))
            maps = [FiniteMap(size, 2, img) for img in itertools.product(range(2), repeat=size)]
            for m in maps:
                for filt in all_filters(carrier):
                    image = filter_image(m, filt)
                    members = list(filt.members())
                    for bits in range(1 << 2):
                        b = frozenset(i for i in range(2) if bits >> i & 1)
                        in_image = image.kernel <= b
                        via_members = any(
                            {m.image[i] for i in mem} <= b for mem in members
                        )
                        assert in_image == via_members

    def test_functoriality(self):
        for size in (2, 3, 4):
            carrier = Carrier(tuple(range(size)))
            maps = [FiniteMap(size, size, img) for img in itertools.product(range(size), repeat=size)]
            for f, g in itertools.product(maps[:6], maps[:6]):
                for filt in all_filters(carrier):
                    lhs = filter_image(compose(g, f), filt)
                    rhs = filter_image(g, filter_image(f, filt))
                    assert lhs.kernel == rhs.kernel


class TestConvergence:
    def test_neighborhood_filter(self):
        assert neighborhood_filter(S, 0).kernel == frozenset({0, 1})
        assert neighborhood_filter(S, 1).kernel == frozenset({1})
        d = discrete_space(3)
        assert neighborhood_filter(d, 2).kernel == frozenset({2})

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
                    if not psi.refines(phi):
                        continue
                    for x in range(sp.n):
                        if converges(sp, phi, x):
                            assert converges(sp, psi, x)


class TestCountableCompleteness:
    def test_always_true(self):
        for size in (1, 2, 3, 4):
            carrier = Carrier(tuple(range(size)))
            for f in all_filters(carrier):
                assert is_countably_complete_by_members(f)
                assert is_countably_complete(f)


class TestRepresentationExactness:
    def test_upward_closed_and_intersection_closed(self):
        for size in (1, 2, 3):
            carrier = Carrier(tuple(range(size)))
            for f in all_filters(carrier):
                members = list(f.members())
                for m in members:
                    for bigger in members:
                        if m <= bigger:
                            assert f.kernel <= bigger
                for a, b in itertools.combinations(members, 2):
                    assert (a & b) in members

    def test_every_filter_family_has_unique_kernel(self):
        # enumerate all upward+intersection closed families of non-empty
        # subsets on a 3-element carrier; each must equal exactly one kernel
        size = 3
        universe = [frozenset(s) for r in range(1, size + 1) for s in itertools.combinations(range(size), r)]
        kernels = {}
        for f in all_filters(Carrier(tuple(range(size)))):
            kernels[frozenset(f.members())] = f.kernel
        count = 0
        for bits in range(1, 1 << len(universe)):
            fam = frozenset(universe[i] for i in range(len(universe)) if bits >> i & 1)
            upward = all(b in fam for a in fam for b in universe if a <= b)
            inter = all((a & b) in fam for a in fam for b in fam)
            if upward and inter and fam:
                count += 1
                assert fam in kernels
        assert count == len(kernels) == 7


class TestFunctionFilterApply:
    def test_singleton_function_kernel_collapses_to_image(self):
        c = subsets_carrier(2)
        f = FiniteMap(3, 2, (0, 1, 0))
        FF = singleton_filter(functions_carrier((f,)), f)
        phi = FilterOnCarrier(c, frozenset({0, 2}))
        assert function_filter_apply(FF, phi).kernel == filter_image(f, phi).kernel

    def test_singleton_argument_kernel(self):
        c = subsets_carrier(2)
        f = FiniteMap(3, 2, (0, 1, 0))
        g = FiniteMap(3, 2, (0, 1, 1))
        FF = FilterOnCarrier(functions_carrier((f, g)), frozenset({0, 1}))
        phi = singleton_filter(c, 0b11)  # kernel {X}, index 2
        assert function_filter_apply(FF, phi).kernel == frozenset({0, 1})

    def test_against_explicit_generation_oracle(self):
        c = subsets_carrier(2)  # 3 subsets of a 2-point set
        f = FiniteMap(3, 2, (0, 1, 0))
        g = FiniteMap(3, 2, (0, 1, 1))
        FF = FilterOnCarrier(functions_carrier((f, g)), frozenset({0, 1}))
        phi = FilterOnCarrier(c, frozenset({0, 2}))
        got = function_filter_apply(FF, phi).kernel
        fn_members = [tuple(m) for m in _function_members((f, g), FF.kernel)]
        arg_members = [tuple(sorted(m)) for m in phi.members()]
        oracle = explicit_function_filter_apply(fn_members, arg_members)
        assert got == oracle


def _function_members(functions, kernel):
    rest = [i for i in range(len(functions)) if i not in kernel]
    for bits in range(1 << len(rest)):
        extra = {rest[i] for i in range(len(rest)) if bits >> i & 1}
        yield tuple(functions[i] for i in sorted(kernel | extra))

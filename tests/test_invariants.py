"""Randomized and exhaustive encodings of the library's structural invariants.

Complements the per-module tests: everything here quantifies over the corpus
of all topologies on up to three points (with four-point spot checks where
cheap), drawing random instances through hypothesis.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import image_filter_kernel, preimage_of
from topolab.bitsets import complement, is_subset, iter_bits, mask_of, nonempty_subsets, points_of
from topolab.choice import _choice_images, _kernel_values
from topolab.filters import FilterOnCarrier, converges, enumerate_filters, points_carrier, subsets_carrier
from topolab.funcspaces import compact_open, continuous_maps, set_open_topology
from topolab.hyperspaces import compacts, hit, lower_vietoris, miss, upper_vietoris, vietoris
from topolab.maps import FiniteMap
from topolab.spaces import (
    closure,
    enumerate_topologies,
    final_from_edges,
    generate_from_subbase,
    interior,
    is_t1,
    is_t3,
    space_report,
    make_space,
    minimal_open_nbhd,
    shrink_between,
)

CORPUS = [sp for n in (1, 2, 3) for sp in enumerate_topologies(n)]

spaces_st = st.sampled_from(CORPUS)


def masks_st(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


@st.composite
def space_and_mask(draw):
    sp = draw(spaces_st)
    return sp, draw(masks_st(sp.n))


@st.composite
def space_and_two_masks(draw):
    sp = draw(spaces_st)
    return sp, draw(masks_st(sp.n)), draw(masks_st(sp.n))


class TestClosureAlgebra:
    @given(space_and_mask())
    def test_extensive_and_idempotent(self, arg):
        sp, a = arg
        cl = closure(sp, a)
        assert is_subset(a, cl)
        assert closure(sp, cl) == cl

    @given(space_and_two_masks())
    def test_monotone_and_additive(self, arg):
        sp, a, b = arg
        if is_subset(a, b):
            assert is_subset(closure(sp, a), closure(sp, b))
        assert closure(sp, a | b) == closure(sp, a) | closure(sp, b)

    @given(space_and_mask())
    def test_interior_duality(self, arg):
        sp, a = arg
        assert interior(sp, a) == complement(closure(sp, complement(a, sp.n)), sp.n)


class TestSubbaseMinimality:
    @given(st.lists(masks_st(3), max_size=5))
    def test_generated_topology_is_minimal(self, subbase):
        generated = set(generate_from_subbase(3, subbase).opens)
        for sp in enumerate_topologies(3):
            opens = set(sp.opens)
            if all(s in opens for s in subbase):
                assert generated <= opens


class TestSeparationChain:
    def test_t2_implies_t1_and_finite_t1_is_discrete(self):
        for sp in CORPUS:
            if space_report(sp).t2:
                assert is_t1(sp)
            if is_t1(sp):
                assert len(sp.opens) == 1 << sp.n


class TestShrinkNeverAbsentOnRegular:
    def test_n3_corpus(self):
        for sp in CORPUS:
            if not is_t3(sp):
                continue
            for o in sp.opens:
                for k in range(1 << sp.n):  # every subset of a finite space is compact
                    if is_subset(k, o):
                        assert shrink_between(sp, k, o) is not None


class TestFinalTopology:
    @given(spaces_st, st.data())
    @settings(max_examples=40)
    def test_valid_continuous_and_finest(self, src, data):
        target_n = data.draw(st.integers(min_value=1, max_value=3))
        images = data.draw(
            st.lists(
                st.tuples(*([st.integers(0, target_n - 1)] * src.n)),
                min_size=1,
                max_size=3,
            )
        )
        maps = [(src, FiniteMap(src.n, target_n, img)) for img in images]
        # each map pushes the neighbourhood edges x -> y, y in U_x, forward
        edges = [(f.image[x], f.image[y]) for s, f in maps for x in range(s.n) for y in iter_bits(s.min_nbhds[x])]
        got = final_from_edges(target_n, edges)
        make_space(got.n, got.opens)  # axioms hold
        for s, f in maps:
            assert all(preimage_of(f, u) in s.opens for u in got.opens)
        for u in range(1 << target_n):
            if u not in got.opens:
                assert any(preimage_of(f, u) not in s.opens for s, f in maps)


class TestHitMissLaws:
    @given(st.data())
    def test_partition_and_monotonicity(self, data):
        sp = data.draw(spaces_st)
        fam = tuple(nonempty_subsets(sp.n))
        a = data.draw(masks_st(sp.n))
        b = data.draw(masks_st(sp.n))
        assert set(hit(fam, a)) | set(miss(fam, a)) == set(fam)
        assert not set(hit(fam, a)) & set(miss(fam, a))
        if is_subset(a, b):
            assert set(hit(fam, a)) <= set(hit(fam, b))
            assert set(miss(fam, b)) <= set(miss(fam, a))


class TestVietorisLattice:
    def test_join_contains_both_factors(self):
        for sp in CORPUS:
            fam = tuple(nonempty_subsets(sp.n))
            v = set(vietoris(sp, fam).topology.opens)
            assert set(lower_vietoris(sp, fam).topology.opens) <= v
            assert set(upper_vietoris(sp, fam).topology.opens) <= v


class TestCompactOpenRefinement:
    @given(st.data())
    @settings(max_examples=30)
    def test_refines_any_compact_subfamily_topology(self, data):
        dom = data.draw(spaces_st)
        cod = data.draw(spaces_st)
        ks = compacts(dom)
        sub = data.draw(st.sets(st.sampled_from(ks), max_size=len(ks)))
        fns = continuous_maps(dom, cod)
        if len(fns) > 12:
            return
        co = compact_open(dom, cod)
        other = set_open_topology(fns, tuple(sub), dom, cod)
        for mask in range(1 << len(fns)):
            if other.is_open(mask):
                assert co.is_open(mask)


class TestChoiceImageFormula:
    def test_image_kernel_is_pointwise_image(self):
        for n in (2, 3):
            carrier = subsets_carrier(n)
            fam = tuple(nonempty_subsets(n))
            for image in _choice_images(n):
                f = FiniteMap(len(fam), n, image)
                for bits in range(1, 1 << len(fam), 3):
                    phi = FilterOnCarrier(carrier, bits)
                    assert mask_of(_kernel_values(points_of(bits))(image)) == image_filter_kernel(f, phi)

    def test_choice_values_stay_inside(self):
        for n in (2, 3):
            for image in _choice_images(n):
                for m in nonempty_subsets(n):
                    assert (m >> image[m - 1]) & 1


class TestConvergenceDefinitionCoincidence:
    def test_open_neighbourhoods_generate_the_full_neighbourhood_filter(self):
        # q_tau uses only open neighbourhoods; the filter they generate must
        # coincide with the filter of all neighbourhoods (supersets of opens)
        for sp in CORPUS:
            for x in range(sp.n):
                nbhds = [
                    nmask
                    for nmask in range(1 << sp.n)
                    if any(o & (1 << x) and is_subset(o, nmask) for o in sp.opens)
                ]
                full_kernel = (1 << sp.n) - 1
                for nmask in nbhds:
                    full_kernel &= nmask
                assert minimal_open_nbhd(sp, x) == full_kernel
                for phi in enumerate_filters(points_carrier(sp.n)):
                    assert converges(sp, phi, x) == (phi.kernel & ~full_kernel == 0)

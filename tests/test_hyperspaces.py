import itertools
import random
import time

import pytest

from oracles import (
    brute_force_topologies,
    hyperspace_by_subbase,
    is_compact_by_covers,
    slow_subbase_closure,
    union_closure,
)
from topolab import limits
from topolab.bitsets import is_subset, nonempty_subsets
from topolab.errors import NotOpen, SizeLimitExceeded
from topolab.filters import FilterOnCarrier, subsets_carrier
from topolab.hyperspaces import (
    HyperSpace,
    closeds,
    compacts,
    hit,
    lower_limits,
    lower_vietoris,
    miss,
    upper_vietoris,
    vietoris,
    vietoris_basic,
)
from topolab.spaces import discrete_space, indiscrete_space, sierpinski_space

S = sierpinski_space()
P2 = tuple(nonempty_subsets(2))  # {0},{1},X as masks 1,2,3


class TestPointGuard:
    # the family is the hyperspace's ground set
    def test_compacts_are_counted_before_they_are_listed(self):
        limits.set_limits(points=6)
        try:
            with pytest.raises(SizeLimitExceeded, match="the compacts would have 7 points"):
                compacts(indiscrete_space(3))
        finally:
            limits.reset_limits()

    @pytest.mark.parametrize("builder", [lower_vietoris, upper_vietoris, vietoris])
    def test_bound_is_the_family_size(self, builder):
        space, family = indiscrete_space(3), tuple(nonempty_subsets(3))

        def build(points):
            limits.set_limits(points=points)
            try:
                return builder(space, family)
            finally:
                limits.reset_limits()

        with pytest.raises(SizeLimitExceeded, match="the hyperspace would have 7 points"):
            build(6)
        assert build(7).topology.n == 7
        with pytest.raises(SizeLimitExceeded):  # the build is cached now, made under a larger guard
            build(6)


class TestHitMiss:
    def test_hit_examples(self):
        assert hit(P2, 0b10) == (0b10, 0b11)
        assert hit(P2, 0) == ()
        assert hit(P2, 0b11) == P2

    def test_miss_examples(self):
        assert miss(P2, 0b10) == (0b01,)
        assert miss(P2, 0) == P2

    def test_partition(self):
        for m in range(4):
            h, mi = hit(P2, m), miss(P2, m)
            assert set(h) | set(mi) == set(P2)
            assert not set(h) & set(mi)

    def test_monotone(self):
        for a in range(4):
            for b in range(4):
                if is_subset(a, b):
                    assert set(hit(P2, a)) <= set(hit(P2, b))
                    assert set(miss(P2, b)) <= set(miss(P2, a))


class TestVietorisVariants:
    def test_lower_sierpinski(self):
        hy = lower_vietoris(S, P2)
        # hyperpoints {0},{1},X at indices 0,1,2: opens are {}, {{1},X}, everything
        assert hy.topology.opens == (0, 0b110, 0b111)

    def test_lower_indiscrete(self):
        hy = lower_vietoris(indiscrete_space(2), P2)
        assert len(hy.topology.opens) == 2

    def test_lower_discrete_matches_closure_oracle(self):
        hy = lower_vietoris(discrete_space(2), P2)
        subbase = [0b101, 0b110, 0b111]  # {0}^- , {1}^- , X^-
        assert hy.topology.opens == slow_subbase_closure(3, subbase)

    def test_upper_sierpinski(self):
        hy = upper_vietoris(S, P2)
        assert hy.topology.opens == (0, 0b010, 0b111)

    def test_upper_singleton_family(self):
        hy = upper_vietoris(S, (0b11,))
        assert len(hy.topology.opens) == 2

    def test_vietoris_join_is_minimal(self):
        got = vietoris(S, P2)
        lo = lower_vietoris(S, P2)
        up = upper_vietoris(S, P2)
        assert set(lo.topology.opens) <= set(got.topology.opens)
        assert set(up.topology.opens) <= set(got.topology.opens)
        # join oracle: literal closure of the union of both subbases
        subbase = [0b110, 0b111, 0b010]  # {1}^-, X^-, and {A : A <= {1}}
        assert got.topology.opens == slow_subbase_closure(3, subbase)
        # minimality against every topology on the 3 hyperpoints
        for members in brute_force_topologies(3):
            ms = set(members)
            if set(lo.topology.opens) <= ms and set(up.topology.opens) <= ms:
                assert set(got.topology.opens) <= ms

    def test_discrete_base_gives_discrete_hyperspace(self):
        for n in (1, 2, 3):
            d = discrete_space(n)
            hy = vietoris(d, compacts(d))
            assert len(hy.topology.opens) == 1 << len(hy.family)

    def test_single_member_family(self):
        hy = vietoris(S, (0b11,))
        assert hy.topology.opens == (0, 1)

    def test_discrete_30_points_without_listing_opens(self):
        # the base has 2^30 opens, over the open-set guard; the family is small
        d = discrete_space(30)
        family = tuple(1 << x for x in range(30)) + (d.full,)
        start = time.perf_counter()
        hy = vietoris(d, family)
        elapsed = time.perf_counter() - start
        assert hy.topology == discrete_space(31)
        assert elapsed < 0.05

    def test_opens_on_the_discrete_compacts_are_dedekind_numbers(self):
        # on the compacts of a discrete space, the lower opens are the up-sets
        # and the upper opens the down-sets of the non-empty subsets under ⊆:
        # M(n) − 1 of each, M the Dedekind numbers (OEIS A000372)
        for n, dedekind in zip(range(1, 6), (3, 6, 20, 168, 7581)):
            d = discrete_space(n)
            for build in (lower_vietoris, upper_vietoris):
                topo = build(d, compacts(d)).topology
                assert len(topo.opens) == topo.open_count == dedekind - 1
                assert topo.opens == union_closure(topo.min_nbhds)

    def test_open_count_matches_the_listed_opens(self, corpus3):
        for _, _, sp in corpus3:
            for build in (lower_vietoris, upper_vietoris, vietoris):
                topo = build(sp, compacts(sp)).topology
                assert topo.open_count == len(topo.opens), (build.__name__, sp)


def _families(space, rng):
    """Six families; in four of them A − lowest(A) can be no member, so the kernel walks a chain.

    The non-empty powerset, the non-empty closeds, the singletons, the
    non-singletons ({X} on one point), {X}, and a seeded random family.
    """
    powerset = tuple(nonempty_subsets(space.n))
    singletons = tuple(1 << x for x in range(space.n))
    non_singletons = tuple(a for a in powerset if a & (a - 1)) or (space.full,)
    drawn = tuple(sorted(rng.sample(powerset, rng.randint(1, len(powerset)))))
    return powerset, closeds(space), singletons, non_singletons, (space.full,), drawn


class TestAgainstSubbase:
    """The neighbourhoods of the one-pass kernel equal those of the subbase over every open."""

    @staticmethod
    def _assert_all_variants(space, family):
        for build in (lower_vietoris, upper_vietoris, vietoris):
            got = build(space, family)
            expected = hyperspace_by_subbase(space, family, got.variant)
            assert got.topology.min_nbhds == expected.min_nbhds, (space, family, got.variant)

    def test_every_space_up_to_3_points(self, corpus3):
        rng = random.Random(3)
        cases = 0
        for _, _, sp in corpus3:
            for fam in _families(sp, rng):
                self._assert_all_variants(sp, fam)
                cases += 1
        assert cases == 34 * 6

    def test_every_4_point_space_on_the_compacts(self, corpus_n4):
        start = time.perf_counter()
        for sp in corpus_n4:
            self._assert_all_variants(sp, compacts(sp))
        assert len(corpus_n4) == 355
        assert time.perf_counter() - start < 2


class TestVietorisBasic:
    def test_examples(self):
        d = discrete_space(2)
        assert vietoris_basic(d, P2, (0b01, 0b10)) == (0b11,)
        assert vietoris_basic(d, P2, (0b11,)) == P2
        assert vietoris_basic(d, P2, (0b01,)) == (0b01,)

    def test_not_open_rejected(self):
        with pytest.raises(NotOpen):
            vietoris_basic(S, P2, (0b01,))

    def test_equals_miss_hit_combination(self, corpus3):
        from topolab.bitsets import complement

        for _, _, sp in corpus3:
            fam = tuple(nonempty_subsets(sp.n))
            for r in (1, 2):
                for cover in itertools.combinations(sp.opens, r):
                    union = 0
                    for u in cover:
                        union |= u
                    expected = set(miss(fam, complement(union, sp.n)))
                    for u in cover:
                        expected &= set(hit(fam, u))
                    assert set(vietoris_basic(sp, fam, cover)) == expected

    def test_basics_are_open_and_span(self, corpus_n3):
        # every basic set is Vietoris-open; every Vietoris open is a union of basics
        for sp in corpus_n3[:10]:
            fam = tuple(nonempty_subsets(sp.n))
            hy = vietoris(sp, fam)
            index = {a: i for i, a in enumerate(fam)}
            basics = set()
            for r in range(1, len(sp.opens) + 1):
                for cover in itertools.combinations(sp.opens, r):
                    b = 0
                    for a in vietoris_basic(sp, fam, cover):
                        b |= 1 << index[a]
                    basics.add(b)
            for b in basics:
                assert hy.topology.is_open(b)
            for o in hy.topology.opens:
                u = 0
                for b in basics:
                    if is_subset(b, o):
                        u |= b
                assert u == o


class TestFamilies:
    def test_compacts_two_points(self):
        for sp in (S, discrete_space(2), indiscrete_space(2)):
            assert compacts(sp) == P2

    def test_compacts_match_cover_definition(self, corpus3):
        for _, _, sp in corpus3:
            expected = tuple(k for k in nonempty_subsets(sp.n) if is_compact_by_covers(sp, k))
            assert compacts(sp) == expected

    def test_closeds(self):
        assert closeds(S) == (0b01, 0b11)
        assert closeds(discrete_space(2)) == P2


class TestFamilyValidation:
    BAD = ((0, 0b01), (0b01, 0b100), (-1, 0b01), (0b1000,))  # empty member, points outside, negative mask

    @pytest.mark.parametrize("build", [lower_vietoris, upper_vietoris, vietoris])
    def test_builders_refuse_bad_members(self, build):
        for family in self.BAD:
            with pytest.raises(ValueError, match="non-empty subsets"):
                build(S, family)

    def test_basic_sets_and_records_refuse_bad_members(self):
        for family in self.BAD:
            with pytest.raises(ValueError, match="non-empty subsets"):
                vietoris_basic(S, family, [0b10])
            with pytest.raises(ValueError, match="non-empty subsets"):
                HyperSpace(S, family, discrete_space(len(family)), "vietoris")

    def test_good_members_at_the_edges(self):
        # the least (a singleton) and greatest (the full set) members are accepted
        assert vietoris(S, (0b01, 0b11)).family == (0b01, 0b11)
        assert vietoris_basic(S, (0b11, 0b01), [0b11]) == (0b01, 0b11)


class TestLowerLimits:
    def test_contains_the_point_filter_target(self):
        c = subsets_carrier(2)
        for i, a in enumerate(P2):
            phi = FilterOnCarrier(c, 1 << i)
            assert a in lower_limits(S, P2, phi)

    def test_carrier_must_index_the_family(self):
        phi = FilterOnCarrier(subsets_carrier(2), 0b1)
        for family in ((), (0b01,), tuple(nonempty_subsets(3))):
            with pytest.raises(ValueError):
                lower_limits(discrete_space(3), family, phi)

    def test_downward_closed(self, corpus3):
        for _, _, sp in corpus3:
            fam = tuple(nonempty_subsets(sp.n))
            c = subsets_carrier(sp.n)
            for kernel_bits in range(1, 1 << len(fam)):
                phi = FilterOnCarrier(c, kernel_bits)
                lim = set(lower_limits(sp, fam, phi))
                for b in lim:
                    for a in fam:
                        if is_subset(a, b):
                            assert a in lim

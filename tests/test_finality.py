import itertools

import pytest

from oracles import final_from_discrete_sources_by_sources, pushed_edges_by_maps, vietoris_contained_by_opens
from topolab.bitsets import full_mask, is_subset, iter_bits
from topolab.errors import SizeLimitExceeded
from topolab.finality import (
    FinalitySetup,
    StoneCechReport,
    check_finality_discrete_square,
    check_vietoris_contained,
    final_from_discrete_sources,
    final_over_projections,
    pushed_edges,
    stone_cech_finite_discrete,
)
from topolab import finality, funcspaces, limits, suites
from topolab.funcspaces import FunctionSpace, compact_open
from topolab.hyperspaces import compacts, vietoris
from topolab.spaces import (
    FiniteSpace,
    discrete_space,
    enumerate_topologies,
    homeomorphism_classes,
    indiscrete_space,
    sierpinski_space,
)

S = sierpinski_space()


class TestPushedEdges:
    def test_against_the_map_by_map_edges_and_the_continuity_theorem(self):
        # every class pair with n <= 3 and every compact a: the edges match
        # the map-by-map oracle, and f ↦ f(a) is continuous into the Vietoris
        # and the discrete topology on the compacts exactly when every edge
        # lies in the target's preorder, decided here by pulling back opens
        reps = [rep for n in (1, 2, 3) for rep, _ in homeomorphism_classes(n)]
        checked = discrete_targets = 0
        for x in reps:
            for y in reps:
                fsp = compact_open(x, y)
                hyper = vietoris(y, compacts(y)).topology
                for a in compacts(x):
                    slot = fsp.images(a)
                    edges = {(v, u) for v, reached in pushed_edges(slot, fsp.min_nbhds) for u in iter_bits(reached)}
                    assert edges == pushed_edges_by_maps(fsp, a), (x, y, a)

                    def preimage(index_mask):
                        return sum(m for v, m in slot.items() if index_mask >> v & 1)

                    continuous = all(fsp.is_open(preimage(o)) for o in hyper.opens)
                    assert suites._continuous_along(slot, hyper.min_nbhds, fsp.min_nbhds) == continuous
                    into_discrete = all(fsp.is_open(m) for m in slot.values())
                    assert into_discrete == all(v == u for v, u in edges)
                    checked += 1
                    discrete_targets += into_discrete
        assert (checked, discrete_targets) == (949, 219)  # both verdicts occur


class TestFinalOverProjections:
    def test_point_source_into_discrete(self):
        setup = final_over_projections(discrete_space(2), [(discrete_space(1), 0b1)])
        # functions pt -> Y are the points; only singleton hyperpoints are hit,
        # and the unconstrained {0,1} hyperpoint rides along: discrete result
        assert len(setup.computed.opens) == 8

    def test_trivial_opens_always_present(self):
        setup = final_over_projections(S, [(S, 0b10)])
        assert 0 in setup.computed.opens
        assert (1 << len(setup.family)) - 1 in setup.computed.opens

    def test_sierpinski_source_brute_force(self):
        # oracle: scan all subsets of the 3-point hyperspace carrier directly
        setup = final_over_projections(S, [(S, 0b10)], strategy="nbhd")
        from topolab.funcspaces import compact_open

        fs = compact_open(S, S)
        topo = fs.materialize()
        ks = compacts(S)
        index = {k: i for i, k in enumerate(ks)}
        proj = [index[f.image_of(0b10)] for f in fs.functions]
        expected = []
        for u in range(1 << len(ks)):
            pre = 0
            for fi, hp in enumerate(proj):
                if u >> hp & 1:
                    pre |= 1 << fi
            if topo.is_open(pre):
                expected.append(u)
        assert setup.computed.opens == tuple(expected)

    def test_strategies_agree(self, corpus3):
        sample = [sp for _, _, sp in corpus3[1:5]]  # the four 2-point spaces
        compared = 0
        for dom in sample:
            for cod in sample:
                sources = [(dom, a) for a in compacts(dom)[:2]]
                a = final_over_projections(cod, sources, strategy="materialize")
                b = final_over_projections(cod, sources, strategy="nbhd")
                assert a.computed == b.computed
                compared += 1
        assert compared == 16

    def test_unknown_strategy_refused(self):
        # a misspelt strategy must not silently take the neighbourhood route
        for strategy in ("materialise", "auto", ""):
            with pytest.raises(ValueError, match="unknown strategy"):
                final_over_projections(S, [(S, 0b10)], strategy=strategy)
        assert final_over_projections(S, [(S, 0b10)]).strategy == "nbhd"

    def test_maps_continuous_and_finest(self, corpus3):
        from topolab.funcspaces import compact_open

        for _, _, dom in corpus3[1:5]:
            for _, _, cod in corpus3[1:5]:
                sources = [(dom, a) for a in compacts(dom)]
                setup = final_over_projections(cod, sources)
                ks = setup.family
                index = {k: i for i, k in enumerate(ks)}
                fs = compact_open(dom, cod)
                for _, a in setup.sources:
                    proj = [index[f.image_of(a)] for f in fs.functions]
                    for u in setup.computed.opens:
                        pre = 0
                        for fi, hp in enumerate(proj):
                            if u >> hp & 1:
                                pre |= 1 << fi
                        assert fs.is_open(pre)
                    # finest: every absent subset breaks some continuity
                for u in range(1 << len(ks)):
                    if u in setup.computed.opens:
                        continue
                    broken = False
                    for _, a in setup.sources:
                        proj = [index[f.image_of(a)] for f in fs.functions]
                        pre = 0
                        for fi, hp in enumerate(proj):
                            if u >> hp & 1:
                                pre |= 1 << fi
                        if not fs.is_open(pre):
                            broken = True
                            break
                    assert broken

    def test_source_monotonicity(self, corpus3):
        for _, _, dom in corpus3[1:6]:
            ks = compacts(dom)
            base = final_over_projections(S, [(dom, ks[0])])
            more = final_over_projections(S, [(dom, a) for a in ks])
            assert set(more.computed.opens) <= set(base.computed.opens)


class TestVietorisContained:
    def test_corpus_sample(self, corpus3):
        for _, _, dom in corpus3[::3]:
            for _, _, cod in corpus3[::3]:
                setup = final_over_projections(cod, [(dom, a) for a in compacts(dom)])
                rep = check_vietoris_contained(setup)
                assert rep.contained, (dom, cod, rep.violations)

    def test_single_source_still_contained(self, corpus3):
        for _, _, dom in corpus3[:6]:
            setup = final_over_projections(S, [(dom, compacts(dom)[0])])
            assert check_vietoris_contained(setup).contained

    def test_degenerate_one_point_cod(self):
        one = discrete_space(1)
        setup = final_over_projections(one, [(one, 0b1)])
        assert check_vietoris_contained(setup).contained
        assert len(setup.computed.opens) == 2


class TestDiscreteSquare:
    def test_y1(self):
        rep = check_finality_discrete_square(1)
        assert rep.equal and rep.z_n == 1
        assert rep.source_count == 1

    def test_y2_exact_equality(self):
        rep = check_finality_discrete_square(2)
        assert rep.equal
        assert rep.expected_is_discrete
        assert len(rep.computed.opens) == 8 and rep.computed.n == 3
        assert rep.source_count == 4  # one prefix of each size of the 4-point square

    def test_y3_exact_equality(self):
        rep = check_finality_discrete_square(3)
        assert rep.equal
        assert rep.expected_is_discrete
        assert len(rep.computed.opens) == 128 and rep.computed.n == 7
        assert rep.source_count == 9

    @pytest.mark.parametrize("y_n", [1, 2, 3])
    def test_one_prefix_of_each_size_with_the_full_set(self, y_n, monkeypatch):
        seen = []
        route = finality.final_from_discrete_sources

        def recorded(cod, z_n, source_masks):
            seen.append((z_n, tuple(source_masks)))
            return route(cod, z_n, source_masks)

        monkeypatch.setattr(finality, "final_from_discrete_sources", recorded)
        rep = check_finality_discrete_square(y_n)
        ((z_n, masks),) = seen
        assert masks == tuple((1 << k) - 1 for k in range(1, z_n + 1))
        assert (1 << z_n) - 1 in masks and rep.source_count == len(masks)

    def test_prefix_sources_give_every_compact(self, corpus3):
        # on a discrete source the pushed edges depend on |A| only, so one
        # prefix of each size gives the final topology of all compacts; the
        # library scans the largest source alone, so both sides are the
        # source-by-source scan
        cases = 0
        for _, _, cod in corpus3:
            for m in range(1, 5):
                prefixes = [(1 << k) - 1 for k in range(1, m + 1)]
                every = compacts(discrete_space(m))
                by_prefixes = final_from_discrete_sources_by_sources(cod, m, prefixes)
                assert by_prefixes == final_from_discrete_sources_by_sources(cod, m, every)
                cases += 1
        assert cases == 136

    def test_y2_restriction_route_matches_general_strategy(self):
        # the discrete-square scan must agree with final_over_projections
        rep = check_finality_discrete_square(2)
        z = discrete_space(4)
        setup = final_over_projections(
            discrete_space(2), [(z, a) for a in compacts(z)], strategy="nbhd"
        )
        assert setup.computed == rep.computed

    def test_restriction_route_on_non_discrete_codomains(self, corpus3):
        # with a non-discrete codomain the openness condition actually
        # rejects candidates; the restriction scan must still match the
        # general neighbourhood strategy map for map
        z_n = 2
        z = discrete_space(z_n)
        sources = [(z, a) for a in compacts(z)]
        rejected_somewhere = False
        for _, _, cod in corpus3:
            got = final_from_discrete_sources(cod, z_n, compacts(z))
            expected = final_over_projections(cod, sources, strategy="nbhd").computed
            assert got == expected
            if len(got.opens) < 1 << got.n:
                rejected_somewhere = True
        assert rejected_somewhere

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            check_finality_discrete_square(4)


def assert_route_matches_the_per_source_loop(corpus) -> int:
    """Assert the scan at the largest source against the source-by-source oracle; return the cases.

    Every codomain of ``corpus``, for z_n <= 3 with every non-empty set of
    source masks, and for z_n = 4 with one mask of each size over every
    non-empty set of sizes.  The route is read through ``finality``, so a
    patched route is the one compared.
    """
    sets = [(z_n, masks) for z_n in (1, 2, 3) for masks in _non_empty_sets(range(1, 1 << z_n))]
    sets += [(4, masks) for masks in _non_empty_sets([0b1, 0b11, 0b111, 0b1111])]
    cases = 0
    for _, _, cod in corpus:
        for z_n, masks in sets:
            got = finality.final_from_discrete_sources(cod, z_n, masks)
            assert got == final_from_discrete_sources_by_sources(cod, z_n, masks), (cod, z_n, masks)
            cases += 1
    return cases


def _non_empty_sets(items) -> list[tuple[int, ...]]:
    items = tuple(items)
    return [c for k in range(1, len(items) + 1) for c in itertools.combinations(items, k)]


class TestDiscreteSourcesOracle:
    def test_route_equals_the_per_source_loop(self, corpus3):
        # 1 + 7 + 127 mask sets for z_n <= 3 and 15 size sets for z_n = 4, on 34 codomains
        assert assert_route_matches_the_per_source_loop(corpus3) == 150 * 34

    def test_no_source_leaves_the_loops(self, corpus3):
        # with no map, no edge but the loops: the discrete topology on the compacts
        for _, _, cod in corpus3:
            k = len(compacts(cod))
            discrete = FiniteSpace(k, tuple(1 << i for i in range(k)))
            for z_n in (0, 1, 3):
                assert final_from_discrete_sources(cod, z_n, []) == discrete, (cod, z_n)
                assert final_from_discrete_sources_by_sources(cod, z_n, []) == discrete


class TestSourceCheck:
    @pytest.mark.parametrize("z_n", [1, 2, 3])
    def test_discrete_source_outside_the_non_empty_subsets_is_refused(self, z_n):
        # refused before any point of a mask is read: the points of -1 never end
        for a in (-1, 0, 1 << z_n):
            for masks in ([a], [0b1, a]):
                with pytest.raises(ValueError, match="non-empty subset of the discrete space"):
                    final_from_discrete_sources(discrete_space(2), z_n, masks)

    def test_negative_point_count_is_refused_by_name(self):
        for masks in ([], [0b1]):
            with pytest.raises(ValueError, match="z_n must not be negative"):
                final_from_discrete_sources(discrete_space(2), -1, masks)

    @pytest.mark.parametrize("a", [0, -1, 0b100])
    def test_source_outside_the_non_empty_subsets_is_refused(self, a):
        with pytest.raises(ValueError, match="non-empty compact of its space"):
            final_over_projections(S, [(S, 0b1), (S, a)])

    def test_too_large_source_is_refused_by_the_point_guard(self):
        # the 7 compacts of an indiscrete 3-point source pass a guard of 6
        # points when compact_open builds its family; its 2 maps into S do not
        limits.set_limits(points=6)
        try:
            with pytest.raises(SizeLimitExceeded, match="the compacts"):
                final_over_projections(S, [(indiscrete_space(3), 0b1)])
        finally:
            limits.reset_limits()

    def test_the_restrictions_of_the_largest_source_are_guarded(self):
        # final_over_projections refuses the same source: its function space holds the 3^8 maps out of 8 discrete points
        limits.set_limits(points=1000)
        try:
            with pytest.raises(SizeLimitExceeded, match="the restrictions of the largest source would have 6561 points"):
                final_from_discrete_sources(discrete_space(3), 8, [0xFF])
            masks = [0b111111]  # 3^6 = 729 restrictions
            got = final_from_discrete_sources(discrete_space(3), 8, masks)
            assert got == final_from_discrete_sources_by_sources(discrete_space(3), 8, masks)
        finally:
            limits.reset_limits()


class TestDiscreteSourcesAgainstVietoris:
    """|Y| discrete sources give the Vietoris topology on the compacts of Y; |Y| − 1 give a strictly finer one (ROADMAP item 5)."""

    def test_as_many_points_as_y_give_vietoris(self, corpus3, corpus_n4):
        spaces = [sp for _, _, sp in corpus3] + corpus_n4
        for y in spaces:
            assert final_from_discrete_sources(y, y.n, [y.full]) == vietoris(y, compacts(y)).topology, y
        assert len(spaces) == 389

    def test_one_point_fewer_is_strictly_finer_off_the_discrete_spaces(self, corpus3, corpus_n4):
        finer = 0
        for y in [sp for _, _, sp in corpus3] + corpus_n4:
            if y.n < 2 or y == discrete_space(y.n):
                continue
            got = final_from_discrete_sources(y, y.n - 1, [full_mask(y.n - 1)])
            expected = vietoris(y, compacts(y)).topology
            assert all(map(is_subset, got.min_nbhds, expected.min_nbhds)) and got != expected, y
            finer += 1
        assert finer == 385


class TestContainmentAgainstOpens:
    """check_vietoris_contained compares neighbourhoods; the per-open scan must agree."""

    def test_final_topologies(self, corpus3):
        for _, _, cod in corpus3[:5]:
            for _, _, dom in corpus3[:5]:
                setup = final_over_projections(cod, [(dom, a) for a in compacts(dom)])
                report = check_vietoris_contained(setup)
                assert report == vietoris_contained_by_opens(setup)
                assert report.contained

    def test_every_topology_on_the_carrier(self, corpus3):
        # any topology on the three hyperpoints of a 2-point codomain stands in
        # for the final one, so containment fails too and names its witnesses
        failed = 0
        for _, _, cod in corpus3[1:5]:
            base = final_over_projections(cod, [(S, 0b10), (cod, 0b11)])
            for topo in enumerate_topologies(len(base.family)):
                setup = FinalitySetup(cod, base.family, base.sources, topo, base.strategy)
                report = check_vietoris_contained(setup)
                assert report == vietoris_contained_by_opens(setup), (cod, topo)
                failed += not report.contained
        assert failed

    def test_the_first_refusing_source_is_named(self, corpus3, monkeypatch):
        # the library's sources pull every Vietoris open back to an open (the box theorem), so a violation
        # names no source; on indiscrete function spaces the preimages are refused, and the first source is named
        setups = []
        for _, _, cod in corpus3[1:5]:
            base = final_over_projections(cod, [(S, 0b10), (cod, 0b11)])
            stand_in = indiscrete_space(len(base.family))
            setups.append(FinalitySetup(cod, base.family, base.sources, stand_in, base.strategy))
        monkeypatch.setattr(FunctionSpace, "min_nbhds", property(lambda fs: (full_mask(fs.size),) * fs.size))
        funcspaces._function_space.cache_clear()
        named = 0
        for setup in setups:
            report = check_vietoris_contained(setup)
            assert report == vietoris_contained_by_opens(setup), setup.cod
            named += sum(pos is not None for _, pos in report.violations)
        assert named


class TestStoneCech:
    @pytest.mark.parametrize("d_n", [1, 2, 3, 4])
    def test_all_properties(self, d_n):
        assert stone_cech_finite_discrete(d_n) == StoneCechReport(
            d_n=d_n,
            ultrafilter_count=d_n,
            w_bijective=True,
            closures_clopen=True,
            base_is_clopen=True,
            clopen_closure_form=True,
        )

    @pytest.mark.parametrize("d_n", [1, 2, 3, 4])
    def test_a_missing_ultrafilter_is_seen(self, d_n, monkeypatch):
        # the flags are computed from the listed ultrafilters: drop the last one, and w is no bijection
        real = finality.enumerate_ultrafilters
        monkeypatch.setattr(finality, "enumerate_ultrafilters", lambda carrier: list(real(carrier))[:-1])
        rep = stone_cech_finite_discrete(d_n)
        assert rep.ultrafilter_count == d_n - 1
        assert not rep.w_bijective

    def test_over_the_open_guard_is_refused_before_any_ultrafilter(self, monkeypatch):
        # the discrete space on d_n points lists 2^d_n opens: 5 points are refused under a guard of 16, 4 still pass
        listed = []
        real = finality.enumerate_ultrafilters
        monkeypatch.setattr(finality, "enumerate_ultrafilters", lambda carrier: listed.append(carrier) or real(carrier))
        limits.set_limits(opens=16)
        try:
            with pytest.raises(SizeLimitExceeded, match="2\\^5 opens, over the open-set limit 16"):
                stone_cech_finite_discrete(5)
            assert listed == []
            assert stone_cech_finite_discrete(4) == StoneCechReport(4, 4, True, True, True, True) and len(listed) == 1
        finally:
            limits.reset_limits()

import pytest

from oracles import vietoris_contained_by_opens
from topolab.errors import SizeLimitExceeded
from topolab.finality import (
    FinalitySetup,
    check_finality_discrete_square,
    check_vietoris_contained,
    final_from_discrete_sources,
    final_over_projections,
    stone_cech_finite_discrete,
)
from topolab import finality
from topolab.hyperspaces import compacts
from topolab.spaces import discrete_space, enumerate_topologies, sierpinski_space

S = sierpinski_space()


class TestFinalOverProjections:
    def test_point_source_into_discrete(self):
        setup = final_over_projections(discrete_space(2), [(discrete_space(1), 0b1)])
        # functions pt -> Y are the points; only singleton hyperpoints are hit,
        # and the unconstrained {0,1} hyperpoint rides along: discrete result
        assert len(setup.computed.opens) == 8

    def test_trivial_opens_always_present(self):
        setup = final_over_projections(S, [(S, 0b10)])
        assert 0 in setup.computed.open_set
        assert (1 << len(setup.family)) - 1 in setup.computed.open_set

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
                    if u in setup.computed.open_set:
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
        # prefix of each size gives the final topology of all compacts
        cases = 0
        for _, _, cod in corpus3:
            for m in range(1, 5):
                prefixes = [(1 << k) - 1 for k in range(1, m + 1)]
                every = compacts(discrete_space(m))
                assert final_from_discrete_sources(cod, m, prefixes) == final_from_discrete_sources(cod, m, every)
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


class TestStoneCech:
    @pytest.mark.parametrize("d_n", [1, 2, 3, 4])
    def test_all_properties(self, d_n):
        rep = stone_cech_finite_discrete(d_n)
        assert rep.ultrafilter_count == d_n
        assert rep.w_bijective
        assert rep.closures_clopen
        assert rep.base_is_clopen
        assert rep.clopen_closure_form

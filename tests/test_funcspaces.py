import pickle
import random
from functools import cached_property

import pytest

from oracles import (
    continuous_maps_by_preimages,
    hyperspace_pull_back,
    image_groups_by_maps,
    mu_embedding_by_definition,
    projection_compose,
    set_open_min_nbhds_by_maps,
    slow_subbase_closure,
    upper_vietoris_pull_back_by_maps,
    vietoris_pull_back_by_maps,
)
from topolab.bitsets import full_mask, is_subset, nonempty_subsets
from topolab.errors import ImageNotInFamily, SizeLimitExceeded
from topolab.funcspaces import (
    FunctionSpace,
    compact_open,
    continuous_maps,
    is_continuous,
    mu,
    mu_embedding_report,
    set_open_topology,
)
from topolab.hyperspaces import closeds, compacts, upper_vietoris, vietoris
from topolab import cli, funcspaces, hyperspaces, limits, maps, suites
from topolab.frozen import memo
from topolab.maps import FiniteMap, all_maps
from topolab.spaces import FiniteSpace, discrete_space, homeomorphism_classes, indiscrete_space, sierpinski_space

S = sierpinski_space()
D2 = discrete_space(2)
I2 = indiscrete_space(2)
P2 = tuple(nonempty_subsets(2))


def _flags(report) -> tuple[bool, bool, bool, bool]:
    """The four flags of a MuEmbeddingReport, in the order of ``mu_embedding_by_definition``."""
    return report.continuous, report.open_onto_image, report.injective, report.family_has_singletons


class TestCarriers:
    @pytest.mark.parametrize("dom,cod,count", [(2, 2, 4), (1, 3, 3), (3, 2, 8)])
    def test_all_maps_counts(self, dom, cod, count):
        maps = list(all_maps(dom, cod))
        assert len(maps) == count
        assert maps == sorted(maps, key=lambda f: f.image)

    def test_continuity(self):
        assert is_continuous(S, S, FiniteMap(2, 2, (0, 1)))
        assert is_continuous(S, S, FiniteMap(2, 2, (0, 0)))
        assert not is_continuous(S, S, FiniteMap(2, 2, (1, 0)))

    def test_continuous_maps(self):
        assert [f.image for f in continuous_maps(S, S)] == [(0, 0), (0, 1), (1, 1)]
        assert len(continuous_maps(D2, S)) == 4
        assert [f.image for f in continuous_maps(I2, D2)] == [(0, 0), (1, 1)]


class TestContinuousMapsOracle:
    """The monotone maps, built point by point, against preimages of opens."""

    def test_all_pairs_up_to_three_points(self, corpus3):
        for _, _, dom in corpus3:
            for _, _, cod in corpus3:
                expected = continuous_maps_by_preimages(dom, cod)
                assert continuous_maps(dom, cod) == expected, (dom, cod)
                kept = set(expected)
                for f in all_maps(dom.n, cod.n):
                    assert is_continuous(dom, cod, f) == (f in kept)

    def test_seeded_four_point_sample(self, corpus_n4):
        rng = random.Random(4)
        pairs = [(rng.choice(corpus_n4), rng.choice(corpus_n4)) for _ in range(40)]
        pairs.append((discrete_space(4), discrete_space(4)))
        pairs.append((indiscrete_space(4), sierpinski_space()))
        for dom, cod in pairs:
            assert continuous_maps(dom, cod) == continuous_maps_by_preimages(dom, cod), (dom, cod)

    def test_empty_domain_and_codomain(self):
        empty = discrete_space(0)
        assert [f.image for f in continuous_maps(empty, S)] == [()]
        assert continuous_maps(S, empty) == ()


class TestSetOpen:
    def test_subbasic_example(self):
        fs = set_open_topology(continuous_maps(S, S), (0b10,), S, S)
        picked = fs.subbasic(0b10, 0b10)
        assert [fs.functions[i].image for i in range(3) if picked >> i & 1] == [(0, 1), (1, 1)]

    def test_empty_family_is_indiscrete(self):
        fs = set_open_topology(continuous_maps(S, S), (), S, S)
        assert fs.materialize().opens == (0, 0b111)

    def test_full_codomain_gives_whole_carrier(self):
        fs = set_open_topology(continuous_maps(S, S), P2, S, S)
        assert fs.subbasic(0b01, 0b11) == 0b111

    def test_antitone_monotone(self):
        fs = set_open_topology(tuple(all_maps(2, 2)), P2, D2, D2)
        for a in P2:
            for a2 in P2:
                if is_subset(a, a2):
                    for w in D2.opens:
                        assert is_subset(fs.subbasic(a2, w), fs.subbasic(a, w))
        for w in D2.opens:
            for w2 in D2.opens:
                if is_subset(w, w2):
                    for a in P2:
                        assert is_subset(fs.subbasic(a, w), fs.subbasic(a, w2))


class TestSharedSpace:
    """set_open_topology validates every call and shares one FunctionSpace per key."""

    def test_validation_runs_before_the_lookup(self):
        fns = continuous_maps(S, S)
        cache = funcspaces._function_space
        set_open_topology(fns, P2, S, S)
        before = cache.cache_info()
        with pytest.raises(ValueError, match="carrier maps must go from dom to cod"):
            set_open_topology(fns + (FiniteMap(3, 2, (0, 0, 1)),), P2, S, S)
        with pytest.raises(ValueError, match="carrier maps must go from dom to cod"):
            # its image fits the codomain, but its cod_n does not: the maps are checked, not their image tuples
            set_open_topology(fns + (FiniteMap(2, 3, (0, 1)),), P2, S, S)
        with pytest.raises(ValueError, match="carrier maps must go from dom to cod"):
            set_open_topology(fns, P2, discrete_space(3), S)
        with pytest.raises(ValueError, match="family members must be subsets of the domain"):
            set_open_topology(fns, P2 + (0b100,), S, S)
        assert cache.cache_info() == before
        assert set_open_topology(fns, P2, S, S) is set_open_topology(list(fns), reversed(P2), S, S)

    def test_cache_is_bounded(self):
        assert funcspaces._function_space.cache_info().maxsize is not None

    def test_tables_are_lock_free_memos(self):
        # min_nbhds stays a cached_property; the tables are memos that keep .func, as cached_property does
        assert isinstance(vars(FunctionSpace)["min_nbhds"], cached_property)
        fs = compact_open(S, D2)
        for name in ("functions", "_points", "_tables", "_members", "_kept", "_within", "_continuous"):
            field = getattr(FunctionSpace, name)
            assert type(field) is memo and callable(field.func)
            value = getattr(fs, name)
            assert getattr(fs, name) is value and vars(fs)[name] is value

    def test_images_is_a_fresh_dict(self):
        fs = compact_open(S, D2)
        fs.images(0b11).clear()
        expected = image_groups_by_maps(fs.functions, fs.family)[-1]
        assert compact_open(S, D2).images(0b11) == {img - 1: m for img, m in expected.items()}
        with pytest.raises(ValueError, match="not in the family"):
            fs.images(0b100)

    @staticmethod
    def _outcome(dom, cod, fns, fam):
        try:
            return mu_embedding_report(dom, cod, fns, fam)
        except ValueError as exc:
            return type(exc), str(exc)

    def _check(self, dom, cod):
        fam = compacts(dom)
        for carrier in ("continuous", "all"):
            fns = compact_open(dom, cod, carrier).functions
            funcspaces._function_space.cache_clear()
            cold = self._outcome(dom, cod, fns, fam)
            funcspaces._function_space.cache_clear()
            compact_open(dom, cod, carrier).min_nbhds
            hits = funcspaces._function_space.cache_info().hits
            assert self._outcome(dom, cod, fns, fam) == cold, (dom, cod, carrier)
            assert funcspaces._function_space.cache_info().hits == hits + 1

    def test_report_after_compact_open_all_pairs_up_to_two_points(self, corpus3):
        small = [space for n, _, space in corpus3 if n <= 2]
        for dom in small:
            for cod in small:
                self._check(dom, cod)

    def test_report_after_compact_open_seeded_four_point_sample(self, corpus_n4):
        rng = random.Random(10)
        for _ in range(12):
            self._check(rng.choice(corpus_n4), rng.choice(corpus_n4))


def _class_representatives(max_n: int) -> list:
    """The first member of each homeomorphism class with at most max_n points: 13 for max_n 3."""
    return [members[0][1] for n in range(1, max_n + 1) for _, members in homeomorphism_classes(n)]


class TestImageTupleCarriers:
    """A space holds its carrier as image tuples; its maps are built on first read and equal the public ones."""

    def test_compact_open_reads_the_continuous_maps(self, corpus3):
        classes = _class_representatives(3)
        assert len(classes) ** 2 == 169
        for dom in classes:
            for cod in classes:
                _cold()
                functions = compact_open(dom, cod).functions
                assert functions == continuous_maps(dom, cod), (dom, cod)
        for _, _, dom in corpus3:
            for _, _, cod in corpus3:
                assert compact_open(dom, cod, "all").functions == tuple(all_maps(dom.n, cod.n)), (dom, cod)

    def test_the_continuous_maps_are_keyed_by_the_tuples_they_carry(self, monkeypatch):
        # set_open_topology finds compact_open's space for continuous_maps, pickled or not, without reading a map; a list of the
        # same maps is validated and finds it too; a mismatched map is refused and leaves the cache as it was
        read = []
        for name in ("_SHAPE", "_IMAGE"):
            monkeypatch.setattr(funcspaces, name, lambda f, real=getattr(funcspaces, name): read.append(f) or real(f))
        classes = _class_representatives(3)
        for x in classes:
            for y in classes:
                _cold()
                maps, fam = continuous_maps(x, y), compacts(x)
                assert set_open_topology(maps, fam, x, y) is compact_open(x, y) and not read, (x, y)
                assert set_open_topology(pickle.loads(pickle.dumps(maps)), fam, x, y) is compact_open(x, y) and not read
                assert set_open_topology(list(maps), fam, x, y) is compact_open(x, y), (x, y)
                assert len(read) == 2 * len(maps)
                before = funcspaces._function_space.cache_info()
                wider = discrete_space(y.n + 1)
                for carrier, cod in ((maps + (FiniteMap(x.n, y.n + 1, (y.n,) * x.n),), y), (maps, wider)):
                    with pytest.raises(ValueError, match="carrier maps must go from dom to cod"):
                        set_open_topology(carrier, fam, x, cod)
                assert funcspaces._function_space.cache_info() == before
                read.clear()

    def test_the_pairs_item_builds_one_space(self, corpus_n4):
        # the item of the pairs benchmark: the maps, the compact-open box, then the report on the maps;
        # the report's carrier of FiniteMaps finds the space that compact_open keyed by image tuples
        rng = random.Random(31)
        for _ in range(6):
            x, y = rng.choice(corpus_n4), rng.choice(corpus_n4)
            _cold()
            maps_xy = continuous_maps(x, y)
            compact_open(x, y).min_nbhds
            report = mu_embedding_report(x, y, maps_xy, compacts(x))
            info = funcspaces._function_space.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1), (x, y)
            assert report.continuous and report.open_onto_image and report.injective


class TestCompactOpen:
    def test_discrete_square_is_discrete(self):
        fs = compact_open(D2, D2)
        assert len(fs.materialize().opens) == 16

    def test_indiscrete_dom_constants(self):
        fs = compact_open(I2, D2)
        assert fs.size == 2
        assert len(fs.materialize().opens) == 4

    def test_unknown_carrier_is_refused(self):
        with pytest.raises(ValueError, match="expected 'continuous' or 'all'"):
            compact_open(S, S, "bogus")

    def test_indiscrete_cod_indiscrete(self):
        fs = compact_open(D2, I2)
        assert fs.materialize().opens == (0, (1 << fs.size) - 1)

    def test_materialize_guard(self):
        from topolab import funcspaces, limits

        d3 = discrete_space(3)
        fs = compact_open(d3, d3)  # 27 maps, discrete: 2^27 opens
        limits.set_limits(opens=1 << 20)
        try:
            with pytest.raises(SizeLimitExceeded):
                fs.materialize().opens
        finally:
            limits.reset_limits()

    def test_neighbourhood_test_agrees_with_materialized(self, corpus3):
        # the two openness strategies must agree on small instances; carriers
        # whose topology is over the guard stay lazy by design
        for _, _, dom in corpus3:
            for _, _, cod in corpus3:
                fs = compact_open(dom, cod)
                if fs.size > 10:
                    continue
                topo = fs.materialize()
                for mask in range(1 << fs.size):
                    assert fs.is_open(mask) == topo.is_open(mask)

    def test_topology_matches_subbase_closure_oracle(self, corpus3):
        # the subbasic sets (A, W) by definition, closed literally
        for _, _, dom in corpus3[:5]:
            for _, _, cod in corpus3[:5]:
                for carrier in ("continuous", "all"):
                    fs = compact_open(dom, cod, carrier)
                    subbase = {
                        sum(1 << fi for fi, f in enumerate(fs.functions) if is_subset(f.image_of(a), w))
                        for a in compacts(dom)
                        for w in cod.opens
                    }
                    assert fs.materialize().opens == slow_subbase_closure(fs.size, sorted(subbase))
                    for a in fs.family:
                        for w in cod.opens:
                            assert fs.subbasic(a, w) in subbase

    def test_refines_every_smaller_set_open(self):
        # any set-open topology with a subfamily of the compacts is coarser
        for dom, cod in ((S, S), (D2, S), (S, D2)):
            fns = continuous_maps(dom, cod)
            co = compact_open(dom, cod)
            sub = set_open_topology(fns, (compacts(dom)[0],), dom, cod)
            for mask in range(1 << len(fns)):
                if sub.is_open(mask):
                    assert co.is_open(mask)


class TestMu:
    def test_identity_and_constant(self):
        fam = P2
        got = mu(S, S, fam, FiniteMap(2, 2, (0, 1)))
        assert got == tuple(fam.index(a) for a in fam)
        got_const = mu(S, S, fam, FiniteMap(2, 2, (1, 1)))
        assert got_const == (1, 1, 1)

    def test_image_not_in_family(self):
        # the image ∅ of the empty member is no compact
        with pytest.raises(ImageNotInFamily):
            mu(S, S, (0,) + P2, FiniteMap(2, 2, (0, 1)))

    def test_requires_continuity(self):
        with pytest.raises(ValueError):
            mu(S, S, P2, FiniteMap(2, 2, (1, 0)))

    @pytest.mark.parametrize("member", [0b100, -1])
    def test_member_outside_the_domain_is_refused(self, member):
        # refused by the sorted-ends check of set_open_topology, not by an
        # IndexError from reading the image of a point the map does not have
        f = continuous_maps(S, D2)[0]
        with pytest.raises(ValueError, match="subsets of the domain"):
            mu(S, D2, [member], f)


class TestEmbedding:
    def test_sierpinski_pair(self):
        rep = mu_embedding_report(S, S, continuous_maps(S, S), P2)
        assert rep.continuous and rep.open_onto_image and rep.injective
        assert rep.family_has_singletons

    def test_family_without_singletons_flagged(self):
        carrier = (FiniteMap(2, 2, (0, 0)), FiniteMap(2, 2, (1, 1)))
        rep = mu_embedding_report(D2, D2, carrier, (0b11,))
        assert not rep.family_has_singletons
        assert rep.injective  # constants still have distinct images of X

    def test_single_function_carrier(self):
        rep = mu_embedding_report(S, S, (FiniteMap(2, 2, (1, 1)),), P2)
        assert rep.continuous and rep.open_onto_image and rep.injective

    def test_three_point_sample(self, corpus_n3):
        # deterministic sample; the acceptance suite sweeps all 29 x 29 pairs
        fam = tuple(nonempty_subsets(3))
        for dom in corpus_n3[::4]:
            for cod in corpus_n3[::4]:
                rep = mu_embedding_report(dom, cod, continuous_maps(dom, cod), fam)
                assert rep.continuous and rep.open_onto_image and rep.injective, (dom, cod)


def _families_without_singletons(n: int) -> list[tuple[int, ...]]:
    """The non-singleton subsets, the whole set, and the overlapping consecutive pairs."""
    if n < 2:
        return []
    big = tuple(m for m in nonempty_subsets(n) if m & (m - 1))
    return list(dict.fromkeys((big, ((1 << n) - 1,), tuple(0b11 << i for i in range(n - 1)))))


class TestEmbeddingOracle:
    """mu_embedding_report against cylinder preimages and images of opens."""

    def test_full_family(self, corpus3):
        for _, _, dom in corpus3:
            fam = tuple(nonempty_subsets(dom.n))
            for _, _, cod in corpus3:
                fns = continuous_maps(dom, cod)
                got = _flags(mu_embedding_report(dom, cod, fns, fam))
                assert got == mu_embedding_by_definition(dom, cod, fns, fam), (dom, cod)

    def test_families_without_singletons(self, corpus3):
        # the subsets of two or more points, {X}, the consecutive pairs and the
        # non-empty opens and closeds, on every pair with n <= 3: where a family
        # lacks a singleton, P_f is pulled back by the Vietoris nearness, not U_f
        non_injective = 0
        for _, _, dom in corpus3:
            opens = tuple(o for o in dom.opens if o)
            for fam in dict.fromkeys(_families_without_singletons(dom.n) + [opens, closeds(dom)]):
                for _, _, cod in corpus3:
                    fns = continuous_maps(dom, cod)
                    got = _flags(mu_embedding_report(dom, cod, fns, fam))
                    assert got == mu_embedding_by_definition(dom, cod, fns, fam), (dom, cod, fam)
                    assert got[1]  # open onto its image by theorem: P_f ⊆ U_f ⊆ sat(U_f)
                    non_injective += not got[2]
        assert non_injective > 1000  # the definition's route through the images of opens is exercised

    def test_shuffled_carriers(self, corpus3):
        # the columns must not assume the order of all_maps; an "all"
        # carrier holding a discontinuous map is refused through mu
        rng = random.Random(91)
        for _, _, dom in corpus3[::2]:
            fams = [tuple(nonempty_subsets(dom.n))] + _families_without_singletons(dom.n)
            for _, _, cod in corpus3[::2]:
                every = len(continuous_maps(dom, cod)) == cod.n ** dom.n
                for carrier in ("continuous", "all"):
                    fns = list(compact_open(dom, cod, carrier).functions)
                    rng.shuffle(fns)
                    for fam in fams:
                        if carrier == "all" and not every:
                            with pytest.raises(ValueError, match="continuous map"):
                                mu_embedding_report(dom, cod, fns, fam)
                        else:
                            got = _flags(mu_embedding_report(dom, cod, fns, fam))
                            assert got == mu_embedding_by_definition(dom, cod, fns, fam), (dom, cod, fam)

    def test_discrete_four_point_square(self):
        # the families whose mu is injective: the definition lists no carrier opens then
        d4 = discrete_space(4)
        fns = list(continuous_maps(d4, d4))
        singletons = (1, 2, 4, 8)
        for carrier in (fns, random.Random(256).sample(fns, len(fns))):
            for fam in (singletons, singletons + (15,), tuple(nonempty_subsets(4))):
                got = _flags(mu_embedding_report(d4, d4, carrier, fam))
                assert got == mu_embedding_by_definition(d4, d4, carrier, fam) == (True, True, True, True)

    def test_non_injective_needs_no_materialized_topology(self):
        # the carrier topology of the 27 maps has 24930 opens; the report
        # compares neighbourhoods and stays under a guard of 1000 opens
        d3 = discrete_space(3)
        fns = continuous_maps(d3, d3)
        fam = (0b011, 0b110)
        expected = mu_embedding_by_definition(d3, d3, fns, fam)
        assert not expected[2]
        limits.set_limits(opens=1000)
        try:
            got = _flags(mu_embedding_report(d3, d3, fns, fam))
        finally:
            limits.reset_limits()
        assert got == expected

    def test_a_family_with_the_singletons_is_decided_by_the_theorem(self, monkeypatch):
        # P_f = U_f when the singletons are in the family: the report reads no neighbourhood and no pull-back
        def refuse(*args, **kwargs):
            raise AssertionError("the singleton route reads no neighbourhood")

        monkeypatch.setattr(FunctionSpace, "min_nbhds", property(refuse))
        monkeypatch.setattr(FunctionSpace, "_pull_back", refuse)
        classes = _class_representatives(3)
        for dom in classes:
            singletons = tuple(1 << x for x in range(dom.n))
            for fam in dict.fromkeys((tuple(nonempty_subsets(dom.n)), singletons, singletons + (dom.full,))):
                for cod in classes:
                    fns = continuous_maps(dom, cod)
                    got = _flags(mu_embedding_report(dom, cod, fns, fam))
                    assert got == mu_embedding_by_definition(dom, cod, fns, fam), (dom, cod, fam)

    def test_errors_of_mu_are_kept(self):
        with pytest.raises(ValueError):
            mu_embedding_report(S, S, (FiniteMap(2, 2, (1, 0)),), P2)
        with pytest.raises(ImageNotInFamily):
            mu_embedding_report(S, S, (FiniteMap(2, 2, (0, 1)),), (0,) + P2)

    def test_first_refused_map_decides_the_error(self):
        # mu refuses a discontinuous map with ValueError and a map sending a
        # member to ∅, no compact, with ImageNotInFamily; the first such map
        # wins, and with the empty member in the family every map is refused
        swap = FiniteMap(2, 2, (1, 0))  # not continuous on S
        const = FiniteMap(2, 2, (1, 1))
        with_empty = (0,) + P2
        with pytest.raises(ValueError):
            mu_embedding_report(S, S, (const, swap), P2)
        with pytest.raises(ValueError):
            mu_embedding_report(S, S, (swap, const), with_empty)
        with pytest.raises(ImageNotInFamily):
            mu_embedding_report(S, S, (const, swap), with_empty)


def _families_with_some_singletons(n: int) -> list[tuple[int, ...]]:
    """Families holding a singleton but not every singleton of their larger members; the second holds the empty set."""
    if n < 2:
        return []
    big = tuple(m for m in nonempty_subsets(n) if m & (m - 1))
    return [(0b1,) + big, (0, 0b1, (1 << n) - 1)]


class TestColumnTablesOracle:
    """Column-built point tables, image groups, continuity masks and pruned pull-backs against the per-map, all-slots route."""

    @staticmethod
    def _check(fs):
        dom, cod = fs.dom, fs.cod
        points = image_groups_by_maps(fs.functions, [1 << x for x in range(dom.n)])
        assert fs._points == tuple(tuple(slot.get(1 << y, 0) for y in range(cod.n)) for slot in points)
        expected = sum(1 << i for i, f in enumerate(fs.functions) if is_continuous(dom, cod, f))
        assert fs._continuous == expected
        groups = image_groups_by_maps(fs.functions, fs.family)
        assert tuple(fs._table(a) for a in fs.family) == groups
        for a, slot in zip(fs.family, groups):
            assert fs.images(a) == {img - 1: m for img, m in slot.items()}
            for w in fs.cod.opens:
                assert fs.subbasic(a, w) == sum(m for img, m in slot.items() if img & ~w == 0)
        assert fs.min_nbhds == set_open_min_nbhds_by_maps(fs)

    @staticmethod
    def _families(n: int) -> list[tuple[int, ...]]:
        return (
            [tuple(nonempty_subsets(n))]
            + _families_without_singletons(n)
            + _families_with_some_singletons(n)
        )

    def test_all_pairs_up_to_three_points(self, corpus3):
        for _, _, dom in corpus3:
            for fam in self._families(dom.n):
                for _, _, cod in corpus3:
                    for carrier in ("continuous", "all"):
                        fns = compact_open(dom, cod, carrier).functions
                        self._check(set_open_topology(fns, fam, dom, cod))

    def test_seeded_four_point_sample(self, corpus_n4):
        rng = random.Random(5)
        pairs = [(rng.choice(corpus_n4), rng.choice(corpus_n4)) for _ in range(12)]
        for dom, cod in pairs:
            for fam in self._families(4):
                for carrier in ("continuous", "all"):
                    fns = compact_open(dom, cod, carrier).functions
                    self._check(set_open_topology(fns, fam, dom, cod))

    def test_empty_carrier(self):
        self._check(set_open_topology((), P2, S, discrete_space(0)))

    def test_shuffled_carriers(self, corpus3, corpus_n4):
        # the columns must not assume the order of all_maps
        rng = random.Random(19)
        pairs = [(dom, cod) for _, _, dom in corpus3[::3] for _, _, cod in corpus3[::3]]
        pairs += [(rng.choice(corpus_n4), rng.choice(corpus_n4)) for _ in range(4)]
        for dom, cod in pairs:
            for carrier in ("continuous", "all"):
                fns = list(compact_open(dom, cod, carrier).functions)
                rng.shuffle(fns)
                for fam in self._families(dom.n):
                    self._check(set_open_topology(fns, fam, dom, cod))

    def test_discrete_four_point_square(self):
        d4 = discrete_space(4)
        fns = list(compact_open(d4, d4).functions)
        shuffled = random.Random(256).sample(fns, len(fns))
        assert len(fns) == 256 and shuffled != fns
        for carrier in (fns, shuffled):
            for fam in self._families(4):
                self._check(set_open_topology(carrier, fam, d4, d4))

    def test_codomain_past_one_byte(self):
        # a value of 256 points or more is read as two base-256 digits; the
        # 2^300 opens of the codomain are not listed
        d2, d300 = discrete_space(2), discrete_space(300)
        rng = random.Random(300)
        fns = [FiniteMap(2, 300, (rng.randrange(300), rng.randrange(300))) for _ in range(400)]
        for fam in ((1, 2, 3), (3,)):
            fs = set_open_topology(fns, fam, d2, d300)
            points = image_groups_by_maps(fns, (1, 2))
            assert fs._points == tuple(tuple(slot.get(1 << y, 0) for y in range(300)) for slot in points)
            assert fs._continuous == full_mask(400)
            assert tuple(fs._table(a) for a in fam) == image_groups_by_maps(fns, fam)
            assert fs.min_nbhds == set_open_min_nbhds_by_maps(fs)


class TestLazyTables:
    """Image tables are built when first read; on a family holding the singletons the embedding report reads none."""

    @staticmethod
    def _cold_report(dom, cod, fam):
        funcspaces._function_space.cache_clear()
        fns = continuous_maps(dom, cod)
        mu_embedding_report(dom, cod, fns, fam)
        return set_open_topology(fns, fam, dom, cod)

    def test_default_target_builds_no_image_table(self, corpus3, corpus_n4):
        # the box, P_f = U_f and the mu values all read the image columns
        pairs = [(dom, cod) for _, _, dom in corpus3 for _, _, cod in corpus3[::4]]
        pairs += [(discrete_space(4), corpus_n4[100]), (corpus_n4[200], discrete_space(4))]
        for dom, cod in pairs:
            fs = self._cold_report(dom, cod, tuple(nonempty_subsets(dom.n)))
            assert set(fs._tables) == {0}, (dom, cod)

    def test_missing_target_image_refuses_the_same_first_map(self, corpus3, monkeypatch):
        # the report must refuse through mu, on the first map in carrier order
        # that mu refuses one by one; the image ∅ of an empty member is the
        # one image missing from the compacts
        real_mu = funcspaces.mu
        called = []

        def recording_mu(dom, cod, fam, f):
            called.append(f)
            return real_mu(dom, cod, fam, f)

        monkeypatch.setattr(funcspaces, "mu", recording_mu)
        refusals = {ValueError: 0, ImageNotInFamily: 0}
        for _, _, dom in corpus3:
            for fam in (tuple(nonempty_subsets(dom.n)), tuple(range(1 << dom.n))):
                for _, _, cod in corpus3[::2]:
                    for carrier in ("continuous", "all"):
                        fns = compact_open(dom, cod, carrier).functions
                        expected = None
                        for f in fns:
                            try:
                                real_mu(dom, cod, fam, f)
                            except (ValueError, ImageNotInFamily) as exc:
                                expected = (f, type(exc), str(exc))
                                break
                        called.clear()
                        try:
                            mu_embedding_report(dom, cod, fns, fam)
                            got = None
                        except (ValueError, ImageNotInFamily) as exc:
                            got = (called[-1], type(exc), str(exc))
                        assert got == expected, (dom, cod, carrier, fam)
                        if expected is not None:
                            refusals[expected[1]] += 1
        assert min(refusals.values()) > 200


class TestPruningLemma:
    """With the singletons in the family, the Vietoris pull-back P_f is U_f."""

    def test_vietoris_pull_back_is_the_minimal_neighbourhood(self, corpus3):
        for _, _, dom in corpus3:
            singletons = tuple(1 << x for x in range(dom.n))
            for fam in (tuple(nonempty_subsets(dom.n)), singletons, singletons + (dom.full,)):
                for _, _, cod in corpus3:
                    for carrier in ("continuous", "all"):
                        fns = compact_open(dom, cod, carrier).functions
                        fs = set_open_topology(fns, fam, dom, cod)
                        assert fs._kept == singletons
                        assert vietoris_pull_back_by_maps(fs) == fs.min_nbhds, (dom, cod, fam)


class TestHyperspaceRoute:
    """The box against the pull-back through the upper Vietoris hyperspace."""

    def test_labelled_pairs_up_to_three_points(self, corpus3):
        for _, _, dom in corpus3:
            for _, _, cod in corpus3:
                for carrier in ("continuous", "all"):
                    fs = compact_open(dom, cod, carrier)
                    assert fs.min_nbhds == upper_vietoris_pull_back_by_maps(fs), (dom, cod, carrier)

    def test_class_pairs_up_to_four_points(self):
        # the "all" carrier and the compacts depend on the sizes only, and so
        # do their image groups, which are built map by map once per sizes
        reps = [rep for n in range(1, 5) for rep, _ in homeomorphism_classes(n)]
        all_groups = {}
        for dom in reps:
            for cod in reps:
                fs = compact_open(dom, cod)
                assert fs.min_nbhds == upper_vietoris_pull_back_by_maps(fs), (dom, cod)
                fs = compact_open(dom, cod, "all")
                key = dom.n, cod.n
                if key not in all_groups:
                    all_groups[key] = image_groups_by_maps(fs.functions, compacts(dom))
                assert fs.min_nbhds == hyperspace_pull_back(upper_vietoris, cod, fs.size, all_groups[key]), (dom, cod)


class TestNoHyperspace:
    """Neighbourhoods and P_f read the codomain's U_y and build no hyperspace on its subsets."""

    @pytest.fixture(autouse=True)
    def no_hyperspace(self, monkeypatch):
        def refuse(space, family):
            raise AssertionError(f"built a hyperspace on {len(family)} subsets")

        monkeypatch.setattr(hyperspaces, "_hyperspace", refuse)

    def test_box_on_a_twenty_point_codomain(self):
        fs = compact_open(discrete_space(1), discrete_space(20))
        assert fs.min_nbhds == tuple(1 << i for i in range(20))

    def test_singleton_free_report_on_a_sixteen_point_codomain(self):
        # {X} gives g(X) ⊆ f(X) around f and P_f = { g : g(X) = f(X) }, so mu
        # is not continuous; f and f after the swap of the points share f(X)
        d2, d16 = discrete_space(2), discrete_space(16)
        report = mu_embedding_report(d2, d16, continuous_maps(d2, d16), [0b11])
        assert _flags(report) == (False, True, False, False)


class TestContinuityMask:
    """The carrier-continuity mask against is_continuous, map by map."""

    @staticmethod
    def _check(dom, cod):
        fs = set_open_topology(tuple(all_maps(dom.n, cod.n)), (), dom, cod)
        expected = sum(1 << i for i, f in enumerate(fs.functions) if is_continuous(dom, cod, f))
        assert fs._continuous == expected, (dom, cod)

    def test_all_pairs_up_to_two_points(self, corpus3):
        small = [space for n, _, space in corpus3 if n <= 2] + [discrete_space(0)]
        for dom in small:
            for cod in small:
                self._check(dom, cod)

    def test_seeded_three_point_sample(self, corpus_n3):
        rng = random.Random(3)
        for _ in range(60):
            self._check(rng.choice(corpus_n3), rng.choice(corpus_n3))


class TestProjectionCompose:
    def test_singleton_source(self):
        pc = projection_compose(S, S, 0b10)
        assert pc.image == (0, 1, 1)

    def test_full_set_constant(self):
        pc = projection_compose(S, S, 0b11)
        fns = continuous_maps(S, S)
        ks = compacts(S)
        const1 = fns.index(FiniteMap(2, 2, (1, 1)))
        assert ks[pc.image[const1]] == 0b10

    def test_continuous_tau_co_to_tau_v(self, corpus3):
        # preimages of Vietoris opens are compact-open open; sampled here,
        # swept in full by the vietoris-inclusion suite
        sample = [entry for entry in corpus3 if entry[0] <= 2] + corpus3[5:34:6]
        for _, _, dom in sample:
            for _, _, cod in sample:
                fs = compact_open(dom, cod)
                ks = compacts(cod)
                hyper = vietoris(cod, ks)
                for a in compacts(dom):
                    pc = projection_compose(dom, cod, a)
                    groups = {k: sum(1 << fi for fi, v in enumerate(pc.image) if v == k) for k in pc.image}
                    assert fs.images(a) == groups
                    for o in hyper.topology.opens:
                        pre = 0
                        for fi in range(fs.size):
                            if o >> pc.image[fi] & 1:
                                pre |= 1 << fi
                        assert fs.is_open(pre)


@pytest.fixture()
def map_work(monkeypatch):
    """Counts of FiniteMap hashes and FiniteMap checks (``__post_init__``) from here on."""
    counts = {"hash": 0, "check": 0}
    real_hash, real_check = FiniteMap.__hash__, FiniteMap.__post_init__

    def counting_hash(f):
        counts["hash"] += 1
        return real_hash(f)

    def counting_check(f):
        counts["check"] += 1
        real_check(f)

    monkeypatch.setattr(FiniteMap, "__hash__", counting_hash)
    monkeypatch.setattr(FiniteMap, "__post_init__", counting_check)
    return counts


@pytest.fixture()
def constructed(monkeypatch):
    """Every ``FiniteMap`` made from here on: ``FiniteMap(...)`` and ``maps._unchecked_maps`` both set the image through ``maps._put_image``."""
    made = []
    real = maps._put_image

    def put_image(f, image):
        made.append(image)
        real(f, image)

    monkeypatch.setattr(maps, "_put_image", put_image)
    FiniteMap(1, 1, (0,))
    next(maps._unchecked_maps(1, 1, [(0,)]))
    assert made == [(0,), (0,)]  # both routes are counted
    made.clear()
    return made


def _cold():
    continuous_maps.cache_clear()
    funcspaces._continuous_images.cache_clear()
    funcspaces._function_space.cache_clear()


class TestNoPerMapWork:
    """The function-space routes hash none of the library's own maps and check none of them again."""

    def test_compact_open_then_report(self, map_work, corpus_n4):
        for dom, cod in [(corpus_n4[100], corpus_n4[200]), (discrete_space(4), discrete_space(4)), (S, D2)]:
            _cold()
            fs = compact_open(dom, cod)
            fs.min_nbhds
            hits = funcspaces._function_space.cache_info().hits
            report = mu_embedding_report(dom, cod, continuous_maps(dom, cod), compacts(dom))
            assert funcspaces._function_space.cache_info().hits == hits + 1
            assert report.continuous and report.injective
        assert map_work == {"hash": 0, "check": 0}

    def test_inclusion_pair(self, map_work):
        (xi, x), (yi, y) = homeomorphism_classes(4)[20][1][0], homeomorphism_classes(3)[4][1][0]
        _cold()
        checked, failed, witnesses = suites._inclusion_pair(((4, xi, x), (3, yi, y)))
        assert checked > 0 and failed == 0 and witnesses == []
        assert map_work == {"hash": 0, "check": 0}

    @pytest.mark.parametrize("suite", ["vietoris-inclusion", "embedding"])
    def test_the_pair_suites_build_no_map(self, suite, constructed, tmp_path):
        # both read the image tuples of their carriers; no FiniteMap is made at max-n 3
        _cold()
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", suite, "--max-n", "3", "--report", str(report)]) == 0
        assert constructed == []

    def test_hashing_comparing_and_pickling_a_space_build_no_map(self, constructed, corpus_n4):
        # a space is its image tuples: equality, hash, repr and the pickle round trip read them
        _cold()
        fs = compact_open(corpus_n4[100], corpus_n4[200])
        twin = pickle.loads(pickle.dumps(fs))
        assert twin == fs and twin is not fs and hash(twin) == hash(fs) and {fs: 1}[twin] == 1
        assert repr(twin) == repr(fs) and twin != compact_open(corpus_n4[100], corpus_n4[200], "all")
        assert constructed == []

    def test_maps_equal_their_public_twins(self, map_work, corpus3):
        built = []
        for _, _, dom in corpus3:
            for _, _, cod in corpus3:
                _cold()
                built += continuous_maps(dom, cod)
                built += compact_open(dom, cod, "all").functions
        assert map_work["check"] == 0
        assert len(built) > 10000
        for f in built:
            twin = FiniteMap(f.dom_n, f.cod_n, f.image)
            assert f == twin and hash(f) == hash(twin)
        assert map_work["check"] == len(built)


class TestCarrierGuard:
    """The carrier is the function space's ground set, so the point guard bounds it."""

    def test_refused_before_any_map_is_built(self, constructed):
        d8 = discrete_space(8)
        _cold()
        limits.set_limits(points=1000)
        try:
            for carrier in ("continuous", "all"):
                with pytest.raises(SizeLimitExceeded, match="over the limit 1000"):
                    compact_open(d8, d8, carrier)
        finally:
            limits.reset_limits()
        assert constructed == []

    @pytest.mark.parametrize("carrier", ["continuous", "all"])
    def test_bound_is_the_carrier_size(self, carrier):
        d3 = discrete_space(3)  # 27 maps, all continuous

        def build(points):
            limits.set_limits(points=points)
            try:
                return compact_open(d3, d3, carrier)
            finally:
                limits.reset_limits()

        _cold()
        with pytest.raises(SizeLimitExceeded):
            build(26)
        assert build(27).size == 27
        with pytest.raises(SizeLimitExceeded):  # the carrier is cached now, built under a larger guard
            build(26)


def test_the_guard_counts_only_partial_maps_that_extend():
    # five open points below a sixth whose neighbourhood is the whole space: a continuous map into a discrete
    # space is constant, so 4 maps, though the first five points alone take 4^5 = 1024 values
    x, y = FiniteSpace(6, (1, 2, 4, 8, 16, 63)), discrete_space(4)
    _cold()
    limits.set_limits(points=1000)
    try:
        fs = compact_open(x, y)
        with pytest.raises(SizeLimitExceeded) as refused:  # no partial map of a discrete domain is dropped
            compact_open(discrete_space(5), y)
    finally:
        limits.reset_limits()
    assert fs.functions == continuous_maps(x, y) == continuous_maps_by_preimages(x, y) and fs.size == 4
    expected = "the continuous maps on the first 5 domain points would have 1024 points, over the limit 1000"
    assert str(refused.value) == expected

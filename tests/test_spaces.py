import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from oracles import (
    brute_force_topologies,
    canonical_form_by_relabelling,
    closure_by_closeds,
    finest_topology_with_continuous,
    homeomorphic_by_search,
    interior_by_opens,
    is_topology_family,
    is_compact_by_covers,
    is_locally_compact_by_definition,
    is_nested_by_definition,
    is_t1_by_closeds,
    is_t2_by_opens,
    is_t3_by_opens,
    preimage_of,
    product_opens_by_boxes,
    relabel_by_opens,
    shrink_between_by_opens,
    slow_subbase_closure,
    topologies_by_candidate_scan,
    union_closure,
)
import topolab
from topolab import limits, spaces
from topolab.bitsets import complement, is_subset, iter_bits
from topolab.errors import NotATopology, NotOpen, SizeLimitExceeded
from topolab.maps import FiniteMap
from topolab.spaces import (
    FiniteSpace,
    closure,
    discrete_space,
    enumerate_topologies,
    final_from_edges,
    generate_from_subbase,
    homeomorphism_classes,
    indiscrete_space,
    interior,
    is_t1,
    is_t3,
    make_space,
    minimal_open_nbhd,
    product_space,
    shrink_between,
    sierpinski_space,
    space_report,
)

S = sierpinski_space()


class TestMakeSpace:
    def test_discrete_accepted(self):
        sp = make_space(2, [0b00, 0b01, 0b10, 0b11])
        assert sp.opens == (0, 1, 2, 3)

    def test_sierpinski_accepted(self):
        sp = make_space(2, [0b00, 0b10, 0b11])
        assert sp.opens == (0, 2, 3)

    def test_missing_full_rejected(self):
        with pytest.raises(NotATopology) as exc:
            make_space(2, [0b00, 0b01, 0b10])
        assert "full" in exc.value.axiom or "union" in exc.value.axiom

    def test_union_violation_has_witness(self):
        with pytest.raises(NotATopology) as exc:
            make_space(3, [0b000, 0b001, 0b010, 0b111])
        assert exc.value.witness == ((0,), (1,))

    def test_duplicates_and_order_canonicalized(self):
        a = make_space(2, [0b11, 0b00, 0b10, 0b10])
        b = make_space(2, [0b00, 0b10, 0b11])
        assert a == b

    @pytest.mark.parametrize("opens", [[-1], [0, -2, 3], [0, 0b100], [-1, 0b100]])
    def test_masks_outside_the_ground_set_are_refused_first(self, opens):
        # before any neighbourhood is built: a negative mask has no end of bits to iterate
        with pytest.raises(ValueError, match="does not fit the ground set"):
            make_space(2, opens)

    @pytest.mark.parametrize(
        "build",
        [lambda n: generate_from_subbase(n, []), discrete_space, indiscrete_space],
        ids=["generate_from_subbase", "discrete_space", "indiscrete_space"],
    )
    def test_a_negative_size_is_refused_by_name(self, build):
        with pytest.raises(ValueError, match="ground set size must be non-negative"):
            build(-1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_family_against_the_pairwise_scan(self, n):
        # the count test accepts exactly the topologies, and a refusal keeps the scan's axiom and witness
        subsets = range(1 << n)
        refused = 0
        for bits in range(1 << len(subsets)):
            fam = tuple(m for m in subsets if bits >> m & 1)
            try:
                spaces._validate_axioms(n, fam)
            except NotATopology as exc:
                expected = (exc.axiom, exc.witness)
            else:
                expected = FiniteSpace(n, spaces.min_nbhds_of(n, fam))
            try:
                got = make_space(n, fam)
            except NotATopology as exc:
                got = (exc.axiom, exc.witness)
                refused += 1
            assert got == expected, fam
            assert isinstance(got, FiniteSpace) == is_topology_family(n, fam), fam
        assert (1 << len(subsets)) - refused == (1, 1, 4, 29)[n]

    def test_the_pairs_are_scanned_only_on_a_refusal(self, monkeypatch):
        scans = []
        real = spaces._validate_axioms
        monkeypatch.setattr(spaces, "_validate_axioms", lambda n, fam: scans.append(n) or real(n, fam))
        assert make_space(10, range(1 << 10)) == discrete_space(10)
        assert scans == []
        with pytest.raises(NotATopology) as exc:
            make_space(3, [0b000, 0b011, 0b110, 0b111])
        assert (exc.value.axiom, exc.value.witness) == ("intersection not open", ((0, 1), (1, 2)))
        assert scans == [3]

    def test_a_count_over_its_memo_bound_falls_back_to_the_scan(self, monkeypatch):
        monkeypatch.setattr(limits, "OPEN_COUNT_MEMO", 2)
        assert make_space(3, range(8)) == discrete_space(3)
        with pytest.raises(NotATopology) as exc:
            make_space(3, [0b000, 0b001, 0b010, 0b111])
        assert (exc.value.axiom, exc.value.witness) == ("union not open", ((0,), (1,)))


class TestSubbase:
    def test_discrete_from_singletons(self):
        assert generate_from_subbase(2, [0b01, 0b10]) == discrete_space(2)

    @pytest.mark.parametrize("subbase", [[-1], [0b01, -2], [0b100]])
    def test_masks_outside_the_ground_set_are_refused(self, subbase):
        with pytest.raises(ValueError, match="does not fit the ground set"):
            generate_from_subbase(2, subbase)

    def test_empty_subbase_is_indiscrete(self):
        assert generate_from_subbase(2, []).opens == (0, 0b11)

    def test_three_point_example(self):
        got = generate_from_subbase(3, [0b011, 0b110])
        assert got.opens == (0, 0b010, 0b011, 0b110, 0b111)

    @pytest.mark.parametrize("subbase", [[], [0b01], [0b011, 0b110], [0b101], [0b001, 0b010, 0b100]])
    def test_matches_literal_closure_oracle(self, subbase):
        assert generate_from_subbase(3, subbase).opens == slow_subbase_closure(3, subbase)

    def test_repeated_big_neighbourhoods_are_listed_once(self):
        # 2^16 points: the indiscrete space repeats one full mask object, the
        # other space repeats it at every point but 0
        n = 1 << 16
        full = (1 << n) - 1
        assert generate_from_subbase(n, []).opens == (0, full)
        assert generate_from_subbase(n, [0b1]).opens == (0, 0b1, full)

    def test_indiscrete_space_on_2_to_the_20_points(self):
        # the listing builds the up-set of its one pivot over all 2^20 points,
        # which must take time linear in the points
        n = 1 << 20
        start = time.perf_counter()
        assert indiscrete_space(n).opens == (0, (1 << n) - 1)
        assert time.perf_counter() - start < 3

    def test_equal_neighbourhoods_held_as_distinct_objects(self):
        n = 1 << 12
        full = (1 << n) - 1
        space = FiniteSpace(n, tuple((full << 1) >> 1 for _ in range(n)))
        assert len({id(u) for u in space.nbhds}) == n
        assert space.opens == (0, full)

    def test_minimality_against_all_topologies(self):
        subbase = [0b011, 0b110]
        got = set(generate_from_subbase(3, subbase).opens)
        for members in brute_force_topologies(3):
            if all(s in members for s in subbase):
                assert got <= set(members)


class TestOperators:
    def test_closure_sierpinski(self):
        assert closure(S, 0b10) == 0b11
        assert closure(S, 0b01) == 0b01

    def test_closure_empty_and_discrete(self):
        assert closure(S, 0) == 0
        d = discrete_space(3)
        for a in range(8):
            assert closure(d, a) == a

    def test_interior(self):
        assert interior(S, 0b01) == 0
        assert interior(S, 0b11) == 0b11
        d = discrete_space(2)
        assert interior(d, 0b01) == 0b01

    def test_interior_closure_duality(self, corpus3):
        for _, _, sp in corpus3:
            for a in range(1 << sp.n):
                assert interior(sp, a) == complement(closure(sp, complement(a, sp.n)), sp.n)

    def test_minimal_open_nbhd(self):
        assert minimal_open_nbhd(S, 1) == 0b10
        assert minimal_open_nbhd(S, 0) == 0b11
        d = discrete_space(3)
        assert [minimal_open_nbhd(d, x) for x in range(3)] == [1, 2, 4]


class TestSeparation:
    def test_discrete_all_true(self):
        d = discrete_space(2)
        assert is_t1(d) and space_report(d).t2 and is_t3(d)

    def test_indiscrete(self):
        i = indiscrete_space(2)
        assert not is_t1(i) and not space_report(i).t2
        assert is_t3(i)  # no (point, closed set) pair separates at all

    def test_sierpinski_not_t3(self):
        assert not is_t3(S)

    def test_report_flags(self):
        rep = space_report(S)
        assert (rep.t1, rep.t2, rep.t3) == (False, False, False)
        assert rep.locally_compact and rep.nested_neighbourhood


class TestCompactness:
    def test_everything_compact(self, corpus3):
        # the definition holds for every subset; test_hyperspaces checks that ``compacts`` lists them all
        for _, _, sp in corpus3:
            for k in range(1 << sp.n):
                assert is_compact_by_covers(sp, k)

    def test_locally_compact_and_nested(self, corpus3):
        # the definitions hold everywhere, and the report says the same
        for _, _, sp in corpus3:
            rep = space_report(sp)
            assert is_locally_compact_by_definition(sp)
            assert rep.locally_compact
            assert is_nested_by_definition(sp)
            assert rep.nested_neighbourhood


class TestShrink:
    def test_indiscrete(self):
        assert shrink_between(indiscrete_space(2), 0b01, 0b11) == 0b11

    def test_discrete(self):
        assert shrink_between(discrete_space(2), 0b01, 0b11) == 0b01

    def test_sierpinski_absent(self):
        assert shrink_between(S, 0b10, 0b10) is None

    def test_not_open_rejected(self):
        with pytest.raises(NotOpen):
            shrink_between(S, 0b01, 0b01)

    def test_never_absent_on_t3(self, corpus3):
        for _, _, sp in corpus3:
            if not is_t3(sp):
                continue
            for o in sp.opens:
                for k in range(1 << sp.n):
                    if is_subset(k, o):
                        assert shrink_between(sp, k, o) is not None


class TestProduct:
    def test_single_factor_copy(self):
        prod, codec = product_space([S])
        assert prod == S
        assert codec.encode((1,)) == 1 and codec.decode(1) == (1,)

    def test_two_discrete_factors(self):
        prod, _ = product_space([discrete_space(2), discrete_space(2)])
        assert prod == discrete_space(4)

    def test_sierpinski_square(self):
        # via the cylinder-subbase oracle: pi0^-1({1}) = {1,3}, pi1^-1({1}) = {2,3}
        prod, codec = product_space([S, S])
        assert prod.opens == slow_subbase_closure(4, [0b1010, 0b1100])
        assert len(prod.opens) == 6
        assert codec.encode((1, 1)) == 3

    def test_matches_union_of_open_boxes(self, corpus3):
        compared = 0
        for _, _, a in corpus3:
            for _, _, b in corpus3:
                if a.n * b.n > 9:
                    continue
                prod, _ = product_space([a, b])
                assert prod.opens == product_opens_by_boxes(a, b), (a, b)
                compared += 1
        assert compared == len(corpus3) ** 2

    def test_codec_roundtrip(self):
        _, codec = product_space([discrete_space(2), discrete_space(3)])
        for i in range(6):
            assert codec.encode(codec.decode(i)) == i

    def test_points_guard(self):
        limits.set_limits(points=8)
        try:
            with pytest.raises(SizeLimitExceeded):
                product_space([discrete_space(3), discrete_space(3)])
        finally:
            limits.reset_limits()


def final_of(target_n, maps):
    """Final topology of (source, map) pairs: each map pushes the neighbourhood edges x -> y, y in U_x, forward."""
    edges = [(f.image[x], f.image[y]) for src, f in maps for x in range(src.n) for y in iter_bits(src.min_nbhds[x])]
    return final_from_edges(target_n, edges)


class TestFinalTopology:
    def test_identity_from_discrete(self):
        assert final_of(2, [(discrete_space(2), FiniteMap(2, 2, (0, 1)))]) == discrete_space(2)

    def test_constant_map_gives_discrete(self):
        got = final_of(2, [(S, FiniteMap(2, 2, (1, 1)))])
        assert got == discrete_space(2)

    def test_two_sierpinski_maps_against_oracle(self):
        maps = [(S, FiniteMap(2, 2, (0, 1))), (S, FiniteMap(2, 2, (1, 0)))]
        got = final_of(2, maps)
        assert got.opens == finest_topology_with_continuous(2, maps)

    def test_is_finest(self, corpus3):
        maps = [(S, FiniteMap(2, 2, (0, 1))), (S, FiniteMap(2, 2, (1, 0)))]
        got = final_of(2, maps)
        for u in range(4):
            if u in got.opens:
                continue
            assert any(preimage_of(f, u) not in src.opens for src, f in maps)


class TestEnumeration:
    # OEIS A000798
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355), (5, 6942)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_topologies(n)) == count

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_same_sequence_as_the_candidate_scan(self, n):
        assert list(enumerate_topologies(n)) == topologies_by_candidate_scan(n)

    def test_matches_brute_force_oracle(self):
        for n in (1, 2, 3):
            ours = sorted(sp.opens for sp in enumerate_topologies(n))
            oracle = sorted(brute_force_topologies(n))
            assert ours == oracle

    def test_deterministic_order(self):
        assert [sp.opens for sp in enumerate_topologies(3)] == [
            sp.opens for sp in enumerate_topologies(3)
        ]

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_topologies(6))


class TestHomeomorphismClasses:
    # OEIS A001930 (up to homeomorphism) and A000798 (labelled)
    @pytest.mark.parametrize(
        "n,classes,labelled", [(0, 1, 1), (1, 1, 1), (2, 3, 4), (3, 9, 29), (4, 33, 355), (5, 139, 6942)]
    )
    def test_counts(self, n, classes, labelled):
        found = homeomorphism_classes(n)
        assert len(found) == classes
        assert sum(len(members) for _, members in found) == labelled

    # OEIS A000112: a space is T0 when distinct points have distinct minimal neighbourhoods
    @pytest.mark.parametrize("n,t0", [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63)])
    def test_t0_classes(self, n, t0):
        assert sum(len(set(rep.nbhds)) == n for rep, _ in homeomorphism_classes(n)) == t0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_members_partition_the_corpus_in_order(self, n):
        corpus = list(enumerate_topologies(n))
        found = homeomorphism_classes(n)
        indices = [i for _, members in found for i, _ in members]
        assert sorted(indices) == list(range(len(corpus)))
        for rep, members in found:
            assert [i for i, _ in members] == sorted(i for i, _ in members)
            assert all(space == corpus[i] for i, space in members)
            assert rep == members[0][1]  # the member of lowest corpus index
            assert len({canonical_form_by_relabelling(space) for _, space in members}) == 1
        # classes come in the corpus order of their representatives
        assert [members[0][0] for _, members in found] == sorted(members[0][0] for _, members in found)

    def test_five_point_classes_are_the_orbits_in_order(self):
        # the members of a class are exactly the relabellings of its representative
        corpus = list(enumerate_topologies(5))
        found = homeomorphism_classes(5)
        assert sorted(i for _, members in found for i, _ in members) == list(range(len(corpus)))
        for rep, members in found:
            orbit = set()
            for perm in itertools.permutations(range(5)):
                form = [0] * 5
                for x, u in enumerate(rep.nbhds):
                    form[perm[x]] = sum(1 << perm[y] for y in range(5) if u >> y & 1)
                orbit.add(tuple(form))
            assert {space.nbhds for _, space in members} == orbit
            assert all(space == corpus[i] for i, space in members)
            assert [i for i, _ in members] == sorted(i for i, _ in members) and rep == members[0][1]
        assert [members[0][0] for _, members in found] == sorted(members[0][0] for _, members in found)

    def test_form_survives_random_relabelling(self, corpus3, corpus_n4):
        rng = random.Random(9)
        spaces = [sp for _, _, sp in corpus3] + corpus_n4
        # and some 5-point preorders, beyond the enumerated corpus
        for _ in range(20):
            spaces.append(final_from_edges(5, [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(7))]))
        # the form and the library's class of a space both survive relabelling
        class_of = {space.nbhds: c for n in range(1, 6) for c, (_, m) in enumerate(homeomorphism_classes(n)) for _, space in m}
        for sp in spaces:
            form = canonical_form_by_relabelling(sp)
            for _ in range(2):
                perm = rng.sample(range(sp.n), sp.n)
                moved = relabel_by_opens(sp, perm)
                assert canonical_form_by_relabelling(moved) == form
                assert class_of[moved.nbhds] == class_of[sp.nbhds]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equal_forms_iff_homeomorphic(self, n):
        corpus = list(enumerate_topologies(n))
        forms = [canonical_form_by_relabelling(sp) for sp in corpus]
        class_of = {space: c for c, (_, members) in enumerate(homeomorphism_classes(n)) for _, space in members}
        for a, fa in zip(corpus, forms):
            for b, fb in zip(corpus, forms):
                assert (fa == fb) == homeomorphic_by_search(a, b) == (class_of[a] == class_of[b])

    def test_form_is_a_relabelled_array(self):
        # the least of the relabelled arrays: Sierpinski's open point goes first
        assert canonical_form_by_relabelling(S) == (0b01, 0b11)
        assert canonical_form_by_relabelling(discrete_space(3)) == (1, 2, 4)
        # and the class of each is the orbit of that array
        for sp in (S, discrete_space(3)):
            (members,) = [m for _, m in homeomorphism_classes(sp.n) if sp in {space for _, space in m}]
            assert canonical_form_by_relabelling(sp) in {space.nbhds for _, space in members}

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            homeomorphism_classes(6)


def test_t2_implies_t1_and_t1_implies_discrete(corpus3):
    for _, _, sp in corpus3:
        if space_report(sp).t2:
            assert is_t1(sp)
        if is_t1(sp):
            assert len(sp.opens) == 1 << sp.n


@pytest.fixture(scope="module")
def checked_spaces(corpus3, corpus_n4):
    """The empty space, every space with at most 3 points, and a seeded sample of 40 four-point spaces."""
    return [next(enumerate_topologies(0))] + [sp for _, _, sp in corpus3] + random.Random(6).sample(corpus_n4, 40)


class TestPreorderRoutesAgainstOpens:
    """The operators and axioms read the minimal neighbourhoods; the scans over the opens must agree."""

    def test_is_open(self, checked_spaces):
        for sp in checked_spaces:
            opens = frozenset(sp.opens)
            for mask in range(-2, 2 << sp.n):
                assert sp.is_open(mask) == (mask in opens), (sp, mask)

    def test_closure_and_interior(self, checked_spaces):
        for sp in checked_spaces:
            for a in range(1 << sp.n):
                assert closure(sp, a) == closure_by_closeds(sp, a), (sp, a)
                assert interior(sp, a) == interior_by_opens(sp, a), (sp, a)

    def test_shrink_between(self, checked_spaces):
        found = 0
        for sp in checked_spaces:
            for o in sp.opens:
                for k in range(1 << sp.n):
                    if is_subset(k, o):
                        got = shrink_between(sp, k, o)
                        assert got == shrink_between_by_opens(sp, k, o), (sp, k, o)
                        found += got is not None
        assert found

    def test_separation_axioms(self, checked_spaces):
        flags = set()
        for sp in checked_spaces:
            got = (is_t1(sp), space_report(sp).t2, is_t3(sp))
            assert got == (is_t1_by_closeds(sp), is_t2_by_opens(sp), is_t3_by_opens(sp)), sp
            flags.add(got)
        assert flags == {(True, True, True), (False, False, True), (False, False, False)}

    def test_open_count(self, corpus_n4):
        spaces = [sp for n in range(4) for sp in enumerate_topologies(n)] + corpus_n4
        for sp in spaces:
            assert sp.open_count == len(sp.opens), sp
            assert sp.opens == union_closure(sp.min_nbhds), sp

    def test_open_count_needs_no_listing(self):
        # the opens of the k-th power of the Sierpinski space are the up-sets
        # of the Boolean lattice 2^k, counted by the Dedekind numbers
        limits.set_limits(opens=4)
        try:
            assert discrete_space(40).open_count == 1 << 40
            assert [product_space([S] * k)[0].open_count for k in range(1, 6)] == [3, 6, 20, 168, 7581]
            with pytest.raises(SizeLimitExceeded):
                product_space([S] * 5)[0].opens
        finally:
            limits.reset_limits()


    def test_open_count_memo_is_bounded(self):
        # the 7-fold power (128 points) once grew its memo to 4.2 GB; under a
        # 1 GiB address-space limit it must refuse with SizeLimitExceeded
        code = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from topolab.errors import SizeLimitExceeded
            from topolab.spaces import product_space, sierpinski_space
            try:
                product_space([sierpinski_space()] * 7)[0].open_count
            except SizeLimitExceeded:
                raise SystemExit(3)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(topolab.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 3, done.stderr[-2000:]


class TestOpensGuard:
    """``opens`` reads ``open_count`` first when the unions of its distinct neighbourhoods could pass the guard."""

    def test_refused_before_any_open_is_listed(self, monkeypatch):
        def listing(space):
            raise AssertionError("the opens were listed")

        monkeypatch.setattr(spaces, "_list_opens", listing)
        with pytest.raises(SizeLimitExceeded):
            discrete_space(30).opens

    def test_open_points_refuse_at_once(self, monkeypatch):
        # its 8192 open points have 2^8192 unions, so neither a count nor a
        # listing starts: both build an up-set with ``_holding`` first
        def holding(mins, x):
            raise AssertionError("the opens were counted or listed")

        monkeypatch.setattr(spaces, "_holding", holding)
        space = discrete_space(1 << 13)
        with pytest.raises(SizeLimitExceeded, match="open-set limit"):
            space.opens
        assert "open_count" not in vars(space)

    def test_few_opens_are_listed(self):
        chain = FiniteSpace(30, tuple((1 << (x + 1)) - 1 for x in range(30)))  # U_x = {0, ..., x}
        assert chain.opens == tuple((1 << k) - 1 for k in range(31))

    def test_a_count_past_its_memo_bound_lists(self, monkeypatch):
        chain = FiniteSpace(4, (0b1, 0b11, 0b111, 0b1111))
        monkeypatch.setattr(limits, "OPEN_COUNT_MEMO", 2)
        limits.set_limits(opens=8)
        try:
            with pytest.raises(SizeLimitExceeded):
                chain.open_count
            assert chain.opens == (0, 0b1, 0b11, 0b111, 0b1111)
            with pytest.raises(SizeLimitExceeded):
                discrete_space(4).opens
        finally:
            limits.reset_limits()


class TestEqualityFollowsTheTopology:
    def test_equal_exactly_when_the_opens_are(self, corpus3):
        spaces = [sp for _, _, sp in corpus3]
        copies = [make_space(sp.n, sp.opens) for sp in spaces]
        for a in spaces:
            for b in copies:
                assert (a == b) == (a.opens == b.opens)
                if a == b:
                    assert hash(a) == hash(b)
        assert len(set(spaces + copies)) == len(spaces)

    def test_every_route_gives_the_same_space(self, corpus3):
        for _, _, sp in corpus3:
            for other in (make_space(sp.n, sp.opens), generate_from_subbase(sp.n, sp.opens), product_space([sp])[0]):
                assert other == sp and hash(other) == hash(sp)

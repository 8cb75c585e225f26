"""Independent brute-force oracles.

These deliberately avoid the library's algorithms: the topology scan checks
the axioms over every set family, the candidate scan tests every
neighbourhood array (the library grows the arrays point by point and
drops a partial array at its first broken pair), the subbase closure
follows the literal two-stage procedure, the finest-topology search walks
all candidate topologies, products are unions of open boxes, and
compactness, local compactness, nestedness, ultrafilters and countable
completeness are decided by scanning their definitions (the library returns their theorem values on
finite spaces).  A filter is the list of its members, every subset that
holds its kernel; refinement, image filters and filters of functions
applied to filters are decided on those lists (the library reads kernel
masks), and choice functions are counted and recognised by their
definition.  Continuous maps are the maps whose preimages of opens are
open (the library builds monotone maps instead).  The lower, upper and
Vietoris topologies are generated from the hit and miss sets of every
listed open (the library reads them off the base's minimal
neighbourhoods).  The hyperspace embedding
is decided from cylinder preimages and the images of opens, over a carrier
topology built from its subbase, and the hit-and-miss identities of one
(X, Y) pair by scanning every open of the Vietoris hyperspace.  Image
tables of a function carrier and the projections f ↦ f(A) are built map by
map with ``image_of``, and
neighbourhoods are pulled back over every family member, where the library
builds the tables column-wise from its point table and skips the members
its singletons already decide.  Closure, interior, the shrinking lemma, the
separation axioms and the containment of the Vietoris topology in a final
topology are decided by scanning the listed opens and closeds, where the
library reads minimal neighbourhoods.  Homeomorphism is a search over the
permutations that carry one list of opens onto the other (the library
compares canonical neighbourhood arrays), and the vietoris-inclusion and
embedding reports are rebuilt from every labelled pair (X, Y) (the library
runs one pair per pair of homeomorphism classes).  The tests freeze values
computed here and compare the library against them.
"""

import itertools

from topolab.bitsets import complement, full_mask, is_subset, iter_bits, meets, points_of
from topolab.finality import InclusionReport
from topolab.funcspaces import compact_open, continuous_maps
from topolab.hyperspaces import compacts, vietoris
from topolab.maps import FiniteMap, all_maps
from topolab.spaces import FiniteSpace, enumerate_topologies, generate_from_subbase, make_space
from topolab import suites


def topologies_by_candidate_scan(n: int) -> list[FiniteSpace]:
    """Every candidate neighbourhood array in lexicographic order, kept when it is reflexive and transitive."""
    choices = [[m for m in range(1 << n) if m >> x & 1] for x in range(n)]
    return [
        FiniteSpace(n, mins)
        for mins in itertools.product(*choices)
        if all(is_subset(mins[y], mins[x]) for x in range(n) for y in iter_bits(mins[x]))
    ]


def is_topology_family(n: int, members: tuple[int, ...]) -> bool:
    memberset = set(members)
    if 0 not in memberset or full_mask(n) not in memberset:
        return False
    for a in members:
        for b in members:
            if a | b not in memberset or a & b not in memberset:
                return False
    return True


def brute_force_topologies(n: int) -> list[tuple[int, ...]]:
    """Scan all families of subsets of an n-point set, keep the topologies."""
    subsets = list(range(1 << n))
    out = []
    for fam_bits in range(1 << len(subsets)):
        members = tuple(s for s in subsets if fam_bits >> s & 1)
        if is_topology_family(n, members):
            out.append(members)
    return out


def slow_subbase_closure(n: int, subbase: list[int]) -> tuple[int, ...]:
    """Literal closure: finite intersections (empty = full), then unions."""
    base = {full_mask(n)}
    for r in range(1, len(subbase) + 1):
        for combo in itertools.combinations(subbase, r):
            inter = full_mask(n)
            for s in combo:
                inter &= s
            base.add(inter)
    opens = {0}
    base = sorted(base)
    for r in range(1, len(base) + 1):
        for combo in itertools.combinations(base, r):
            u = 0
            for s in combo:
                u |= s
            opens.add(u)
    return tuple(sorted(opens))


def hyperspace_by_subbase(space: FiniteSpace, family, variant: str) -> FiniteSpace:
    """The lower, upper or Vietoris topology on ``family`` closed from its subbase over every listed open.

    Hyperpoints are the family members in canonical order.  The lower
    subbase is the hit set {B : B meets O} of every open O, the upper one is
    {B : B ⊆ O}, and the Vietoris topology is generated by both.
    """
    fam = sorted(set(family))

    def index_mask(keep) -> int:
        return sum(1 << i for i, b in enumerate(fam) if keep(b))

    hits = [index_mask(lambda b: meets(b, o)) for o in space.opens]
    inside = [index_mask(lambda b: is_subset(b, o)) for o in space.opens]
    subbase = {"lower": hits, "upper": inside, "vietoris": hits + inside}[variant]
    return generate_from_subbase(len(fam), subbase)


def finest_topology_with_continuous(
    target_n: int, maps: list[tuple[FiniteSpace, FiniteMap]]
) -> tuple[int, ...]:
    """Finest topology (by scanning all of them) making every map continuous."""
    candidates = []
    for members in brute_force_topologies(target_n):
        memberset = set(members)
        if all(
            all(f.preimage_of(u) in src.open_set for u in memberset)
            for src, f in maps
        ):
            candidates.append(members)
    finest = max(candidates, key=len)
    assert all(set(c) <= set(finest) for c in candidates), "finest candidate not unique"
    return finest


def filter_members(filt) -> list[int]:
    """Every member of a filter on a finite carrier, as index masks: a scan of all subsets for those holding the kernel."""
    return [a for a in range(1 << filt.carrier.size) if filt.kernel & ~a == 0]


def refines_by_members(phi, psi) -> bool:
    """phi ⊇ psi as filters: every member of psi is a member of phi."""
    return set(filter_members(psi)) <= set(filter_members(phi))


def _image_mask(f: FiniteMap, mask: int) -> int:
    return sum({1 << f.image[i] for i in _bits(mask)})


def image_filter_kernel(f: FiniteMap, filt) -> int:
    """Kernel of the image filter, generated by the images f(M) of every member M: their intersection."""
    kernel = full_mask(f.cod_n)
    for m in filter_members(filt):
        kernel &= _image_mask(f, m)
    return kernel


def explicit_function_filter_apply(function_members: list[tuple[FiniteMap, ...]], argument_members: list[int]) -> int:
    """Kernel of the filter generated by all F(M) = {f(m) : f in F, m in M}, as a point mask.

    Takes explicit member lists of both filters (argument members as index
    masks) and intersects every generated image set.
    """
    kernel = -1
    for F in function_members:
        for M in argument_members:
            generated = 0
            for f in F:
                generated |= _image_mask(f, M)
            kernel &= generated
    return kernel


def choice_function_count(n: int) -> int:
    """Product of the subset sizes over the non-empty subsets of n points."""
    total = 1
    for m in range(1, 1 << n):
        total *= len(_bits(m))
    return total


def is_choice_function(n: int, f: FiniteMap) -> bool:
    """f maps the subset indices (mask - 1) of n points, sending each subset to one of its own elements."""
    if f.dom_n != (1 << n) - 1 or f.cod_n != n:
        return False
    return all(m >> f.image[m - 1] & 1 for m in range(1, 1 << n))


def product_opens_by_boxes(a: FiniteSpace, b: FiniteSpace) -> tuple[int, ...]:
    """Opens of a × b as all unions of open boxes u × v; (p, q) is point p + a.n * q."""
    boxes = {
        sum(1 << (p + a.n * q) for p in range(a.n) for q in range(b.n) if u >> p & 1 and v >> q & 1)
        for u in a.opens
        for v in b.opens
    }
    opens = {0}
    for box in boxes:
        opens |= {o | box for o in opens}
    return tuple(sorted(opens))


def is_compact_by_covers(space: FiniteSpace, k: int) -> bool:
    """Every cover of k by opens has a finite subcover: scan all subfamilies of opens."""
    opens = space.opens
    for bits in range(1, 1 << len(opens)):
        cover = [o for i, o in enumerate(opens) if bits >> i & 1]
        union = 0
        for c in cover:
            union |= c
        if k & ~union:
            continue
        # greedy finite subcover: one member per uncovered point
        remaining = k
        for c in cover:
            if remaining & c:
                remaining &= ~c
        if remaining:
            return False
    return True


def is_locally_compact_by_definition(space: FiniteSpace) -> bool:
    """Each point a and open U ∋ a admit a ∈ O ⊆ K ⊆ U with O open, K compact."""
    subsets = range(1 << space.n)
    for a in range(space.n):
        for u in space.opens:
            if not u >> a & 1:
                continue
            if not any(
                o >> a & 1
                and o & ~k == 0
                and k & ~u == 0
                and is_compact_by_covers(space, k)
                for o in space.opens
                for k in subsets
            ):
                return False
    return True


def is_nested_by_definition(space: FiniteSpace) -> bool:
    """Every point has a base of open neighbourhoods that is a chain under ⊆.

    Scans every family of opens around each point for one that is a chain
    and has a member inside each open around the point.
    """
    for x in range(space.n):
        around = [o for o in space.opens if o >> x & 1]
        found = False
        for bits in range(1, 1 << len(around)):
            family = [o for i, o in enumerate(around) if bits >> i & 1]
            chain = all(p & ~q == 0 or q & ~p == 0 for p in family for q in family)
            base = all(any(b & ~o == 0 for b in family) for o in around)
            if chain and base:
                found = True
                break
        if not found:
            return False
    return True


def is_ultrafilter_by_definition(filt) -> bool:
    """For every subset of the carrier, it or its complement is a member."""
    members = set(filter_members(filt))
    full = full_mask(filt.carrier.size)
    return all(a in members or full ^ a in members for a in range(1 << filt.carrier.size))


def is_countably_complete_by_members(filt) -> bool:
    """The intersection of all members and of every pair of members is a member."""
    members = filter_members(filt)
    memberset = set(members)
    total = full_mask(filt.carrier.size)
    for m in members:
        total &= m
    return total in memberset and all(a & b in memberset for a, b in itertools.combinations(members, 2))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mu_embedding_by_definition(dom, cod, carrier, family) -> tuple[bool, bool, bool, bool]:
    """(continuous, open_onto_image, injective, family_has_singletons) of f ↦ (A ↦ f(A)).

    The carrier topology is generated by the sets (A, W) = { f : f(A) ⊆ W };
    the target is the product over the family of the Vietoris hyperspace on
    the non-empty subsets of the codomain.
    Continuity: the preimage of every cylinder over a Vietoris open is open.
    Openness onto the image: the image of every open is open in the image,
    that is, it holds the product minimal neighbourhood of each of its points
    cut down to the image.  For an injective map the subbasic opens suffice
    (images then commute with unions and intersections); otherwise every
    open of the carrier is scanned.
    """
    fam = sorted(set(family))
    tf = list(range(1, 1 << cod.n))
    fns = list(carrier)
    size = len(fns)
    subbase = [
        sum(1 << fi for fi, f in enumerate(fns) if f.image_of(a) & ~w == 0) for a in fam for w in cod.opens
    ]
    nbhd = []
    for fi in range(size):
        m = full_mask(size)
        for s in subbase:
            if s >> fi & 1:
                m &= s
        nbhd.append(m)

    def is_open(mask: int) -> bool:
        return all(nbhd[fi] & ~mask == 0 for fi in _bits(mask))

    hyper = vietoris(cod, tuple(tf)).topology
    tuples = [tuple(tf.index(f.image_of(a)) for a in fam) for f in fns]
    continuous = all(
        is_open(sum(1 << fi for fi, t in enumerate(tuples) if v >> t[ai] & 1))
        for ai in range(len(fam))
        for v in hyper.opens
    )
    box = [
        sum(
            1 << gi
            for gi in range(size)
            if all(hyper.min_nbhds[tuples[fi][ai]] >> tuples[gi][ai] & 1 for ai in range(len(fam)))
        )
        for fi in range(size)
    ]
    injective = len(set(tuples)) == size
    if injective:
        opens = set(subbase)
    else:
        opens = {0}
        for m in nbhd:
            opens |= {o | m for o in opens}

    def image_open(g: int) -> bool:
        members = {tuples[fi] for fi in _bits(g)}
        saturated = sum(1 << gi for gi in range(size) if tuples[gi] in members)
        return all(box[fi] & ~saturated == 0 for fi in _bits(g))

    open_onto_image = all(image_open(g) for g in opens)
    return continuous, open_onto_image, injective, all(1 << x in fam for x in range(dom.n))


def image_groups_by_maps(functions, family) -> tuple[dict[int, int], ...]:
    """Per family member A, { f(A) : mask of the maps with that image }, one image_of call per (map, member)."""
    groups = tuple({} for _ in family)
    for i, f in enumerate(functions):
        for slot, a in zip(groups, family):
            img = f.image_of(a)
            slot[img] = slot.get(img, 0) | 1 << i
    return groups


def pull_back_all_slots(size: int, groups, near) -> tuple[int, ...]:
    """Per index i, the indices whose value lies near i's value in every slot, no slot skipped."""
    out = [full_mask(size)] * size
    for slot in groups:
        for v, members in slot.items():
            up = 0
            for u, others in slot.items():
                if near(v, u):
                    up |= others
            for i in _bits(members):
                out[i] &= up
    return tuple(out)


def set_open_min_nbhds_by_maps(fs) -> tuple[int, ...]:
    """U_f = { g : g(A) ⊆ hull f(A) for every family member A }, hull the smallest open superset."""
    mins = fs.cod.min_nbhds

    def hull(v: int) -> int:
        out = 0
        for y in _bits(v):
            out |= mins[y]
        return out

    groups = image_groups_by_maps(fs.functions, fs.family)
    return pull_back_all_slots(fs.size, groups, lambda v, u: u & ~hull(v) == 0)


def vietoris_pull_back_by_maps(fs) -> tuple[int, ...]:
    """P_f = { g : g(A) lies in the Vietoris minimal neighbourhood of f(A) for every family member A }."""
    tf = list(range(1, 1 << fs.cod.n))
    index = {k: i for i, k in enumerate(tf)}
    hmins = vietoris(fs.cod, tuple(tf)).topology.min_nbhds
    groups = image_groups_by_maps(fs.functions, fs.family)
    return pull_back_all_slots(fs.size, groups, lambda v, u: hmins[index[v]] >> index[u] & 1)


def continuous_maps_by_preimages(dom: FiniteSpace, cod: FiniteSpace) -> tuple[FiniteMap, ...]:
    """The maps of all_maps whose preimage of every open is open, in that order."""
    return tuple(
        f
        for f in all_maps(dom.n, cod.n)
        if all(sum(1 << x for x, y in enumerate(f.image) if w >> y & 1) in dom.open_set for w in cod.opens)
    )


def projection_compose(dom: FiniteSpace, cod: FiniteSpace, a: int) -> FiniteMap:
    """Index map sending a continuous f to the position of f(A) in the non-empty subsets of cod, one image_of call per map.

    The domain indices follow continuous_maps(dom, cod), the codomain
    indices the ascending non-empty subsets of the codomain.
    """
    if not 0 < a < 1 << dom.n:
        raise ValueError("a must be a non-empty subset of the domain")
    target = list(range(1, 1 << cod.n))
    index = {k: i for i, k in enumerate(target)}
    fns = continuous_maps(dom, cod)
    return FiniteMap(len(fns), len(target), tuple(index[f.image_of(a)] for f in fns))


def inclusion_pair_by_scan(args) -> tuple[int, list]:
    """The vietoris-inclusion checks of one pair with per-compact masks and every Vietoris open scanned.

    Same input and output as ``suites._inclusion_pair``: the miss and hit
    index masks are rebuilt for each compact a, preimages go through
    ``projection_compose``, and each Vietoris open is pulled back and tested.
    """
    (nx, xi, x), (ny, yi, y) = args
    checked = 0
    witnesses: list = []
    fsp = compact_open(x, y)
    ky = compacts(y)
    hyper = vietoris(y, ky)

    def tag(kind: str, **extra) -> dict:
        base = {"x": (nx, xi), "y": (ny, yi), "kind": kind}
        base.update(extra)
        return base

    for a in compacts(x):
        proj = projection_compose(x, y, a)
        for fmask in y.closeds:
            missm = 0
            for ki, k in enumerate(ky):
                if not meets(k, fmask):
                    missm |= 1 << ki
            lhs = proj.preimage_of(missm)
            rhs = fsp.subbasic(a, complement(fmask, y.n))
            checked += 2
            if lhs != rhs:
                witnesses.append(tag("miss-identity", a=points_of(a), closed=points_of(fmask)))
            if not fsp.is_open(lhs):
                witnesses.append(tag("miss-preimage-not-open", a=points_of(a), closed=points_of(fmask)))
        for o in y.opens:
            hitm = 0
            for ki, k in enumerate(ky):
                if meets(k, o):
                    hitm |= 1 << ki
            lhs = proj.preimage_of(hitm)
            rhs = 0
            for pt in iter_bits(a):
                rhs |= fsp.subbasic(1 << pt, o)
            checked += 2
            if lhs != rhs:
                witnesses.append(tag("hit-identity", a=points_of(a), open=points_of(o)))
            if not fsp.is_open(lhs):
                witnesses.append(tag("hit-preimage-not-open", a=points_of(a), open=points_of(o)))
        for ovm in hyper.topology.opens:
            checked += 1
            if not fsp.is_open(proj.preimage_of(ovm)):
                witnesses.append(
                    tag("vietoris-open-preimage-not-open", a=points_of(a), hyper_open=list(iter_bits(ovm)))
                )
    return checked, witnesses


def closure_by_closeds(space: FiniteSpace, a: int) -> int:
    """Intersection of every closed set containing a."""
    out = space.full
    for c in space.closeds:
        if is_subset(a, c):
            out &= c
    return out


def interior_by_opens(space: FiniteSpace, a: int) -> int:
    """Union of every open inside a."""
    out = 0
    for o in space.opens:
        if is_subset(o, a):
            out |= o
    return out


def shrink_between_by_opens(space: FiniteSpace, k: int, o: int):
    """The first open u in ascending order with k ⊆ u and cl(u) ⊆ o, or None."""
    for u in space.opens:
        if is_subset(k, u) and is_subset(closure_by_closeds(space, u), o):
            return u
    return None


def is_t1_by_closeds(space: FiniteSpace) -> bool:
    """Every singleton is closed."""
    closeds = set(space.closeds)
    return all((1 << x) in closeds for x in range(space.n))


def is_t2_by_opens(space: FiniteSpace) -> bool:
    """Distinct points are separated by disjoint opens: scan all pairs of opens."""
    for x in range(space.n):
        for y in range(x + 1, space.n):
            if not any(
                u & (1 << x) and v & (1 << y) and not u & v for u in space.opens for v in space.opens
            ):
                return False
    return True


def is_t3_by_opens(space: FiniteSpace) -> bool:
    """A point and a closed set missing it have disjoint open neighbourhoods: scan all pairs of opens."""
    for f in space.closeds:
        for x in range(space.n):
            if f & (1 << x):
                continue
            if not any(
                u & (1 << x) and is_subset(f, v) and not u & v for u in space.opens for v in space.opens
            ):
                return False
    return True


def vietoris_contained_by_opens(setup) -> InclusionReport:
    """Each Vietoris open of the carrier, checked against the listed final opens.

    A violation names the open and the first source whose function space
    refuses its preimage.
    """
    final_opens = setup.computed.open_set
    violations = []
    for o in vietoris(setup.cod, setup.family).topology.opens:
        if o in final_opens:
            continue
        witness_source = None
        for pos, (src, a) in enumerate(setup.sources):
            fsp = compact_open(src, setup.cod)
            if not fsp.is_open(projection_compose(src, setup.cod, a).preimage_of(o)):
                witness_source = pos
                break
        violations.append((o, witness_source))
    return InclusionReport(contained=not violations, violations=tuple(violations))


def relabel_by_opens(space: FiniteSpace, perm) -> FiniteSpace:
    """The space whose opens are the images of the opens of ``space`` under the point map x ↦ perm[x]."""
    return make_space(space.n, [sum(1 << perm[x] for x in iter_bits(o)) for o in space.opens])


def homeomorphic_by_search(a: FiniteSpace, b: FiniteSpace) -> bool:
    """Some permutation of the points carries the opens of a onto the opens of b."""
    if a.n != b.n:
        return False
    target = set(b.opens)
    return any(
        {sum(1 << perm[x] for x in iter_bits(o)) for o in a.opens} == target
        for perm in itertools.permutations(range(a.n))
    )


def labelled_sweep(suite: str, max_n: int) -> suites.RunReport:
    """The vietoris-inclusion or embedding report of every labelled pair (X, Y), in corpus order.

    The sweep the suites ran before the class reduction: each pair is
    checked on its own, by the suite's own pair function, and its witnesses
    are appended in the order of the pairs.
    """
    spaces = [(n, i, sp) for n in range(1, max_n + 1) for i, sp in enumerate(enumerate_topologies(n))]
    report = suites.RunReport(suite, {"max_n": max_n})
    for sx in spaces:
        for sy in spaces:
            if suite == "vietoris-inclusion":
                checked, witnesses = suites._inclusion_pair((sx, sy))
                failed = len(witnesses)
            else:
                checked, failed, witnesses = suites._embedding_pair((sx, sy))
            report.checked += checked
            report.passed += checked - failed
            report.failed += failed
            report.witnesses.extend(witnesses)
    return report

"""Independent brute-force oracles.

These deliberately avoid the library's algorithms: the topology scan checks
the axioms over every set family, the candidate scan tests every
neighbourhood array (the library grows the arrays point by point and
drops a partial array at its first broken pair), the subbase closure
follows the literal two-stage procedure, the finest-topology search walks
all candidate topologies, products are unions of open boxes, and
compactness, local compactness, nestedness, ultrafilters and countable
completeness are decided by scanning their definitions (on finite spaces
the library's report fields carry their theorem values).  A filter is the list of its members, every subset that
holds its kernel; refinement, image filters and filters of functions
applied to filters are decided on those lists (the library reads kernel
masks), and choice functions are counted and recognised by their
definition, built by the checked ``FiniteMap`` constructor, and swept map
by map: one image kernel and a subset test per point for each (the library
reads each map's kernel values once and tests each distinct image once).
Filters of choice functions are swept through a sample of
function kernels (the library returns the single-function limit set, which
the singleton kernels give by theorem).  Continuous maps are the maps whose
preimages of opens are open (the library builds monotone maps instead).  The lower, upper and
Vietoris topologies are generated from the hit and miss sets of every
listed open (the library reads them off the base's minimal
neighbourhoods), and the opens of a space are the breadth-first union
closure of its minimal neighbourhoods (the library splits at a point).
The hyperspace embedding
is decided from cylinder preimages and the images of opens, over a carrier
topology built from its subbase, and the hit-and-miss identities of one
(X, Y) pair by scanning every open of the Vietoris hyperspace.  Image
tables of a function carrier, the projections f ↦ f(A) and the edges
f(A) → g(A) they push forward are built map by map with ``image_of``, and
neighbourhoods are pulled back over every family member, through the upper
Vietoris or the Vietoris hyperspace on every non-empty subset of the
codomain, where the library builds the tables column-wise from its point
table, skips the members its singletons already decide, and reads the
nearness of two images off the codomain's minimal neighbourhoods.  The
final topology over discrete sources is scanned source by source (the
library scans the restrictions once, at the largest source).  Closure,
interior, the shrinking lemma, the separation axioms and the
containment of the Vietoris topology in a final topology are decided by
scanning the listed opens and closeds, where the library reads minimal
neighbourhoods.  Homeomorphism is a search over the
permutations that carry one list of opens onto the other, and a canonical
form is the least of the n! relabelled neighbourhood arrays (the library
names each orbit by relabelling its first member once), and the vietoris-inclusion and
embedding reports are rebuilt from every labelled pair (X, Y), and the
choice-lemma report from every labelled space (the library runs one pair
per pair of homeomorphism classes, and one space per class).  The tests freeze values
computed here and compare the library against them.
"""

import functools
import itertools

from topolab.bitsets import complement, full_mask, is_subset, iter_bits, mask_of, meets, points_of
from topolab.fileio import dumps_canonical
from topolab.finality import InclusionReport
from topolab.funcspaces import compact_open, continuous_maps
from topolab.hyperspaces import compacts, upper_vietoris, vietoris
from topolab.maps import FiniteMap, all_maps
from topolab.spaces import FiniteSpace, enumerate_topologies, final_from_edges, generate_from_subbase, make_space
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


def union_closure(generators) -> tuple[int, ...]:
    """All unions of subfamilies of ``generators`` (empty union = 0), ascending, by breadth-first closure.

    Every union found is OR-ed with every generator until nothing new
    appears; the library lists the opens by their split at a point instead.
    """
    generators = set(generators)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in generators:
                if u | g not in seen:
                    seen.add(u | g)
                    nxt.append(u | g)
        frontier = nxt
    return tuple(sorted(seen))


def preimage_of(f: FiniteMap, mask: int) -> int:
    """Preimage of a subset of the codomain, as a domain mask, one domain point at a time."""
    return sum(1 << x for x, y in enumerate(f.image) if mask >> y & 1)


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
    sources = [(frozenset(src.opens), f) for src, f in maps]
    for members in brute_force_topologies(target_n):
        memberset = set(members)
        if all(
            all(preimage_of(f, u) in src_opens for u in memberset)
            for src_opens, f in sources
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


@functools.lru_cache(maxsize=None)
def checked_choice_functions(n: int) -> tuple[FiniteMap, ...]:
    """Every choice function on n points, in the library's order, each built by the checked constructor."""
    per_subset = [_bits(m) for m in range(1, 1 << n)]
    return tuple(FiniteMap((1 << n) - 1, n, values) for values in itertools.product(*per_subset))


def applied_kernel(functions, kernel: tuple[int, ...]) -> int:
    """Point mask of { f(A) : f in functions, A in kernel }: the kernel of a function filter applied to a filter."""
    out = 0
    for f in functions:
        image = f.image
        for i in kernel:
            out |= 1 << image[i]
    return out


def limit_set_by_enumeration(space: FiniteSpace, phi) -> int:
    """Points x with f(kernel) ⊆ U_x for some choice function f: one image kernel and n subset tests a function."""
    kernel = points_of(phi.kernel)
    p = 0
    for f in checked_choice_functions(space.n):
        imgk = applied_kernel((f,), kernel)
        for x, u in enumerate(space.min_nbhds):
            if is_subset(imgk, u):
                p |= 1 << x
    return p


def property_a_by_enumeration(n: int, phi) -> tuple[bool, FiniteMap | None]:
    """Whether every choice function's image kernel is one point, with the first function whose is not."""
    kernel = points_of(phi.kernel)
    for f in checked_choice_functions(n):
        if applied_kernel((f,), kernel).bit_count() >= 2:
            return False, f
    return True, None


def filterwise_by_kernel_sample(space: FiniteSpace, phi, pair_cap: int | None) -> int:
    """Points reached by a sample of filters of choice functions applied to ``phi``.

    The function kernels swept are every singleton, the first ``pair_cap``
    pairs (all of them for None) and the full carrier; a point is collected
    when the applied kernel lies in its minimal neighbourhood.  The library
    returns ``limit_set_P`` by theorem, with no sweep.
    """
    functions = checked_choice_functions(space.n)
    pairs = itertools.combinations(functions, 2)
    if pair_cap is not None:
        pairs = itertools.islice(pairs, pair_cap)
    kernel = points_of(phi.kernel)
    p = 0
    for fns in itertools.chain(((f,) for f in functions), pairs, (functions,)):
        imgk = applied_kernel(fns, kernel)
        for x, u in enumerate(space.min_nbhds):
            if is_subset(imgk, u):
                p |= 1 << x
    return p


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
    """The set bits of ``mask``, ascending, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mu_embedding_by_definition(dom, cod, carrier, family) -> tuple[bool, bool, bool, bool]:
    """(continuous, open_onto_image, injective, family_has_singletons) of f ↦ (A ↦ f(A)).

    The carrier topology is generated by the sets (A, W) = { f : f(A) ⊆ W };
    the target is the product over the family of the Vietoris hyperspace on
    the non-empty subsets of the codomain.
    Continuity: the preimage of every cylinder over a subbasic Vietoris
    open, { C : C ⊆ W } or { C : C ∩ W ≠ ∅ } for W open in the codomain, is
    open; preimages commute with unions and finite intersections, so these
    decide it for every Vietoris open (there are 2^15 on a discrete 4-point
    codomain, against 32 subbasic ones).
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
    vietoris_subbase = [sum(1 << i for i, c in enumerate(tf) if c & ~w == 0) for w in cod.opens]
    vietoris_subbase += [sum(1 << i for i, c in enumerate(tf) if c & w) for w in cod.opens]
    tuples = [tuple(tf.index(f.image_of(a)) for a in fam) for f in fns]
    continuous = all(
        is_open(sum(1 << fi for fi, t in enumerate(tuples) if v >> t[ai] & 1))
        for ai in range(len(fam))
        for v in vietoris_subbase
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


def pushed_edges_by_maps(fs, a: int) -> set[tuple[int, int]]:
    """The edges (f(a), g(a)) for each carrier map f and each g ∈ U_f, as positions in the non-empty subsets of the codomain, one image_of call per map."""
    position = [f.image_of(a) - 1 for f in fs.functions]
    return {(position[i], position[j]) for i, u in enumerate(fs.min_nbhds) for j in _bits(u)}


def hyperspace_pull_back(builder, cod: FiniteSpace, size: int, groups) -> tuple[int, ...]:
    """Per index i, the indices whose image lies in the minimal neighbourhood of i's image in every slot.

    The hyperspace route: ``builder`` (``upper_vietoris`` or ``vietoris``)
    on the non-empty subsets of the codomain, pulled back along the image
    groups of every slot (the library reads the nearness off the
    codomain's U_y instead).
    """
    tf = list(range(1, 1 << cod.n))
    index = {k: i for i, k in enumerate(tf)}
    hmins = builder(cod, tuple(tf)).topology.min_nbhds
    return pull_back_all_slots(size, groups, lambda v, u: hmins[index[v]] >> index[u] & 1)


def upper_vietoris_pull_back_by_maps(fs) -> tuple[int, ...]:
    """U_f = { g : g(A) lies in the upper Vietoris minimal neighbourhood of f(A) for every non-empty member A }."""
    groups = image_groups_by_maps(fs.functions, [a for a in fs.family if a])
    return hyperspace_pull_back(upper_vietoris, fs.cod, fs.size, groups)


def vietoris_pull_back_by_maps(fs) -> tuple[int, ...]:
    """P_f = { g : g(A) lies in the Vietoris minimal neighbourhood of f(A) for every family member A }."""
    groups = image_groups_by_maps(fs.functions, fs.family)
    return hyperspace_pull_back(vietoris, fs.cod, fs.size, groups)


def continuous_maps_by_preimages(dom: FiniteSpace, cod: FiniteSpace) -> tuple[FiniteMap, ...]:
    """The maps of all_maps whose preimage of every open is open, in that order."""
    dom_opens = frozenset(dom.opens)
    return tuple(
        f
        for f in all_maps(dom.n, cod.n)
        if all(sum(1 << x for x, y in enumerate(f.image) if w >> y & 1) in dom_opens for w in cod.opens)
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


def inclusion_pair_by_scan(args) -> tuple[int, int, list]:
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
            lhs = preimage_of(proj, missm)
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
            lhs = preimage_of(proj, hitm)
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
            if not fsp.is_open(preimage_of(proj, ovm)):
                witnesses.append(
                    tag("vietoris-open-preimage-not-open", a=points_of(a), hyper_open=list(iter_bits(ovm)))
                )
    return checked, len(witnesses), witnesses


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


def final_from_discrete_sources_by_sources(cod: FiniteSpace, z_n: int, source_masks) -> FiniteSpace:
    """The final topology over f ↦ f(A) from a discrete z_n-point space, every source's restrictions scanned in turn.

    Each source A pushes the edges f(A) → g(A) of the tuples of |A| values
    and their pointwise neighbours; the result closes their union.
    """
    family = compacts(cod)
    index = {m: i for i, m in enumerate(family)}
    edges = set()
    for a in source_masks:
        for restriction in itertools.product(range(cod.n), repeat=len(points_of(a))):
            near = itertools.product(*(points_of(cod.min_nbhds[v]) for v in restriction))
            edges.update((index[mask_of(restriction)], index[mask_of(c)]) for c in near)
    return final_from_edges(len(family), edges)


def vietoris_contained_by_opens(setup) -> InclusionReport:
    """Each Vietoris open of the carrier, checked against the listed final opens.

    A violation names the open and the first source whose function space
    refuses its preimage.
    """
    final_opens = frozenset(setup.computed.opens)
    violations = []
    for o in vietoris(setup.cod, setup.family).topology.opens:
        if o in final_opens:
            continue
        witness_source = None
        for pos, (src, a) in enumerate(setup.sources):
            fsp = compact_open(src, setup.cod)
            if not fsp.is_open(preimage_of(projection_compose(src, setup.cod, a), o)):
                witness_source = pos
                break
        violations.append((o, witness_source))
    return InclusionReport(contained=not violations, violations=tuple(violations))


def relabel_by_opens(space: FiniteSpace, perm) -> FiniteSpace:
    """The space whose opens are the images of the opens of ``space`` under the point map x ↦ perm[x]."""
    return make_space(space.n, [sum(1 << perm[x] for x in iter_bits(o)) for o in space.opens])


def canonical_form_by_relabelling(space: FiniteSpace) -> tuple[int, ...]:
    """The lexicographically least neighbourhood array over all n! relabellings p, p(U_x) at position p(x)."""
    forms = []
    for perm in itertools.permutations(range(space.n)):
        form = [0] * space.n
        for x, u in enumerate(space.nbhds):
            form[perm[x]] = sum(1 << perm[y] for y in iter_bits(u))
        forms.append(tuple(form))
    return min(forms)


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
    """The report of every labelled space (choice-lemma) or pair (X, Y) (the pair suites), in corpus order.

    The sweeps the suites ran before the class reduction: each space or
    pair is checked on its own, by the suite's own check, and its witnesses
    are appended in corpus order.  choice-lemma at max_n 3 also checks the
    4-point sample, every ``N4_SPACE_STRIDE``-th space, after the rest.
    """
    spaces = [(n, i, sp) for n in range(1, max_n + 1) for i, sp in enumerate(enumerate_topologies(n))]
    if suite == "choice-lemma":
        report = suites.RunReport(suite, {"max_n": max_n, "n4_sample": max_n == 3})
        if max_n == 3:
            spaces += [(4, i, sp) for i, sp in enumerate(enumerate_topologies(4)) if i % suites.N4_SPACE_STRIDE == 0]
        report.add(suites._choice_space((space,)) for space in spaces)
        return report
    pair = {"vietoris-inclusion": suites._inclusion_pair, "embedding": suites._embedding_pair}[suite]
    report = suites.RunReport(suite, {"max_n": max_n})
    report.add(pair((sx, sy)) for sx in spaces for sy in spaces)
    return report


def assert_same_report(report: suites.RunReport, expected: suites.RunReport) -> None:
    """The canonical bytes of both reports agree (wall time aside); a mismatch names the first differing witness.

    The texts are not compared in an assert statement, because the diff
    pytest would render for two long reports takes minutes.
    """
    expected.wall_time_s = report.wall_time_s
    if dumps_canonical(report.to_dict()) != dumps_canonical(expected.to_dict()):
        pairs = zip(report.witnesses, expected.witnesses)
        first = next((k for k, (got, want) in enumerate(pairs) if got != want), None)
        raise AssertionError(
            f"report differs from the labelled sweep: totals {report.to_dict()['totals']} against "
            f"{expected.to_dict()['totals']}, {len(report.witnesses)} against {len(expected.witnesses)} "
            f"witnesses, first differing witness at {first}"
        )

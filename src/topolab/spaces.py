"""Finite topological spaces: representation, generation, operators, predicates.

A space is stored as its minimal-neighbourhood array ``min_nbhds``: on a
finite ground set the intersection of all opens containing a point is itself
open, the topology is the family of unions of these minimal neighbourhoods,
and the array is in bijection with the topology (Alexandroff 1937: finite
topologies are the preorders on the points), so equality and hashing follow
the topology.  The opens are listed only on demand (``FiniteSpace.opens``,
behind the open-set guard) and counted without listing (``open_count``);
openness, closure, interior, shrinking and the separation axioms read the
array.

``min_nbhds_of`` computes the array from any family of masks (opens or a
subbase); ``final_from_edges`` computes a final topology as the reflexive
transitive closure of pushed-forward neighbourhood edges, with no scan over
candidate subsets; the exhaustive enumerator grows the reflexive and
transitive neighbourhood arrays point by point, and
``homeomorphism_classes`` groups them into orbits under relabelling.

On a finite space every subset is compact, so compactness, local compactness
and the nested-neighbourhood property hold by theorem, and T2 is T1:
``space_report`` fills those flags from the theorems (README, "Notes on
definitions"); the definitional scans live in the test oracles.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import limits
from .bitsets import (
    canon_family,
    complement,
    full_mask,
    is_subset,
    iter_bits,
    mask_of,
    points_of,
)
from .errors import NotATopology, NotOpen, SizeLimitExceeded
from .frozen import Frozen


def is_open_in(mins: Sequence[int], mask: int) -> bool:
    """``mask`` is open in the topology with minimal neighbourhoods ``mins``: each point keeps its own inside."""
    return 0 <= mask <= full_mask(len(mins)) and all(mins[x] & ~mask == 0 for x in iter_bits(mask))


class FiniteSpace(Frozen):
    """A topology on {0,...,n-1}; ``nbhds[x]`` is the minimal open neighbourhood U_x of x.

    The array must be reflexive (x in U_x) and transitive (y in U_x implies
    U_y ⊆ U_x); the constructors below guarantee it.  Equal arrays make
    equal spaces, which hash alike.
    """

    _fields = ("n", "nbhds")

    def __init__(self, n: int, nbhds: tuple[int, ...]):
        fields = self.__dict__
        fields["n"], fields["nbhds"] = n, nbhds

    @property
    def full(self) -> int:
        return full_mask(self.n)

    @cached_property
    def min_nbhds(self) -> tuple[int, ...]:
        """min_nbhds[x] = intersection of all opens containing x (open): ``nbhds``, under the name FunctionSpace shares."""
        return self.nbhds

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """All open masks in ascending order, listed by ``_list_opens`` (behind the open-set guard).

        g distinct neighbourhoods have at most 2^g unions.  When that could
        pass the guard, the k points with U_x = {x} are counted: every union
        of them is open, so 2^k over the guard refuses at once.  Otherwise
        ``open_count`` is read first, so a topology over the guard is
        refused before any open is listed; if the count stops at its memo
        bound, the listing decides as before.
        """
        lim = limits.max_opens()
        mins = self.min_nbhds
        if 1 << len({id(u) for u in mins}) > lim:
            # U_x = {x} exactly when U_x, which holds x, has no higher point and no other bit
            isolated = sum(1 for x, u in enumerate(mins) if u.bit_length() == x + 1 and u & (u - 1) == 0)
            if 1 << isolated > lim:
                raise SizeLimitExceeded(
                    f"topology on {self.n} points exceeds the open-set limit {lim}: "
                    f"its {isolated} open points have 2^{isolated} unions"
                )
            try:
                count = self.open_count
            except SizeLimitExceeded:
                count = 0
            if count > lim:
                raise SizeLimitExceeded(f"topology on {self.n} points exceeds the open-set limit {lim}")
        return tuple(_list_opens(self))

    @cached_property
    def closeds(self) -> tuple[int, ...]:
        """All closed masks (complements of opens), canonical order."""
        return canon_family(complement(o, self.n) for o in self.opens)

    @cached_property
    def open_count(self) -> int:
        """Number of opens, counted without listing them.

        An open of the points P holds x and U_x, or misses every y with x in
        U_y: I(P) = I(P ∖ U_x) + I(P ∖ {y : x ∈ U_y}), x the lowest point of
        P, I(∅) = 1, memoized on the masks P.  The memo can grow
        exponentially in n, so past ``limits.OPEN_COUNT_MEMO`` masks the
        count stops with SizeLimitExceeded.  The up-set {y : x ∈ U_y} is
        built for the points the recursion pivots on only.
        """
        mins = self.min_nbhds
        ups = {}
        count = {0: 1}
        stack = [self.full]
        while stack:
            p = stack.pop()
            if p in count:
                continue
            x = (p & -p).bit_length() - 1
            if x not in ups:
                ups[x] = _holding(mins, x)
            a, b = p & ~mins[x], p & ~ups[x]
            if a in count and b in count:
                count[p] = count[a] + count[b]
                if len(count) > limits.OPEN_COUNT_MEMO:
                    raise SizeLimitExceeded(
                        f"counting the opens on {self.n} points memoizes over {limits.OPEN_COUNT_MEMO} masks"
                    )
            else:
                stack += (p, a, b)
        return count[self.full]

    def is_open(self, mask: int) -> bool:
        return is_open_in(self.min_nbhds, mask)


def min_nbhds_of(n: int, masks: Iterable[int]) -> tuple[int, ...]:
    """Intersection of the members of ``masks`` containing each point.

    For the opens of a space this is its minimal-neighbourhood array; for a
    subbase it is the array of the generated topology.  The empty
    intersection convention makes the full set the neighbourhood of a point
    no member contains.
    """
    out = [full_mask(n)] * n
    for m in masks:
        for x in iter_bits(m):
            out[x] &= m
    return tuple(out)


def _validate_axioms(n: int, opens: tuple[int, ...]) -> None:
    """Raise NotATopology with the first missing end or the first pair whose union or intersection is missing."""
    members = frozenset(opens)
    if 0 not in members:
        raise NotATopology("empty set missing")
    if full_mask(n) not in members:
        raise NotATopology("full set missing")
    for a, b in itertools.combinations(opens, 2):
        if a | b not in members:
            raise NotATopology("union not open", (points_of(a), points_of(b)))
        if a & b not in members:
            raise NotATopology("intersection not open", (points_of(a), points_of(b)))


def make_space(n: int, opens: Iterable[int]) -> FiniteSpace:
    """Validate a family of open masks and build the space.

    Every member holds the minimal neighbourhood of each of its points, the
    intersection of the members holding it (``min_nbhds_of``), so it is a
    union of them: the family lies inside the topology those neighbourhoods
    generate, which holds ∅ and the full set, and is that topology exactly
    when it has ``open_count`` members.  Only when that test fails, or the
    count stops at its memo bound, are the ends and pairs scanned; closure
    under pairwise unions and intersections decides a finite family.
    Raises NotATopology with the first violated axiom and a witnessing pair.
    """
    if n < 0:
        raise ValueError("ground set size must be non-negative")
    fam = canon_family(opens)
    if fam and (fam[0] < 0 or fam[-1] > full_mask(n)):  # sorted, so the least and greatest members decide
        raise ValueError("open mask does not fit the ground set")
    space = FiniteSpace(n, min_nbhds_of(n, fam))
    try:
        generated = space.open_count
    except SizeLimitExceeded:
        generated = None
    if generated != len(fam):
        _validate_axioms(n, fam)
    return space


def _holding(mins: Sequence[int], x: int) -> int:
    """The mask of the points y with x ∈ U_y, in time linear in the number of points.

    Bit x of a wide U_y is read from its nearer end: u & (1 << x) reads the
    low x bits, u >> x copies the bits above x.  The mask is read as a
    binary numeral, one digit a point, since OR-ing each point into a
    growing int would cost its length: quadratic on 2^20 points.
    """
    if 2 * x < len(mins):
        bit = 1 << x
        digits = ["1" if u & bit else "0" for u in reversed(mins)]
    else:
        digits = ["1" if u >> x & 1 else "0" for u in reversed(mins)]
    return int("".join(digits), 2)


def _list_opens(space: FiniteSpace) -> list[int]:
    """All opens of ``space`` in ascending order; SizeLimitExceeded past the open-set guard.

    The split of ``open_count`` at the highest point x of the points P left,
    without a memo: the opens of P that miss x, which miss every y with
    x ∈ U_y, all come before those that hold x and so U_x ∩ P, and OR-ing
    the disjoint U_x ∩ P into the opens of P ∖ U_x keeps their order.  Each
    open is one leaf of the split, so the work and the memory are linear in
    the number of opens.  The up-set {y : x ∈ U_y} is built for the points
    the split pivots on only.
    """
    mins = space.min_nbhds
    lim = limits.max_opens()
    ups = {}
    out = []
    stack = [(space.full, 0)]  # (points left, the open's points decided so far)
    while stack:
        p, held = stack.pop()
        while p:  # take the branch that misses x now and the one that holds it later
            x = p.bit_length() - 1
            if x not in ups:
                ups[x] = _holding(mins, x)
            stack.append((p & ~mins[x], held | p & mins[x]))
            p &= ~ups[x]
        out.append(held)
        if len(out) > lim:
            raise SizeLimitExceeded(f"topology on {space.n} points exceeds the open-set limit {lim}")
    return out


def generate_from_subbase(n: int, subbase: Iterable[int]) -> FiniteSpace:
    """Smallest topology containing ``subbase``.

    Equivalent to closing under finite intersections (empty intersection =
    full set) and then arbitrary unions (empty union = empty set); the
    minimal neighbourhoods are the per-point subbase intersections.
    """
    fam = canon_family(subbase)
    if fam and (fam[0] < 0 or fam[-1] > full_mask(n)):  # sorted, so the least and greatest members decide
        raise ValueError("subbase mask does not fit the ground set")
    return FiniteSpace(n, min_nbhds_of(n, fam))


def final_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> FiniteSpace:
    """Finest topology on n points in which every open containing a contains b.

    ``edges`` are the pairs (a, b).  A map f out of a finite space X is
    continuous into a topology exactly when each open around f(x) contains
    f(x') for every x' in the minimal neighbourhood of x, so the final
    topology of a family of maps is this one for the pushed-forward edges
    (f(x), f(x')).  Its minimal neighbourhoods are the reflexive transitive
    closure of the edges.
    """
    reach = [1 << x for x in range(n)]
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(n):  # Warshall's closure on bit rows
        bit = 1 << k
        row = reach[k]
        for x in range(n):
            if reach[x] & bit:
                reach[x] |= row
    return FiniteSpace(n, tuple(reach))


def closure(space: FiniteSpace, a: int) -> int:
    """Smallest closed superset of ``a``: the points whose minimal neighbourhood meets it."""
    return mask_of(x for x, u in enumerate(space.min_nbhds) if u & a)


def interior(space: FiniteSpace, a: int) -> int:
    """Largest open subset of ``a``: the points whose minimal neighbourhood lies inside it."""
    return mask_of(x for x, u in enumerate(space.min_nbhds) if u & ~a == 0)


def _hull(space: FiniteSpace, a: int) -> int:
    """Smallest open superset of ``a``: the union of its points' minimal neighbourhoods."""
    return reduce(or_, (space.min_nbhds[x] for x in iter_bits(a)), 0)


def is_t1(space: FiniteSpace) -> bool:
    """Every singleton is closed; on a finite space, exactly when it is discrete."""
    return all(u == 1 << x for x, u in enumerate(space.min_nbhds))


def is_t3(space: FiniteSpace) -> bool:
    """Regularity only: point and disjoint closed set split by disjoint opens.

    On a finite space this holds exactly when every minimal neighbourhood is
    closed, that is, when the specialization preorder is symmetric:
    y in U_x implies x in U_y.  T1 is deliberately not folded in; combine
    with is_t1 (on a finite space T2 is T1) when a Hausdorff regular space
    is required.
    """
    mins = space.min_nbhds
    return all(mins[y] >> x & 1 for x, u in enumerate(mins) for y in iter_bits(u))


def minimal_open_nbhd(space: FiniteSpace, x: int) -> int:
    """Intersection of all opens containing ``x`` (open on finite spaces)."""
    if not 0 <= x < space.n:
        raise ValueError("point outside the ground set")
    return space.min_nbhds[x]


def shrink_between(space: FiniteSpace, k: int, o: int) -> int | None:
    """An open u with k ⊆ u ⊆ cl(u) ⊆ o, or None when no such open exists.

    Every such u contains hull(k) and closure is monotone, so hull(k) is
    one when any is, and then the first in the ascending order of the opens.
    """
    if not space.is_open(o):
        raise NotOpen(f"shrink target {points_of(o)} is not open")
    if not is_subset(k, o):
        raise ValueError("k must be contained in o")
    u = _hull(space, k)
    return u if is_subset(closure(space, u), o) else None


class ProductCodec(Frozen):
    """Mixed-radix point codec: index = sum(coord[i] * prod(sizes[:i]))."""

    _fields = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]):
        self.__dict__["sizes"] = sizes

    @property
    def total(self) -> int:
        t = 1
        for s in self.sizes:
            t *= s
        return t

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.sizes):
            raise ValueError("coordinate arity mismatch")
        idx = 0
        stride = 1
        for c, s in zip(coords, self.sizes):
            if not 0 <= c < s:
                raise ValueError("coordinate out of range")
            idx += c * stride
            stride *= s
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        coords = []
        for s in self.sizes:
            coords.append(index % s)
            index //= s
        return tuple(coords)


def product_space(factors: Sequence[FiniteSpace]) -> tuple[FiniteSpace, ProductCodec]:
    """Product of finitely many spaces with the documented mixed-radix codec.

    The topology is generated by the cylinder subbase (preimages of factor
    opens under the projections); the minimal neighbourhood of a product
    point is the product of the factor minimal neighbourhoods, built here
    directly from the codec.
    """
    if not factors:
        raise ValueError("need at least one factor")
    codec = ProductCodec(tuple(f.n for f in factors))
    total = codec.total
    limits.guard_points(total, "product ground set")
    mins = []
    for p in range(total):
        # the box over the first factors, copied once per point y of the next
        # factor's neighbourhood at offset y * stride
        box, stride = 1, 1
        for f, c in zip(factors, codec.decode(p)):
            layer = 0
            for y in iter_bits(f.min_nbhds[c]):
                layer |= box << (y * stride)
            box, stride = layer, stride * f.n
        mins.append(box)
    return FiniteSpace(total, tuple(mins)), codec


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """All labeled topologies on n <= 5 points, exactly once, in lexicographic order of their neighbourhood arrays.

    The arrays grow one point at a time.  Point k may take U_k when U_k
    holds k, U_y ⊆ U_k for every earlier y in U_k, and U_k ⊆ U_x for every
    earlier x with k in U_x; a partial array with no admissible U_k is
    dropped.  Every pair of points is checked once both are placed, so the
    arrays kept are the reflexive and transitive ones, which are in
    bijection with the topologies on a finite ground set; the candidates of
    each point run in ascending order, so the arrays come out in
    lexicographic order.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > 5:
        raise SizeLimitExceeded("exhaustive enumeration is limited to n <= 5")
    arrays: list[tuple[int, ...]] = [()]
    for k in range(n):
        bit = 1 << k
        grown = []
        for mins in arrays:
            free = full_mask(n) ^ bit
            for u in mins:
                if u & bit:
                    free &= u
            sub = 0
            while True:  # the subsets of ``free`` in ascending order
                u = sub | bit
                if all(mins[y] & ~u == 0 for y in iter_bits(u & (bit - 1))):
                    grown.append(mins + (u,))
                sub = (sub - free) & free
                if not sub:
                    break
        arrays = grown
    for mins in arrays:
        yield FiniteSpace(n, mins)


@lru_cache(maxsize=8)
def homeomorphism_classes(n: int) -> tuple[tuple[FiniteSpace, tuple[tuple[int, FiniteSpace], ...]], ...]:
    """The topologies on n <= 5 points up to homeomorphism, as (representative, members).

    ``enumerate_topologies(n)`` grouped into orbits under relabelling: a
    permutation p puts p(U_x) at position p(x).  The members of a class are
    the (corpus index, space) pairs of its orbit, in corpus order; the
    representative is the first of them, and the classes come in the corpus
    order of their representatives.  The first space met of each orbit is
    relabelled n! times, each mask read off a table of its relabellings,
    and every later member is one lookup.
    """
    corpus = list(enumerate_topologies(n))  # refuses n > 5 before the n! relabellings are built
    relabellings = []  # (p, image), image[m] the mask m relabelled by p
    for perm in itertools.permutations(range(n)):
        image = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            image[m] = image[m ^ low] | 1 << perm[low.bit_length() - 1]
        relabellings.append((perm, image))
    classes: list[list[tuple[int, FiniteSpace]]] = []
    orbit_of: dict[tuple[int, ...], list[tuple[int, FiniteSpace]]] = {}
    for i, space in enumerate(corpus):
        members = orbit_of.get(space.nbhds)
        if members is None:
            members = []
            classes.append(members)
            for perm, image in relabellings:
                form = [0] * n
                for x, u in enumerate(space.nbhds):
                    form[perm[x]] = image[u]
                orbit_of[tuple(form)] = members
        members.append((i, space))
    return tuple((members[0][1], tuple(members)) for members in classes)


# named small spaces used all over the tests and demos
def discrete_space(n: int) -> FiniteSpace:
    return generate_from_subbase(n, [1 << x for x in range(n)])


def indiscrete_space(n: int) -> FiniteSpace:
    return generate_from_subbase(n, [])


def sierpinski_space() -> FiniteSpace:
    """Two points, with {1} the only non-trivial open."""
    return make_space(2, [0, 0b10, 0b11])


class SpaceReport(NamedTuple):
    """Separation and compactness flags used as preconditions elsewhere."""

    t1: bool
    t2: bool
    t3: bool
    locally_compact: bool
    nested_neighbourhood: bool


def space_report(space: FiniteSpace) -> SpaceReport:
    # finite spaces: T2 is T1, and local compactness and nested neighbourhoods hold (README, "Notes on definitions")
    t1 = is_t1(space)
    return SpaceReport(t1=t1, t2=t1, t3=is_t3(space), locally_compact=True, nested_neighbourhood=True)

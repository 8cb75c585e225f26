"""Set-open topologies on finite function sets and the hyperspace embedding.

Function-space topologies blow up fast (a discrete topology on the 27 maps
between 3-point spaces already has 2^27 opens), so a FunctionSpace keeps the
generating data and the minimal-neighbourhood array of its carrier, the same
data a FiniteSpace stores.  Openness of a set of functions is the
neighbourhood test ``spaces.is_open_in``; ``materialize`` gives the carrier
topology as a FiniteSpace, whose opens are listed only on demand, behind the
size guard.

A map between finite spaces is continuous exactly when it is monotone for
the specialization preorders (Alexandroff 1937): f(U_x) ⊆ U_{f(x)} for the
minimal neighbourhood U_x of every point x.  ``is_continuous`` is that test,
and ``continuous_maps`` builds the monotone maps point by point instead of
filtering all cod^dom maps.

Every neighbourhood computation is one pull-back (``_pull_back``) along the
coordinates f ↦ f(A) into a hyperspace on ``compacts(cod)``: the set-open
topology is the initial topology of these maps into the upper Vietoris
hyperspace, and the embedding f ↦ (A ↦ f(A)) is decided against the
Vietoris power.  Its slots are the image tables that ``images`` hands out,
keyed by hyperpoint: the position of f(A) in ``compacts(cod)``.  The
vietoris-inclusion suite reads the same tables but decides the continuity
of one coordinate per value group itself (``suites._continuous_along``).

A FunctionSpace works column-wise, on function masks, never map by map.
Its point table holds, per (x, y), the mask of the maps with f(x) = y; the
image table of a subset A follows from the recurrence
table(A) = table(A − x) ⊗ table({x}), x the lowest point of A, where ⊗
intersects the masks of every pair of entries and joins their images.
A table is built the first time a caller reads it and is kept on the
space, so a caller that reads only the singleton tables never pays for
the 2^n − 1 members of a full powerset.
Carrier continuity is one mask as well: the maps with f(e) ∈ U_{f(x)} for
every domain edge e ∈ U_x.

Slot pruning: the empty member adds nothing to a pull-back, as every map
sends it to ∅, and neither does a family member A of two or more points
whose singletons are all family members.  If g(x) ∈ U_{f(x)}
for each x ∈ A, then g(A) ⊆ hull f(A), and g(A) meets U_k for each
k ∈ f(A); these are the upper and the Vietoris nearness of g(A) to f(A).
On the full powerset the slots drop from 2^n − 1 to n, and when the
singletons are in the family the Vietoris pull-back P_f equals U_f.  The
neighbourhoods, P_f and the mu-fibres read the kept slots only, so on
such a family they build the n singleton tables and no other.

Sharing: one ``lru_cache``, ``_function_space``, holds the last 8 spaces,
keyed by (dom, cod, carrier, family), so ``compact_open`` followed by
``mu_embedding_report`` on ``continuous_maps(dom, cod)`` builds each table
at most once.  No lookup pays per map for what the library knows: the
carrier key (``_Carrier``) hashes by the carrier's length and compares
the same tuple at once, and other carriers map by map, so no ``FiniteMap``
is hashed; ``compact_open`` hands over maps it built for (dom, cod) and
validates none, while ``set_open_topology`` validates every carrier
before the lookup, so a refused call leaves the cache as it was.  The
maps of ``continuous_maps`` and of the "all" carrier skip ``FiniteMap``'s
range check (``maps._unchecked_maps``), since their images are grown in
``range(cod.n)``.  ``images`` hands each caller a fresh dict, so no caller
can change what the next one reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import and_
from typing import Sequence

from . import limits
from .bitsets import canon_family, full_mask, is_subset, iter_bits
from .errors import ImageNotInFamily
from .hyperspaces import compacts, upper_vietoris, vietoris
from .maps import FiniteMap, _unchecked_maps, all_maps
from .spaces import FiniteSpace, is_open_in

_CARRIER = "the function space's carrier"


def is_continuous(dom: FiniteSpace, cod: FiniteSpace, f: FiniteMap) -> bool:
    """Monotone for the specialization preorders: f(U_x) ⊆ U_{f(x)} for every x."""
    if f.dom_n != dom.n or f.cod_n != cod.n:
        raise ValueError("map does not match the given spaces")
    cmins = cod.min_nbhds
    return all(is_subset(f.image_of(u), cmins[y]) for u, y in zip(dom.min_nbhds, f.image))


@lru_cache(maxsize=256)
def continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[FiniteMap, ...]:
    """All continuous maps dom -> cod, in all_maps order.

    The image tuples grow one point at a time in lexicographic order.  Point
    x may take value y when y lies in U_{f(x')} for every earlier x' with x in
    U_{x'}, and U_y holds f(x') for every earlier x' in U_x; a partial map
    with no admissible value is dropped.  The maps are the function space's
    ground set, so the point guard bounds the partial maps of each step:
    SizeLimitExceeded before a step holds more.  The images are in range by
    construction, so the maps skip ``FiniteMap``'s check.
    """
    dmins, cmins = dom.min_nbhds, cod.min_nbhds
    values = tuple(enumerate(cmins))
    lim = limits.max_points()
    images: list[tuple[int, ...]] = [()]
    for x in range(dom.n):
        below = tuple(iter_bits(dmins[x] & ((1 << x) - 1)))
        above = tuple(e for e in range(x) if dmins[e] >> x & 1)
        grown = []
        for image in images:
            allowed = full_mask(cod.n)
            for e in above:
                allowed &= cmins[image[e]]
            need = 0
            for e in below:
                need |= 1 << image[e]
            more = [image + (y,) for y, u in values if allowed >> y & 1 and need & ~u == 0]
            if len(grown) + len(more) > lim:
                limits.guard_points(len(grown) + len(more), f"the continuous maps on the first {x + 1} domain points")
            grown += more
        images = grown
    return tuple(_unchecked_maps(dom.n, cod.n, images))


def _pull_back(size: int, slots: Sequence[dict[int, int]], nbhds: Sequence[int]) -> tuple[int, ...]:
    """Per index i, the indices whose hyperpoint lies in the neighbourhood of i's hyperpoint in every slot.

    ``slots[s]`` maps each hyperpoint (a position in ``compacts(cod)``) to the
    mask of indices taking it; ``nbhds`` is the hyperspace's
    minimal-neighbourhood array.  Cost per slot: its indices plus the square
    of its distinct hyperpoints.
    """
    everything = full_mask(size)
    out = [everything] * size
    for slot in slots:
        items = tuple(slot.items())
        for v, members in items:
            near = nbhds[v]
            up = 0
            for u, others in items:
                if near >> u & 1:
                    up |= others
            if up == everything:
                continue
            while members:
                low = members & -members
                out[low.bit_length() - 1] &= up
                members ^= low
    return tuple(out)


@dataclass(frozen=True)
class FunctionSpace:
    """A carrier of maps dom -> cod with the set-open topology of ``family``.

    Everything is kept as function masks (bit i for ``functions[i]``) and
    derived column-wise: the point table ``_points`` (maps with f(x) = y),
    the image table ``_table(a)`` of a subset, built on first use by the
    recurrence over the lowest point and kept in ``_tables``, the
    continuous maps ``_continuous`` by one mask per domain edge, and the
    family members ``_kept`` whose slots a pull-back needs (slot pruning, see
    the module docstring).
    """

    dom: FiniteSpace
    cod: FiniteSpace
    functions: tuple[FiniteMap, ...]
    family: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.functions)

    @cached_property
    def _points(self) -> tuple[tuple[int, ...], ...]:
        """_points[x][y] = function mask of { f : f(x) = y }."""
        table = [[0] * self.cod.n for _ in range(self.dom.n)]
        for i, f in enumerate(self.functions):
            for column, y in zip(table, f.image):
                column[y] |= 1 << i
        return tuple(map(tuple, table))

    @cached_property
    def _tables(self) -> dict[int, dict[int, int]]:
        """The image tables ``_table`` has built so far, by subset; the empty set's to start."""
        return {0: {0: full_mask(self.size)} if self.size else {}}

    def _table(self, a: int) -> dict[int, int]:
        """{ image f(a) : function mask of { f : f(a) = image } }, built on first use and kept; ValueError unless a is in the family.

        table(A) = table(A − x) ⊗ _points[x] for the lowest point x of A: each
        entry (img, m) of table(A − x) splits into (img | {y}, m & _points[x][y]).
        The cost is (distinct images × |cod|) mask operations per subset, paid
        for A and for each of its suffixes not built before.
        """
        if a not in self._members:
            raise ValueError(f"{a:#x} is not in the family")
        tables = self._tables
        if a in tables:
            return tables[a]
        chain = []
        b = a
        while b not in tables:
            chain.append(b)
            b &= b - 1
        for b in reversed(chain):
            low = b & -b
            column = [(1 << y, m) for y, m in enumerate(self._points[low.bit_length() - 1]) if m]
            out: dict[int, int] = {}
            for img, members in tables[b ^ low].items():
                for bit, m in column:
                    if members & m:
                        out[img | bit] = out.get(img | bit, 0) | members & m
            tables[b] = out
        return tables[a]

    @cached_property
    def _members(self) -> frozenset[int]:
        """The family as a set, for membership tests."""
        return frozenset(self.family)

    @cached_property
    def _kept(self) -> tuple[int, ...]:
        """The family members whose slot a pull-back needs (see the module docstring).

        The empty member is skipped, as every map sends it to ∅, and so is a
        member of two or more points whose singletons are all members: the
        singleton slots imply its upper and Vietoris nearness.
        """
        fam = self._members
        return tuple(
            a for a in self.family if a and not (a & (a - 1) and all(1 << x in fam for x in iter_bits(a)))
        )

    @cached_property
    def _continuous(self) -> int:
        """Function mask of the continuous carrier maps.

        One mask per domain edge (x, e), e ∈ U_x: the maps with f(e) ∈ U_{f(x)},
        that is, the union over y of _points[x][y] & { f : f(e) ∈ U_y }.
        """
        points, cmins = self._points, self.cod.min_nbhds
        # the masks of one column are disjoint, so their union is their sum
        within = [[sum(m for z, m in enumerate(column) if u >> z & 1) for u in cmins] for column in points]
        out = full_mask(self.size)
        for x, u in enumerate(self.dom.min_nbhds):
            for e in iter_bits(u & ~(1 << x)):
                out &= sum(map(and_, points[x], within[e]))
        return out

    def images(self, a: int) -> dict[int, int]:
        """{ hyperpoint of f(a) : function mask of the f with that image }, a fresh dict; ValueError unless a is in the family.

        The hyperpoint of an image is its position in ``compacts(cod)``; the
        image ∅ of an empty member gets −1.
        """
        return {img - 1: m for img, m in self._table(a).items()}  # compact k sits at position k − 1

    def subbasic(self, a: int, w: int) -> int:
        """Function-index mask of (a, w) = { f : f(a) ⊆ w }; ValueError unless a is in the family."""
        out = 0
        for img, members in self._table(a).items():
            if img & ~w == 0:
                out |= members
        return out

    @cached_property
    def min_nbhds(self) -> tuple[int, ...]:
        """Minimal neighbourhood of each carrier function, as function masks.

        The subbasic sets (A, W) containing f meet in { g : g(A) ⊆ hull(f(A)) },
        hull being the smallest open superset in the codomain, which is the
        upper Vietoris neighbourhood of f(A): the pull-back of
        ``upper_vietoris(cod, compacts(cod))`` over the kept family members
        (``_kept``), which gives the same sets as pulling back over all of them.
        """
        slots = [self.images(a) for a in self._kept]
        hyper = upper_vietoris(self.cod, compacts(self.cod))
        return _pull_back(self.size, slots, hyper.topology.min_nbhds)

    def is_open(self, mask: int) -> bool:
        """Neighbourhood test: every member keeps its minimal neighbourhood inside."""
        return is_open_in(self.min_nbhds, mask)

    def materialize(self) -> FiniteSpace:
        """The carrier topology as a FiniteSpace over the function indices; its opens are listed on demand, behind the guard."""
        return FiniteSpace(self.size, self.min_nbhds)


def set_open_topology(
    carrier: Sequence[FiniteMap],
    family: Sequence[int],
    dom: FiniteSpace,
    cod: FiniteSpace,
) -> FunctionSpace:
    """Topology on the carrier generated by { (A, W) : A in family, W open }.

    The arguments are validated on every call, before the lookup, so a
    refused call leaves the cache as it was; the canonical family is sorted,
    so its ends decide whether every member is a subset of the domain.  The
    FunctionSpace itself comes from ``_function_space``, shared with
    ``compact_open`` (see the module docstring).
    """
    fam = canon_family(family)
    if fam and (fam[0] < 0 or fam[-1] > dom.full):
        raise ValueError("family members must be subsets of the domain")
    fns = tuple(carrier)
    if any(f.dom_n != dom.n or f.cod_n != cod.n for f in fns):
        raise ValueError("carrier maps must go from dom to cod")
    return _function_space(dom, cod, _Carrier(fns), fam)


class _Carrier:
    """A carrier as a cache key: hashed by its length and compared as the same tuple or map by map, so no map is hashed."""

    __slots__ = ("maps",)

    def __init__(self, maps: tuple[FiniteMap, ...]):
        self.maps = maps

    def __hash__(self) -> int:
        return len(self.maps)

    def __eq__(self, other) -> bool:
        return self.maps is other.maps or self.maps == other.maps


@lru_cache(maxsize=8)
def _function_space(dom: FiniteSpace, cod: FiniteSpace, carrier: _Carrier, family: tuple[int, ...]) -> FunctionSpace:
    return FunctionSpace(dom, cod, carrier.maps, family)


def compact_open(dom: FiniteSpace, cod: FiniteSpace, carrier: str = "continuous") -> FunctionSpace:
    """Set-open topology generated by the compact subsets of the domain, on the "continuous" or "all" maps.

    The carrier is the space's ground set, so the point guard bounds it:
    the "all" carrier is checked before any map is built, and
    ``continuous_maps`` refuses while it grows.  The library built the maps
    for (dom, cod), so they are not validated again.
    """
    if carrier == "continuous":
        fns = continuous_maps(dom, cod)
    elif carrier == "all":
        limits.guard_points(cod.n ** dom.n, _CARRIER)
        fns = tuple(all_maps(dom.n, cod.n))
    else:
        raise ValueError(f"unknown carrier {carrier!r}; expected 'continuous' or 'all'")
    limits.guard_points(len(fns), _CARRIER)  # a cached carrier may predate a smaller guard
    return _function_space(dom, cod, _Carrier(fns), compacts(dom))


def mu(dom: FiniteSpace, cod: FiniteSpace, family: Sequence[int], f: FiniteMap) -> tuple[int, ...]:
    """The indexed family A ↦ f(A), as positions in ``compacts(cod)`` per family slot.

    Continuous images of compacts stay compact, which on finite spaces
    covers every image of a non-empty set; the image ∅ of an empty member
    is no compact and raises ImageNotInFamily.
    """
    if not is_continuous(dom, cod, f):
        raise ValueError("mu expects a continuous map")
    out = []
    for a in canon_family(family):
        img = f.image_of(a)
        if not img:
            raise ImageNotInFamily(f"image of family member {a:#x} is not a compact of the codomain")
        out.append(img - 1)  # compact k sits at position k − 1 (``compacts``)
    return tuple(out)


@dataclass(frozen=True)
class MuEmbeddingReport:
    continuous: bool
    open_onto_image: bool
    injective: bool
    family_has_singletons: bool


def mu_embedding_report(
    dom: FiniteSpace,
    cod: FiniteSpace,
    carrier: Sequence[FiniteMap],
    family: Sequence[int],
) -> MuEmbeddingReport:
    """Check that f ↦ (A ↦ f(A)) embeds the carrier into the hyperspace power.

    The carrier gets the set-open topology of ``family``; the target is the
    product over the family of copies of the Vietoris hyperspace on the
    compacts of the codomain with the pointwise product topology.  With U_f
    the minimal neighbourhood of f in the carrier and P_f the set of g with
    every g(A) in the Vietoris minimal neighbourhood of f(A) (the product
    neighbourhood of mu(f), pulled back):

    * continuity: U_f ⊆ P_f for every f;
    * openness onto the image: P_f ⊆ sat(U_f) for every f, sat(S) being the
      union of the mu-fibres meeting S (U_f is the smallest open around f);
    * injectivity: the value tuples are pairwise distinct.

    Continuity and injectivity hold whenever the family contains the
    singletons; a family without them only flags the report, it does not
    raise.  Openness onto the image holds for every carrier by theorem: the
    carrier topology is initial for the maps f ↦ f(A) into the upper
    Vietoris hyperspace, which the Vietoris topology refines, so P_f ⊆ U_f.
    It is still checked, since the embedding suite counts it.  When the
    singletons are in the family, P_f = U_f: only the singleton slots are
    kept, and on them both pull-backs read g(x) ∈ U_{f(x)}; U_f is then
    reused as P_f instead of pulling back a second time.

    P_f and the mu-fibres are taken over the kept slots of the carrier
    (``FunctionSpace._kept``), which gives the same sets as all slots.  The
    mu values come from the carrier's image tables (``images``) and its
    continuity from one mask (``_continuous``), not from a call of ``mu``
    per map.  The first map in carrier order that ``mu`` would refuse
    raises the same error through ``mu``: the first discontinuous map, or
    the first map of all when the family holds ∅, whose image is no compact.
    """
    fam = canon_family(family)
    fs = set_open_topology(carrier, fam, dom, cod)
    refused = full_mask(fs.size)
    if 0 not in fam:  # otherwise every map is refused: it sends ∅ to ∅, which is no compact
        refused &= ~fs._continuous
    if refused:
        mu(dom, cod, fam, fs.functions[(refused & -refused).bit_length() - 1])
    slots = tuple(map(fs.images, fs._kept))
    mins = fs.min_nbhds
    singletons = all((1 << x) in fam for x in range(dom.n))
    pm = mins if singletons else _pull_back(fs.size, slots, vietoris(cod, compacts(cod)).topology.min_nbhds)
    # mu-fibres of two or more functions: sat(S) is S plus those meeting it
    fibres = [full_mask(fs.size)] if fs.size else []
    for slot in slots:
        fibres = [p & m for p in fibres for m in slot.values() if p & m]
    shared = [m for m in fibres if m & (m - 1)]

    def saturated(u: int) -> int:
        out = u
        for m in shared:
            if m & u:
                out |= m
        return out

    return MuEmbeddingReport(
        continuous=all(is_subset(u, p) for u, p in zip(mins, pm)),
        open_onto_image=all(is_subset(p, saturated(u)) for u, p in zip(mins, pm)),
        injective=not shared,
        family_has_singletons=singletons,
    )

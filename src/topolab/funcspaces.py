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
coordinates f ↦ f(A), and none builds a hyperspace.  The set-open topology
is the initial topology of these maps into the upper Vietoris hyperspace
on ``compacts(cod)``, and the embedding f ↦ (A ↦ f(A)) is decided against
the Vietoris power; yet the minimal neighbourhood of a hyperpoint B is
read off the codomain's U_y (README "Notes on definitions"): the upper one
holds the C ⊆ hull(B) = ⋃_{y∈B} U_y, and the Vietoris one those that also
meet U_y for each y ∈ B.  So a pull-back costs the square of the distinct
images of each slot, not the 4^|cod| of a hyperspace on the 2^|cod| − 1
compacts.  A member A of two or more points reads both off its own
subbasic sets (A, W): the maps upper-near an image v are (A, hull(v)),
and the Vietoris-near ones are those less, for each y ∈ v, the maps in
(A, Y ∖ U_y), whose image misses U_y.  The image tables that ``images``
hands out are keyed by hyperpoint: the position of f(A) in
``compacts(cod)``, which is the image mask less one.  The inclusion
suite reads the tables themselves (``_table``), keyed by image mask, and
on a pair that passes only those of the points.  It decides the
continuity of the singleton coordinates f ↦ f({x}) once per pair, from
the union of the U_f over each group of the point table ``_points[x]``,
taken in C, and that of every other coordinate follows from them.

A FunctionSpace works on whole image columns and function masks, never
map by map in Python.  It is its carrier's image tuples (``rows``), with
its domain, codomain and family: one constructor takes them, and
equality, hashing, the repr and pickling read them.  ``_columns[x]``
holds f(x) for every carrier map, zipped from them when the space is
built; the point table
``_points[x][y]``, the mask of the maps with f(x) = y, is read off that
column as bytes, one ``bytes.translate`` and one ``int(…, 2)`` per value
y the column holds (``_value_masks``).  The image table of
a subset A follows from the recurrence table(A) = table(A − x) ⊗
table({x}), x the lowest point of A, where ⊗ intersects the masks of every
pair of entries and joins their images; ``bitsets.grow`` walks it.  A
table is built the first time a caller reads it and is kept on the
space, so a caller that reads only the singleton tables, as the
inclusion suite does on a pair that passes, never pays for the other
2^n − 1 − n members of a full powerset.  Carrier continuity is one mask
as well: the maps with f(e) ∈ U_{f(x)} for every domain edge e ∈ U_x.

Slot pruning: the empty member adds nothing to a pull-back, as every map
sends it to ∅, and neither does a family member A of two or more points
whose singletons are all family members.  If g(x) ∈ U_{f(x)}
for each x ∈ A, then g(A) ⊆ hull f(A), and g(A) meets U_k for each
k ∈ f(A); these are the upper and the Vietoris nearness of g(A) to f(A).
On the full powerset the slots drop from 2^n − 1 to n, and when the
singletons are in the family the Vietoris pull-back P_f equals U_f.  The
neighbourhoods and P_f read the kept slots only.  A singleton slot {x}
needs no image table: the maps with f(x) = y are near
exactly the maps in ``_within[x][y]``, those with f(x) ∈ U_y, so on the
compacts U_f is the box { g : g(x) ∈ U_{f(x)} for every x }, built level
by level as ``map(and_, box, map(_within[x].__getitem__, _columns[x]))``
and skipping a coordinate whose values are near every map.  On a family
holding the singletons the report builds no neighbourhood: P_f = U_f, so
mu is continuous and open onto its image by theorem, and it is injective
when the image tuples are distinct.

Sharing: ``_function_space`` is the constructor behind an ``lru_cache``
that holds the last 8 spaces, keyed by (dom, cod, rows, family), the rows
as ``_Carrier``, which hashes by its count and compares tuple by tuple,
so no tuple and no ``FiniteMap`` is hashed.  ``compact_open`` and the
suites hand over the image tuples of ``_continuous_images``, the one
carrier memo, or of the "all" carrier; ``set_open_topology`` validates
every map of a caller's carrier before the lookup, so a refused call
leaves the cache as it was, and keys the space by the maps' image tuples.
The tuple of ``continuous_maps`` carries the image tuples of
``_continuous_images`` it was built from, and ``set_open_topology`` keys
it by them without reading a map, so ``compact_open`` followed by
``mu_embedding_report`` on ``continuous_maps(dom, cod)`` finds one space
and builds each table at most once.  ``FiniteMap``s are built, without
the range check (``maps._unchecked_maps``), only where a caller reads
maps: ``continuous_maps``, ``FunctionSpace.functions`` on first read, and
the one map ``mu`` refuses.  ``images`` hands each caller a fresh dict,
so no caller can change what the next one reads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial, reduce
from itertools import compress, product, repeat
from operator import and_, attrgetter, invert, itemgetter, or_
from typing import NamedTuple, Sequence

from . import limits
from .bitsets import family_of, full_mask, grow, is_subset, iter_bits
from .errors import ImageNotInFamily
from .frozen import Frozen, memo
from .hyperspaces import compacts
from .maps import FiniteMap, _unchecked_maps
from .spaces import FiniteSpace, _holding, is_open_in

_CARRIER = "the function space's carrier"
_DOMAIN_FAMILY = "family members must be subsets of the domain"
_IMAGE, _SHAPE = attrgetter("image"), attrgetter("dom_n", "cod_n")


def is_continuous(dom: FiniteSpace, cod: FiniteSpace, f: FiniteMap) -> bool:
    """Monotone for the specialization preorders: f(U_x) ⊆ U_{f(x)} for every x."""
    if f.dom_n != dom.n or f.cod_n != cod.n:
        raise ValueError("map does not match the given spaces")
    cmins = cod.min_nbhds
    return all(is_subset(f.image_of(u), cmins[y]) for u, y in zip(dom.min_nbhds, f.image))


class _Carrier(tuple):
    """A carrier's image tuples as a cache key: hashed by their count, so no tuple is hashed, and compared tuple by tuple."""

    __slots__ = ()

    def __hash__(self) -> int:
        return len(self)


class _Maps(tuple):
    """The maps of ``continuous_maps``, carrying the (dom_n, cod_n) ``shape`` and the image tuples ``rows`` they were built from."""

    def __new__(cls, dom_n: int, cod_n: int, rows: _Carrier) -> _Maps:
        maps = super().__new__(cls, _unchecked_maps(dom_n, cod_n, rows))
        maps.shape, maps.rows = (dom_n, cod_n), rows
        return maps

    def __reduce__(self):
        return _Maps, (*self.shape, self.rows)


@lru_cache(maxsize=256)
def continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[FiniteMap, ...]:
    """All continuous maps dom -> cod, in all_maps order.

    The maps of the image tuples of ``_continuous_images``, which are in
    range by construction, so the maps skip ``FiniteMap``'s check.  The
    tuple carries those image tuples, so ``set_open_topology`` keys a space
    on it without reading a map.
    """
    return _Maps(dom.n, cod.n, _continuous_images(dom, cod))


@lru_cache(maxsize=256)
def _continuous_images(dom: FiniteSpace, cod: FiniteSpace) -> _Carrier:
    """The image tuples of the continuous maps dom -> cod, in all_maps order.

    The image tuples grow one point at a time in lexicographic order.  Point
    x may take value y when y lies in U_{f(e)} for every earlier e with x in
    U_e, and y lies in the closure of f(e) (f(e) ∈ U_y) for every earlier e
    in U_x.  So the admissible values of a partial map are the AND of one
    table entry per related earlier point e, looked up by f(e) a whole image
    column at a time; each distinct mask is listed once, and a partial map
    with an empty mask is dropped.  The maps are the function space's
    ground set, so the point guard bounds the partial maps of each step:
    when a step would hold more, the held partial maps that some later
    point can take no value for are dropped first, by the same lookups,
    and SizeLimitExceeded is raised only if the step still holds more.
    """
    dmins, cmins = dom.min_nbhds, cod.min_nbhds
    lim = limits.max_points()
    everything = full_mask(cod.n)
    closures = None
    listed = {everything: tuple(range(cod.n))}  # admissible mask -> its values

    def allowed(z: int):
        """Per held partial map, on the points before x, the mask of the values point z may take given them."""
        nonlocal closures
        lookups = []
        for e in range(x):
            table = cmins if dmins[e] >> z & 1 else None
            if dmins[z] >> e & 1:
                if closures is None:  # closures[v]: the y with v ∈ U_y
                    closures = [_holding(cmins, v) for v in range(cod.n)]
                table = closures if table is None else list(map(and_, cmins, closures))
            if table is not None:
                lookups.append(map(table.__getitem__, map(itemgetter(e), images)))
        return reduce(partial(map, and_), lookups, repeat(everything, len(images)))

    images: list[tuple[int, ...]] = [()]
    for x in range(dom.n):
        masks = list(allowed(x))
        for m in set(masks).difference(listed):
            listed[m] = tuple(iter_bits(m))
        picks = list(map(listed.__getitem__, masks))
        count = sum(map(len, picks))
        if count > lim:
            live = [all(ms) for ms in zip(picks, *map(allowed, range(x + 1, dom.n)))]  # no value at x or at a later point: dropped
            images, picks = list(compress(images, live)), list(compress(picks, live))
            limits.guard_points(sum(map(len, picks)), f"the continuous maps on the first {x + 1} domain points")
        images = [image + (y,) for image, ys in zip(images, picks) for y in ys]
    return _Carrier(images)


class FunctionSpace(Frozen):
    """A carrier of maps dom -> cod with the set-open topology of ``family``.

    The space is its fields: the image tuples ``rows`` of the carrier maps,
    which the caller vouches are in range (``set_open_topology`` and
    ``compact_open`` are the checked routes), and equality, hashing, the
    repr and pickling read them, never a ``FiniteMap``.  Everything else is
    kept as function masks (bit i for the i-th carrier map, whose image
    tuple is ``rows[i]``) and derived from the image columns
    ``_columns``: the point table
    ``_points`` (maps with f(x) = y) and its neighbourhood table ``_within``
    (maps with f(x) ∈ U_y), the image table ``_table(a)`` of a subset, built
    on first use by the recurrence over the lowest point (``bitsets.grow``
    over ``_times_point``) and kept in ``_tables``, the continuous maps
    ``_continuous`` by one mask per domain edge, and the family members
    ``_kept`` whose slots a pull-back needs
    (slot pruning, see the module docstring).  The tables are ``memo``
    attributes, built on first read without the lock of a
    ``cached_property``, and so are the carrier maps ``functions``;
    ``min_nbhds`` is a ``cached_property``.
    """

    _fields = ("dom", "cod", "rows", "family")

    def __init__(self, dom: FiniteSpace, cod: FiniteSpace, rows: Sequence[tuple[int, ...]], family: tuple[int, ...]):
        fields = self.__dict__
        fields["dom"], fields["cod"], fields["rows"], fields["family"] = dom, cod, rows, family
        # _columns[x][i] = rows[i][x], the image tuples transposed: every table reads them
        fields["_columns"] = (*zip(*rows),) or ((),) * dom.n

    @memo
    def functions(self) -> tuple[FiniteMap, ...]:
        """The carrier maps, built from the image tuples ``rows`` on first read, without ``FiniteMap``'s range check."""
        return tuple(_unchecked_maps(self.dom.n, self.cod.n, self.rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    @memo
    def _points(self) -> tuple[tuple[int, ...], ...]:
        """_points[x][y] = function mask of { f : f(x) = y }, read off the column of x (``_value_masks``); the masks of x partition the carrier."""
        return tuple(_value_masks(column, self.cod.n) for column in self._columns)

    @memo
    def _tables(self) -> dict[int, dict[int, int]]:
        """The image tables ``_table`` has built so far, by subset; the empty set's to start."""
        return {0: {0: full_mask(self.size)} if self.size else {}}

    def _table(self, a: int) -> dict[int, int]:
        """{ image f(a) : function mask of { f : f(a) = image } }, built on first use and kept; ValueError unless a is in the family.

        table(A) = table(A − x) ⊗ _points[x] for the lowest point x of A
        (``bitsets.grow`` over ``_times_point``), paid for A and for each of
        its suffixes not built before.  As the point masks partition the
        carrier, the entries whose image meets a set O unite to the maps
        with f(x) ∈ O for some x ∈ A: the union of the same over the
        singleton tables, so a caller after that union needs no table of A
        (README, "Notes on definitions").
        """
        if a not in self._members:
            raise ValueError(f"{a:#x} is not in the family")
        tables = self._tables
        return tables[a] if a in tables else grow(tables, a, self._times_point)

    def _times_point(self, table: dict[int, int], x: int) -> dict[int, int]:
        """table ⊗ _points[x]: each entry (img, m) splits into (img | {y}, m & _points[x][y]).

        The cost is (distinct images × |cod|) mask operations.
        """
        column = [(1 << y, m) for y, m in enumerate(self._points[x]) if m]
        out: dict[int, int] = {}
        for img, members in table.items():
            for bit, m in column:
                if members & m:
                    out[img | bit] = out.get(img | bit, 0) | members & m
        return out

    @memo
    def _members(self) -> frozenset[int]:
        """The family as a set, for membership tests."""
        return frozenset(self.family)

    @memo
    def _kept(self) -> tuple[int, ...]:
        """The family members whose slot a pull-back needs (see the module docstring).

        The empty member is skipped, as every map sends it to ∅, and so is a
        member of two or more points whose singletons are all members: the
        singleton slots imply its upper and Vietoris nearness.
        """
        fam = self._members
        singles = sum(1 << x for x in range(self.dom.n) if 1 << x in fam)  # the points whose singleton is a member
        return tuple(a for a in self.family if a and not (a & (a - 1) and a & ~singles == 0))

    @memo
    def _within(self) -> tuple[tuple[int, ...], ...]:
        """_within[x][y] = function mask of { f : f(x) ∈ U_y }."""
        # the masks of one column are disjoint, so their union is their sum
        members = [tuple(iter_bits(u)) for u in self.cod.min_nbhds]
        return tuple(tuple(map(sum, map(map, repeat(column.__getitem__), members))) for column in self._points)

    @memo
    def _continuous(self) -> int:
        """Function mask of the continuous carrier maps.

        One mask per domain edge (x, e), e ∈ U_x: the maps with f(e) ∈ U_{f(x)},
        that is, the union over y of _points[x][y] & _within[e][y].
        """
        points, within = self._points, self._within
        out = full_mask(self.size)
        for x, u in enumerate(self.dom.min_nbhds):
            for e in iter_bits(u & ~(1 << x)):
                out &= sum(map(and_, points[x], within[e]))
        return out

    def _slot_column(self, a: int) -> tuple[int, ...]:
        """Per map, its value on the family member a: f(x) for a singleton {x}, else the image mask f(a)."""
        if a & (a - 1) == 0:
            return self._columns[a.bit_length() - 1]
        return tuple(reduce(partial(map, or_), (map((1).__lshift__, self._columns[x]) for x in iter_bits(a))))

    def _pull_back(self, slots: Sequence[int], lower: bool) -> tuple[int, ...]:
        """Per function f, the mask of the g with g(A) near f(A) for every A in ``slots``.

        Nearness is read off the codomain's minimal neighbourhoods (module
        docstring): g(A) is upper-near f(A) when g(A) ⊆ hull f(A), and with
        ``lower`` it must also meet U_y for each y ∈ f(A), which makes it
        Vietoris-near.  On a singleton {x} both read g(x) ∈ U_{f(x)}, so the
        maps near a map with f(x) = y are ``_within[x][y]`` and no image
        table is built.  A larger member A reads its subbasic sets, one
        pass over its image table each: the maps upper-near an image v are
        (A, hull(v)), and with ``lower`` those in (A, Y ∖ U_y), whose image
        misses U_y, are taken out for each y ∈ v.  Each slot is one column,
        the near mask of every map looked up by its value on the slot
        (``_slot_column``), and the columns are ANDed map by map in C; a
        slot whose values are all near every map is skipped.
        """
        everything, full = full_mask(self.size), self.cod.full
        cmins = self.cod.min_nbhds
        ups = []
        for a in slots:
            if a & (a - 1) == 0:
                x = a.bit_length() - 1
                near, column = self._within[x], self._columns[x]
                seen = compress(near, self._points[x])
            else:
                near = {}
                for v in self._table(a):
                    nbhds = [cmins[y] for y in iter_bits(v)]
                    near[v] = self.subbasic(a, reduce(or_, nbhds))
                    for w in nbhds if lower else ():
                        near[v] &= everything ^ self.subbasic(a, full ^ w)
                column, seen = self._slot_column(a), near.values()
            if not all(map(everything.__eq__, seen)):
                ups.append(map(near.__getitem__, column))
        return tuple(reduce(partial(map, and_), ups)) if ups else (everything,) * self.size

    def images(self, a: int) -> dict[int, int]:
        """{ hyperpoint of f(a) : function mask of the f with that image }, a fresh dict; ValueError unless a is in the family.

        The hyperpoint of an image is its position in ``compacts(cod)``; the
        image ∅ of an empty member gets −1.
        """
        return {img - 1: m for img, m in self._table(a).items()}  # compact k sits at position k − 1

    def subbasic(self, a: int, w: int) -> int:
        """Function-index mask of (a, w) = { f : f(a) ⊆ w }; ValueError unless a is in the family."""
        out, outside = 0, ~w
        for img, members in self._table(a).items():
            if not img & outside:
                out |= members
        return out

    @cached_property
    def min_nbhds(self) -> tuple[int, ...]:
        """Minimal neighbourhood of each carrier function, as function masks.

        The subbasic sets (A, W) containing f meet in { g : g(A) ⊆ hull(f(A)) },
        hull being the smallest open superset in the codomain: the upper
        pull-back over the kept family members (``_kept``), which gives the
        same sets as pulling back over all of them.  On the compacts this is
        the box { g : g(x) ∈ U_{f(x)} for every x }.
        """
        return self._pull_back(self._kept, lower=False)

    def is_open(self, mask: int) -> bool:
        """Neighbourhood test: every member keeps its minimal neighbourhood inside."""
        return is_open_in(self.min_nbhds, mask)

    def materialize(self) -> FiniteSpace:
        """The carrier topology as a FiniteSpace over the function indices; its opens are listed on demand, behind the guard."""
        return FiniteSpace(self.size, self.min_nbhds)


def _value_masks(column: Sequence[int], n: int) -> tuple[int, ...]:
    """Per y in range(n), the mask of the positions i with column[i] = y.

    The reversed column is read as bytes, one per value, and for each value
    y it holds, ``_marking(y)`` translates byte y to "1" and every other
    byte to "0", which ``int(…, 2)`` reads as the mask: two C calls per
    value, none per position.  A codomain of more than 256 points has its
    values split into base-256 digits, one byte string per digit, and the
    masks of the digits of y are ANDed.
    """
    if n <= 256:
        plane = bytes(column[::-1])
        row = [0] * n
        for y in set(plane):
            row[y] = int(plane.translate(_marking(y)), 2)
        return tuple(row)
    shifts = range(0, (n - 1).bit_length(), 8)
    digits = [_value_masks([v >> s & 255 for v in column], 256) for s in shifts]
    return tuple(reduce(and_, (d[y >> s & 255] for s, d in zip(shifts, digits))) for y in range(n))


@lru_cache(maxsize=256)
def _marking(y: int) -> bytes:
    """The ``bytes.translate`` table sending byte y to "1" and every other byte to "0"; built on first use."""
    return b"0" * y + b"1" + b"0" * (255 - y)


def set_open_topology(
    carrier: Sequence[FiniteMap],
    family: Sequence[int],
    dom: FiniteSpace,
    cod: FiniteSpace,
) -> FunctionSpace:
    """Topology on the carrier generated by { (A, W) : A in family, W open }.

    The arguments are validated on every call, before the lookup, so a
    refused call leaves the cache as it was (``bitsets.family_of``).  The
    FunctionSpace itself comes from ``_function_space``, keyed by the
    carrier's image tuples and shared with ``compact_open`` (see the module
    docstring).  The maps of ``continuous_maps`` of the same shape are
    keyed by the image tuples they carry, reading no map; any other carrier
    has every map's shape checked and its image tuples read.
    """
    fam = family_of(family, dom.n, _DOMAIN_FAMILY)
    if type(carrier) is _Maps and carrier.shape == (dom.n, cod.n):
        return _function_space(dom, cod, carrier.rows, fam)
    fns = tuple(carrier)
    if not set(map(_SHAPE, fns)) <= {(dom.n, cod.n)}:
        raise ValueError("carrier maps must go from dom to cod")
    return _function_space(dom, cod, _Carrier(map(_IMAGE, fns)), fam)


_function_space = lru_cache(maxsize=8)(FunctionSpace)


def compact_open(dom: FiniteSpace, cod: FiniteSpace, carrier: str = "continuous") -> FunctionSpace:
    """Set-open topology generated by the compact subsets of the domain, on the "continuous" or "all" maps.

    The carrier is the space's ground set, so the point guard bounds it:
    the "all" carrier is checked before any image tuple is built, and
    ``_continuous_images`` refuses while it grows.  The library built the
    image tuples for (dom, cod), so they are not validated again, and no
    map is built until a caller reads ``functions``.
    """
    if carrier == "continuous":
        rows = _continuous_images(dom, cod)
    elif carrier == "all":
        limits.guard_points(cod.n ** dom.n, _CARRIER)
        rows = _Carrier(product(range(cod.n), repeat=dom.n))
    else:
        raise ValueError(f"unknown carrier {carrier!r}; expected 'continuous' or 'all'")
    limits.guard_points(len(rows), _CARRIER)  # a cached carrier may predate a smaller guard
    return _function_space(dom, cod, rows, compacts(dom))


def mu(dom: FiniteSpace, cod: FiniteSpace, family: Sequence[int], f: FiniteMap) -> tuple[int, ...]:
    """The indexed family A ↦ f(A), as positions in ``compacts(cod)`` per family slot.

    Continuous images of compacts stay compact, which on finite spaces
    covers every image of a non-empty set; the image ∅ of an empty member
    is no compact and raises ImageNotInFamily; a member outside the domain
    raises ValueError.
    """
    fam = family_of(family, dom.n, _DOMAIN_FAMILY)
    if not is_continuous(dom, cod, f):
        raise ValueError("mu expects a continuous map")
    out = []
    for a in fam:
        img = f.image_of(a)
        if not img:
            raise ImageNotInFamily(f"image of family member {a:#x} is not a compact of the codomain")
        out.append(img - 1)  # compact k sits at position k − 1 (``compacts``)
    return tuple(out)


class MuEmbeddingReport(NamedTuple):
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
    Vietoris hyperspace, which the Vietoris topology refines, so
    P_f ⊆ U_f ⊆ sat(U_f) (README, "Notes on definitions").  The report is
    ``_embedding_report`` on the space of ``set_open_topology``.
    """
    return _embedding_report(set_open_topology(carrier, family, dom, cod))


def _embedding_report(fs: FunctionSpace) -> MuEmbeddingReport:
    """``mu_embedding_report`` of the space ``fs``: its carrier, with the set-open topology of its family.

    The carrier's continuity is one mask (``_continuous``), not a call of
    ``mu`` per map.  The first map in carrier order that ``mu`` would
    refuse is built and raises the same error through ``mu``: the first
    discontinuous map, or the first map of all when the family holds ∅,
    whose image is no compact.

    When the family holds every singleton, the verdicts come from the
    theorem (README, "Notes on definitions"): only the singleton slots are
    kept, and on them both pull-backs read g(x) ∈ U_{f(x)}, so P_f = U_f
    and mu is continuous and open onto its image; mu(f) over the kept
    slots is f's image tuple, so mu is injective when the image tuples are
    pairwise distinct.  No neighbourhood is built.

    Otherwise the report tests P_f ⊆ U_f and builds no fibre;
    ``oracles.mu_embedding_by_definition`` keeps the route through the
    images of opens.  P_f is taken over the kept slots of the carrier
    (``FunctionSpace._kept``), which gives the same sets as all slots.  The
    verdicts are whole-sequence tests run in C: U_f ⊆ P_f for every f is
    ``not any(map(and_, mins, map(invert, pm)))``, and mu is injective when
    the mu values, zipped from the slot columns (``_slot_column``), are
    pairwise distinct.
    """
    dom, cod, fam = fs.dom, fs.cod, fs.family
    refused = full_mask(fs.size)
    if 0 not in fam:  # otherwise every map is refused: it sends ∅ to ∅, which is no compact
        refused &= ~fs._continuous
    if refused:
        (f,) = _unchecked_maps(dom.n, cod.n, [fs.rows[(refused & -refused).bit_length() - 1]])
        mu(dom, cod, fam, f)
    if all((1 << x) in fs._members for x in range(dom.n)):
        return MuEmbeddingReport(True, True, len(set(fs.rows)) == fs.size, True)
    mins = fs.min_nbhds
    pm = fs._pull_back(fs._kept, lower=True)
    values = zip(*map(fs._slot_column, fs._kept)) if fs._kept else [()] * fs.size  # mu(f) over the kept slots
    return MuEmbeddingReport(
        continuous=not any(map(and_, mins, map(invert, pm))),
        open_onto_image=not any(map(and_, pm, map(invert, mins))),
        injective=len(set(values)) == fs.size,
        family_has_singletons=False,
    )

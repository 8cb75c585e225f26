"""Filters, ultrafilters, images, and topological convergence on finite carriers.

Every filter on a finite carrier is principal, so a filter is stored exactly
by its kernel (the intersection of all members).  The represented filter is
{ A ⊆ carrier : kernel ⊆ A }.  Carriers index their elements so the same
machinery serves filters on ground points, on subset families such as the
non-empty powerset, and on sets of functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .bitsets import nonempty_subsets
from .errors import EmptyIntersection, SizeLimitExceeded
from .maps import FiniteMap
from .spaces import FiniteSpace, minimal_open_nbhd


@dataclass(frozen=True)
class Carrier:
    """An indexed finite set of hashable elements."""

    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValueError("carrier must be non-empty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("carrier elements must be distinct")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element) -> int:
        return self._index_map[element]

    @cached_property
    def _index_map(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def indices_of(self, elements: Iterable) -> frozenset[int]:
        return frozenset(self.index(e) for e in elements)


def points_carrier(n: int) -> Carrier:
    """Carrier of the ground points of an n-point space."""
    return Carrier(tuple(range(n)))


def subsets_carrier(n: int) -> Carrier:
    """Carrier of all non-empty subsets of an n-point set, canonical order."""
    return Carrier(tuple(nonempty_subsets(n)))


def family_carrier(family: Sequence[int]) -> Carrier:
    return Carrier(tuple(family))


def functions_carrier(functions: Sequence[FiniteMap]) -> Carrier:
    return Carrier(tuple(functions))


@dataclass(frozen=True)
class FilterOnCarrier:
    """A (necessarily principal) filter, stored by its non-empty kernel."""

    carrier: Carrier
    kernel: frozenset[int]

    def __post_init__(self):
        if not self.kernel:
            raise ValueError("filter kernel must be non-empty")
        if any(not (0 <= i < self.carrier.size) for i in self.kernel):
            raise ValueError("kernel index outside the carrier")

    def kernel_elements(self) -> tuple:
        return tuple(self.carrier.elements[i] for i in sorted(self.kernel))

    def members(self) -> Iterator[frozenset[int]]:
        """All members (supersets of the kernel), as index sets."""
        rest = [i for i in range(self.carrier.size) if i not in self.kernel]
        if len(rest) > 20:
            raise SizeLimitExceeded("member enumeration too large")
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                yield self.kernel | frozenset(extra)

    def refines(self, other: "FilterOnCarrier") -> bool:
        """self ⊇ other as filters, i.e. kernel(self) ⊆ kernel(other)."""
        return self.kernel <= other.kernel


def singleton_filter(carrier: Carrier, element) -> FilterOnCarrier:
    """The filter of all supersets of {element}."""
    return FilterOnCarrier(carrier, frozenset({carrier.index(element)}))


def filter_from_sets(carrier: Carrier, gens: Iterable[Iterable]) -> FilterOnCarrier:
    """Filter generated by a family of subsets; kernel is their intersection.

    Raises EmptyIntersection when the family has empty intersection (no
    filter is generated).  An empty family generates the trivial filter with
    the whole carrier as kernel.
    """
    kernel = frozenset(range(carrier.size))
    for g in gens:
        kernel &= carrier.indices_of(g)
    if not kernel:
        raise EmptyIntersection("generators have empty intersection")
    return FilterOnCarrier(carrier, kernel)


def contains(filt: FilterOnCarrier, subset: Iterable) -> bool:
    """Membership test: a subset belongs to the filter iff kernel ⊆ subset."""
    return filt.kernel <= filt.carrier.indices_of(subset)


def is_ultrafilter(filt: FilterOnCarrier) -> bool:
    """For every subset, it or its complement is a member.

    On a finite carrier this holds exactly when the kernel is a single point.
    """
    return len(filt.kernel) == 1


def ultrafilters_over(filt: FilterOnCarrier) -> list[FilterOnCarrier]:
    """All ultrafilters refining ``filt``: the point filters of its kernel."""
    return [
        FilterOnCarrier(filt.carrier, frozenset({i})) for i in sorted(filt.kernel)
    ]


def filter_image(f: FiniteMap, filt: FilterOnCarrier, out_carrier: Carrier | None = None) -> FilterOnCarrier:
    """Image filter under an index map; kernel maps to the image of the kernel."""
    if f.dom_n != filt.carrier.size:
        raise ValueError("map domain does not match the filter carrier")
    if out_carrier is None:
        out_carrier = points_carrier(f.cod_n)
    elif out_carrier.size != f.cod_n:
        raise ValueError("output carrier does not match the map codomain")
    return FilterOnCarrier(out_carrier, frozenset(f.image[i] for i in filt.kernel))


def neighborhood_filter(space: FiniteSpace, x: int) -> FilterOnCarrier:
    """Filter on the ground set generated by the opens containing ``x``."""
    m = minimal_open_nbhd(space, x)
    carrier = points_carrier(space.n)
    return FilterOnCarrier(carrier, frozenset(i for i in range(space.n) if m >> i & 1))


def converges(space: FiniteSpace, filt: FilterOnCarrier, x: int) -> bool:
    """The filter refines the open-neighbourhood filter of ``x``.

    The carrier must index the points of ``space``; only kernel indices are
    used, so hyperspace topologies built over a family carrier work too.
    """
    if filt.carrier.size != space.n:
        raise ValueError("filter carrier does not index the space's points")
    m = minimal_open_nbhd(space, x)
    return all(m >> i & 1 for i in filt.kernel)


def is_countably_complete(filt: FilterOnCarrier) -> bool:
    """Intersections of countable member subfamilies stay in the filter.

    True by theorem on a finite carrier: every such intersection contains the
    kernel.
    """
    return True


def enumerate_filters(carrier: Carrier) -> Iterator[FilterOnCarrier]:
    """All filters on the carrier: one per non-empty kernel, ascending."""
    for bits in nonempty_subsets(carrier.size):
        yield FilterOnCarrier(
            carrier, frozenset(i for i in range(carrier.size) if bits >> i & 1)
        )


def enumerate_ultrafilters(carrier: Carrier) -> Iterator[FilterOnCarrier]:
    for i in range(carrier.size):
        yield FilterOnCarrier(carrier, frozenset({i}))


def function_filter_apply(
    functions_filter: FilterOnCarrier,
    filt: FilterOnCarrier,
    out_carrier: Carrier | None = None,
) -> FilterOnCarrier:
    """Apply a filter of functions to a filter of arguments.

    The result is the filter generated by the sets F(M) = { f(m) : f ∈ F,
    m ∈ M } for F in the function filter and M in the argument filter; the
    application F(M) is the standard elementwise reading (the generated
    filter is not pinned down further by the usual definitions).  On
    principal filters the kernel of the result is kernel(F) applied to
    kernel(M).
    """
    fns = functions_filter.kernel_elements()
    cod_n = fns[0].cod_n
    if any(f.cod_n != cod_n for f in fns):
        raise ValueError("function kernel mixes codomains")
    if any(f.dom_n != filt.carrier.size for f in fns):
        raise ValueError("function domain does not match the argument carrier")
    if out_carrier is None:
        out_carrier = points_carrier(cod_n)
    kernel = frozenset(f.image[i] for f in fns for i in filt.kernel)
    return FilterOnCarrier(out_carrier, kernel)

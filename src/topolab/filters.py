"""Filters, ultrafilters and topological convergence on finite carriers.

Every filter on a finite carrier is principal, so a filter is stored exactly
by its kernel (the intersection of all members): an int mask over the
carrier's indices, like every other subset in the library.  The represented
filter is { A ⊆ carrier : kernel ⊆ A }.  Carriers index their elements so
the same machinery serves filters on ground points and on subset families
such as the non-empty powerset.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .bitsets import iter_bits, nonempty_subsets
from .frozen import Frozen
from .spaces import FiniteSpace, minimal_open_nbhd


class Carrier(Frozen):
    """An indexed finite set of hashable elements."""

    _fields = ("elements",)

    def __init__(self, elements: tuple):
        if not elements:
            raise ValueError("carrier must be non-empty")
        if len(set(elements)) != len(elements):
            raise ValueError("carrier elements must be distinct")
        self.__dict__["elements"] = elements

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element) -> int:
        return self._index_map[element]

    @cached_property
    def _index_map(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}


def points_carrier(n: int) -> Carrier:
    """Carrier of the ground points of an n-point space."""
    return Carrier(tuple(range(n)))


def subsets_carrier(n: int) -> Carrier:
    """Carrier of all non-empty subsets of an n-point set, canonical order."""
    return Carrier(tuple(nonempty_subsets(n)))


class FilterOnCarrier(Frozen):
    """A (necessarily principal) filter, stored by its non-empty kernel mask."""

    _fields = ("carrier", "kernel")

    def __init__(self, carrier: Carrier, kernel: int):
        if isinstance(kernel, bool) or not isinstance(kernel, int) or not 0 < kernel < 1 << carrier.size:
            raise ValueError("filter kernel must be a non-empty mask over the carrier's indices")
        fields = self.__dict__
        fields["carrier"], fields["kernel"] = carrier, kernel

    def kernel_elements(self) -> tuple:
        return tuple(self.carrier.elements[i] for i in iter_bits(self.kernel))


def singleton_filter(carrier: Carrier, element) -> FilterOnCarrier:
    """The filter of all supersets of {element}."""
    return FilterOnCarrier(carrier, 1 << carrier.index(element))


def contains(filt: FilterOnCarrier, subset: int) -> bool:
    """Membership test: a subset (an index mask) belongs to the filter iff kernel ⊆ subset."""
    return filt.kernel & ~subset == 0


def is_ultrafilter(filt: FilterOnCarrier) -> bool:
    """For every subset, it or its complement is a member.

    On a finite carrier this holds exactly when the kernel is a single point.
    """
    return filt.kernel & (filt.kernel - 1) == 0


def converges(space: FiniteSpace, filt: FilterOnCarrier, x: int) -> bool:
    """The filter refines the open-neighbourhood filter of ``x``.

    The carrier must index the points of ``space``; only kernel indices are
    used, so hyperspace topologies built over a family carrier work too.
    """
    if filt.carrier.size != space.n:
        raise ValueError("filter carrier does not index the space's points")
    return filt.kernel & ~minimal_open_nbhd(space, x) == 0


def enumerate_filters(carrier: Carrier) -> Iterator[FilterOnCarrier]:
    """All filters on the carrier: one per non-empty kernel, ascending."""
    for kernel in nonempty_subsets(carrier.size):
        yield FilterOnCarrier(carrier, kernel)


def enumerate_ultrafilters(carrier: Carrier) -> Iterator[FilterOnCarrier]:
    for i in range(carrier.size):
        yield FilterOnCarrier(carrier, 1 << i)

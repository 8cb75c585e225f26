"""Hit-and-miss primitives and the lower/upper/full Vietoris topologies.

The constructions work on an arbitrary family of non-empty subsets of the
base space (never defaulted: different theorems need the non-empty powerset,
the compacts, or the closeds).  Hyperpoints are indexed by position in the
canonical family order, and every hyperspace topology is an ordinary
FiniteSpace over that index set, so all core operators apply unchanged.

The lower topology is generated by the hit sets of the opens, the upper by
the sets {B : B ⊆ O}, the Vietoris topology by both.  Their minimal
neighbourhoods come from the base's U_x, and no open of the base is listed:

* lower: U⁻_A = ⋂_{a∈A} hit(U_a), as every open meeting A contains some
  U_a, each U_a meets A, and hit is monotone;
* upper: U⁺_A = {B : B ⊆ hull(A)}, as hull(A) = ⋃_{a∈A} U_a is the least
  open superset of A; x ∉ hull(A) exactly when A misses cl{x};
* Vietoris: U⁻_A ∩ U⁺_A.

These are exact; the subbase route is kept in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitsets import canon_family, full_mask, is_subset, iter_bits, meets, nonempty_subsets
from .errors import NotOpen
from .filters import FilterOnCarrier, converges
from .spaces import FiniteSpace


@dataclass(frozen=True)
class HyperSpace:
    base: FiniteSpace
    family: tuple[int, ...]
    topology: FiniteSpace  # over range(len(family))
    variant: str

    def __post_init__(self):
        full = self.base.full
        if any(m <= 0 or m > full for m in self.family):  # on masks, 0 < m <= full is ∅ ≠ m ⊆ full
            raise ValueError("family members must be non-empty subsets of the base")
        if self.topology.n != len(self.family):
            raise ValueError("hyperspace topology must live on the family indices")


def _check_family(space: FiniteSpace, family: Sequence[int]) -> tuple[int, ...]:
    fam = canon_family(family)
    if fam and (fam[0] <= 0 or fam[-1] > space.full):  # sorted, so the least and greatest members decide
        raise ValueError("family members must be non-empty subsets of the base")
    return fam


def hit(family: Sequence[int], m: int) -> tuple[int, ...]:
    """Members of the family meeting ``m``."""
    return tuple(a for a in family if meets(a, m))


def miss(family: Sequence[int], m: int) -> tuple[int, ...]:
    """Members of the family disjoint from ``m``."""
    return tuple(a for a in family if not meets(a, m))


def _hit_index_mask(family: Sequence[int], m: int) -> int:
    mask = 0
    for i, a in enumerate(family):
        if a & m:
            mask |= 1 << i
    return mask


def _hyperspace(space: FiniteSpace, family: tuple[int, ...], variant: str) -> HyperSpace:
    """The lower, upper or Vietoris topology, intersected point by point of the base (module docstring).

    The family is validated once, by the HyperSpace record; points outside
    the base are masked off until then.
    """
    fam = canon_family(family)
    mins = space.min_nbhds
    full = space.full
    holding = [0] * space.n  # holding[x]: index mask of the members containing x
    for i, a in enumerate(fam):
        for x in iter_bits(a & full):
            holding[x] |= 1 << i
    everything = full_mask(len(fam))
    nbhds = [everything] * len(fam)
    for x in range(space.n):
        if variant != "upper":  # the members holding x keep the members meeting U_x
            meeting = 0
            for y in iter_bits(mins[x]):
                meeting |= holding[y]
            for i in iter_bits(holding[x]):
                nbhds[i] &= meeting
        if variant != "lower":  # the members missing cl{x} = {y : x ∈ U_y} keep the members missing x
            meeting = 0
            for y, u in enumerate(mins):
                if u >> x & 1:
                    meeting |= holding[y]
            for i in iter_bits(everything & ~meeting):
                nbhds[i] &= ~holding[x]
    return HyperSpace(space, fam, FiniteSpace(len(fam), tuple(nbhds)), variant)


@lru_cache(maxsize=None)
def lower_vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Topology generated by the hit sets of opens."""
    return _hyperspace(space, family, "lower")


@lru_cache(maxsize=None)
def upper_vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Topology generated by the miss sets of closed complements of opens."""
    return _hyperspace(space, family, "upper")


@lru_cache(maxsize=None)
def vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Join of the lower and upper topologies (generated by both subbases)."""
    return _hyperspace(space, family, "vietoris")


def vietoris_basic(space: FiniteSpace, family: Sequence[int], cover: Sequence[int]) -> tuple[int, ...]:
    """Members contained in the union of the cover and meeting every part.

    The usual basic Vietoris set for a finite list of opens; it equals the
    miss set of the complement of the union intersected with the hit sets of
    the parts, which the tests assert.
    """
    fam = _check_family(space, family)
    for u in cover:
        if not space.is_open(u):
            raise NotOpen("vietoris_basic cover parts must be open")
    union = 0
    for u in cover:
        union |= u
    return tuple(
        a
        for a in fam
        if is_subset(a, union) and all(meets(a, u) for u in cover)
    )


def compacts(space: FiniteSpace) -> tuple[int, ...]:
    """Non-empty compact subsets: by theorem, the non-empty powerset of a finite space.

    They come in ascending mask order, so compact k sits at position k − 1.
    """
    return tuple(nonempty_subsets(space.n))


def closeds(space: FiniteSpace) -> tuple[int, ...]:
    """Non-empty closed subsets."""
    return tuple(c for c in space.closeds if c != 0)


def lower_limits(space: FiniteSpace, family: Sequence[int], filt: FilterOnCarrier) -> tuple[int, ...]:
    """All family members the filter converges to in the lower topology."""
    hy = lower_vietoris(space, canon_family(family))
    if filt.carrier.size != len(hy.family):
        raise ValueError("filter carrier does not index the family")
    return tuple(a for i, a in enumerate(hy.family) if converges(hy.topology, filt, i))

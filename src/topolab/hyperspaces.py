"""Hit-and-miss primitives and the lower/upper/full Vietoris topologies.

The constructions work on an arbitrary family of non-empty subsets of the
base space (never defaulted: different theorems need the non-empty powerset,
the compacts, or the closeds).  Hyperpoints are indexed by position in the
canonical family order, and every hyperspace topology is an ordinary
FiniteSpace over that index set, so all core operators apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitsets import canon_family, is_subset, meets, nonempty_subsets
from .errors import NotOpen
from .filters import FilterOnCarrier
from .spaces import FiniteSpace, generate_from_subbase, minimal_open_nbhd


@dataclass(frozen=True)
class HyperSpace:
    base: FiniteSpace
    family: tuple[int, ...]
    topology: FiniteSpace  # over range(len(family))
    variant: str

    def __post_init__(self):
        if any(m == 0 or not is_subset(m, self.base.full) for m in self.family):
            raise ValueError("family members must be non-empty subsets of the base")
        if self.topology.n != len(self.family):
            raise ValueError("hyperspace topology must live on the family indices")

    def index(self, member: int) -> int:
        return self.family.index(member)


def _check_family(space: FiniteSpace, family: Sequence[int]) -> tuple[int, ...]:
    fam = canon_family(family)
    if any(m == 0 or not is_subset(m, space.full) for m in fam):
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
        if meets(a, m):
            mask |= 1 << i
    return mask


def _contained_index_mask(family: Sequence[int], o: int) -> int:
    """Index mask of { A in family : A ⊆ o } (= miss of the complement)."""
    mask = 0
    for i, a in enumerate(family):
        if is_subset(a, o):
            mask |= 1 << i
    return mask


def _build(space: FiniteSpace, fam: tuple[int, ...], subbase: Sequence[int], variant: str) -> HyperSpace:
    topo = generate_from_subbase(len(fam), subbase)
    return HyperSpace(space, fam, topo, variant)


@lru_cache(maxsize=None)
def lower_vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Topology generated by the hit sets of opens."""
    fam = _check_family(space, family)
    subbase = [_hit_index_mask(fam, o) for o in space.opens]
    return _build(space, fam, subbase, "lower")


@lru_cache(maxsize=None)
def upper_vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Topology generated by the miss sets of closed complements of opens."""
    fam = _check_family(space, family)
    subbase = [_contained_index_mask(fam, o) for o in space.opens]
    return _build(space, fam, subbase, "upper")


@lru_cache(maxsize=None)
def vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Join of the lower and upper topologies (generated by both subbases)."""
    fam = _check_family(space, family)
    subbase = [_hit_index_mask(fam, o) for o in space.opens]
    subbase += [_contained_index_mask(fam, o) for o in space.opens]
    return _build(space, fam, subbase, "vietoris")


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
    """Non-empty compact subsets: by theorem, the non-empty powerset of a finite space."""
    return tuple(nonempty_subsets(space.n))


def closeds(space: FiniteSpace) -> tuple[int, ...]:
    """Non-empty closed subsets."""
    return tuple(c for c in space.closeds if c != 0)


def lower_limits(space: FiniteSpace, family: Sequence[int], filt: FilterOnCarrier) -> tuple[int, ...]:
    """All family members the filter converges to in the lower topology."""
    hy = lower_vietoris(space, canon_family(family))
    if filt.carrier.size != len(hy.family):
        raise ValueError("filter carrier does not index the family")
    out = []
    for i, a in enumerate(hy.family):
        m = minimal_open_nbhd(hy.topology, i)
        if all(m >> j & 1 for j in filt.kernel):
            out.append(a)
    return tuple(out)

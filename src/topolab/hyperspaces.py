"""Hit-and-miss primitives and the lower/upper/full Vietoris topologies.

The constructions work on an arbitrary family of non-empty subsets of the
base space (never defaulted: different theorems need the non-empty powerset,
the compacts, or the closeds).  Hyperpoints are indexed by position in the
canonical family order, and every hyperspace topology is an ordinary
FiniteSpace over that index set, so all core operators apply unchanged.

The lower topology is generated by the hit sets of the opens, the upper by
the sets {B : B ⊆ O}, the Vietoris topology by both: it is the join of the
other two (Michael 1951, "Topologies on spaces of subsets", Trans. AMS 71),
so its minimal neighbourhoods are the meet of theirs.  They come from the
base's U_x, and no open of the base is listed:

* lower: U⁻_A = ⋂_{a∈A} hit(U_a), as every open meeting A contains some
  U_a, each U_a meets A, and hit is monotone;
* upper: U⁺_A = {B : B ⊆ hull(A)}, as hull(A) = ⋃_{a∈A} U_a is the least
  open superset of A; these are the members that miss every point outside
  hull(A);
* Vietoris: U⁻_A ∩ U⁺_A.

``_hyperspace`` builds all three in one pass over the family, by the
recurrences L(A) = L(A − a) ∩ hit(U_a) and hull(A) = hull(A − a) ∪ U_a
over the lowest point a of A, and keeps them in one cache of 256 (space,
family) pairs, which ``lower_vietoris``, ``upper_vietoris`` and
``vietoris`` share.  The family is the ground set of each, so its size is
checked against the point guard before a build and again on a cache
hit.  These are exact; the subbase route is kept in the test oracles.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_
from typing import Sequence

from . import limits
from .bitsets import canon_family, family_of, grow, is_subset, meets, nonempty_subsets
from .errors import NotOpen
from .filters import FilterOnCarrier, converges
from .frozen import Frozen
from .spaces import FiniteSpace


class HyperSpace(Frozen):
    """A family of non-empty subsets of ``base`` with a ``topology`` over the family indices; ``variant`` names it."""

    _fields = ("base", "family", "topology", "variant")

    def __init__(self, base: FiniteSpace, family: tuple[int, ...], topology: FiniteSpace, variant: str):
        if family and (min(family) <= 0 or max(family) >> base.n):  # on masks, 0 < m < 2^n is ∅ ≠ m ⊆ the base
            raise ValueError("family members must be non-empty subsets of the base")
        if topology.n != len(family):
            raise ValueError("hyperspace topology must live on the family indices")
        fields = self.__dict__
        fields["base"], fields["family"], fields["topology"], fields["variant"] = base, family, topology, variant


def _check_family(space: FiniteSpace, family: Sequence[int]) -> tuple[int, ...]:
    fam = family_of(family, space.n, "family members must be non-empty subsets of the base", nonempty=True)
    limits.guard_points(len(fam), "the hyperspace")  # the family is its ground set
    return fam


def hit(family: Sequence[int], m: int) -> tuple[int, ...]:
    """Members of the family meeting ``m``."""
    return tuple(a for a in family if meets(a, m))


def miss(family: Sequence[int], m: int) -> tuple[int, ...]:
    """Members of the family disjoint from ``m``."""
    return tuple(a for a in family if not meets(a, m))


@lru_cache(maxsize=256)
def _hyperspace(space: FiniteSpace, family: tuple[int, ...]) -> tuple[HyperSpace, HyperSpace, HyperSpace]:
    """The lower, upper and Vietoris hyperspaces of ``family``, in one pass (module docstring).

    Each member A is reached from A − a, a its lowest point: L(A) = L(A − a)
    ∧ hit(U_a) and H(A) = H(A − a) ∨ U_a, memoized on the masks; when A − a
    is no earlier member, ``bitsets.grow`` fills it in, so any family works.
    hit(M), the index mask of the members meeting M, is memoized the same
    way: hit(M) = hit(M − x) ∨ holding(x).  The upper neighbourhood of A is
    every member outside hit(X ∖ H(A)), and the Vietoris one is the meet of
    the lower and the upper.
    """
    fam = _check_family(space, family)
    mins, full = space.min_nbhds, space.full
    holding = [0] * space.n  # holding[x]: index mask of the members containing x
    bit = 1
    for a in fam:
        while a:
            low = a & -a
            holding[low.bit_length() - 1] |= bit
            a ^= low
        bit <<= 1
    everything = bit - 1
    meeting = {0: 0}  # M -> hit(M)

    def joined(met: int, p: int) -> int:  # hit(M) = hit(M − p) ∨ holding(p)
        return met | holding[p]

    hits = [grow(meeting, u, joined) for u in mins]
    lows, hulls = {0: everything}, {0: 0}  # A -> L(A), A -> H(A)
    lower, upper = [], []
    for a in fam:
        rest, x = a & (a - 1), (a & -a).bit_length() - 1
        if rest not in hulls:  # A − a is no earlier member
            grow(lows, rest, lambda below, p: below & hits[p])
            grow(hulls, rest, lambda hull, p: hull | mins[p])
        lows[a] = below = lows[rest] & hits[x]
        hulls[a] = hull = hulls[rest] | mins[x]
        lower.append(below)
        out = full & ~hull
        upper.append(everything & ~(meeting[out] if out in meeting else grow(meeting, out, joined)))
    both = tuple(map(and_, lower, upper))
    n = len(fam)
    return (
        HyperSpace(space, fam, FiniteSpace(n, tuple(lower)), "lower"),
        HyperSpace(space, fam, FiniteSpace(n, tuple(upper)), "upper"),
        HyperSpace(space, fam, FiniteSpace(n, both), "vietoris"),
    )


def _guarded(space: FiniteSpace, family: tuple[int, ...]) -> tuple[HyperSpace, HyperSpace, HyperSpace]:
    """``_hyperspace``, its family checked against the point guard again, as a cached build may predate a smaller guard."""
    built = _hyperspace(space, family)
    limits.guard_points(len(built[0].family), "the hyperspace")
    return built


def lower_vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Topology generated by the hit sets of opens."""
    return _guarded(space, family)[0]


def upper_vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Topology generated by the miss sets of closed complements of opens."""
    return _guarded(space, family)[1]


def vietoris(space: FiniteSpace, family: tuple[int, ...]) -> HyperSpace:
    """Join of the lower and upper topologies (generated by both subbases)."""
    return _guarded(space, family)[2]


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
    Their count 2^n − 1 is checked against the point guard before any is
    listed.
    """
    limits.guard_points((1 << space.n) - 1, "the compacts")
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

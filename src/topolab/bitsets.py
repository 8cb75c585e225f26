"""Subsets of {0,...,n-1} as int bitmasks, set families as sorted mask tuples.

All set-level arithmetic in the library goes through these helpers, so a
"subset" is always a plain ``int`` and a "family" is always a duplicate-free
tuple sorted numerically (the canonical order used for structural equality
and for indexing family members).  ``family_of`` is the one check that a
family given as input is a family of subsets of n points: every builder
that takes opens, a subbase, a hyperspace family, a set-open family or
finality sources canonicalises and checks it there.  ``grow`` is the one
walk of the lowest-point recurrence memo[A] = step(memo[A − x], x) over a
memo, which the image tables of ``funcspaces`` and the hyperspace build
share.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")


def mask_of(points: Iterable[int]) -> int:
    """Bitmask of a collection of point indices."""
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of point indices present in ``mask``."""
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement(mask: int, n: int) -> int:
    return full_mask(n) ^ mask


def is_subset(a: int, b: int) -> bool:
    """a ⊆ b on masks."""
    return a & ~b == 0


def meets(a: int, b: int) -> bool:
    """a ∩ b ≠ ∅ on masks."""
    return a & b != 0


def canon_family(masks: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted, duplicate-free) form of a family of masks."""
    return tuple(sorted(set(masks)))


def family_of(masks: Iterable[int], n: int, message: str, nonempty: bool = False) -> tuple[int, ...]:
    """The canonical family of ``masks``; ValueError(message) unless each is a subset of the n points, non-empty if ``nonempty``.

    The family is sorted, so its least and greatest members decide.  A
    negative n is refused by name first.
    """
    if n < 0:
        raise ValueError("ground set size must be non-negative")
    fam = canon_family(masks)
    if fam and (fam[0] < (1 if nonempty else 0) or fam[-1] > full_mask(n)):
        raise ValueError(message)
    return fam


def grow(memo: dict[int, _T], m: int, step: Callable[[_T, int], _T]) -> _T:
    """memo[m], filled in by the lowest-point recurrence memo[b] = step(memo[b − x], x), x the lowest point of b.

    The walk drops lowest points from m until it reaches a mask in ``memo``,
    which must hold 0 or a mask on that walk, then fills the masks it passed,
    from the nearest one up, so a later call stops at the first of them.
    """
    chain = []
    while m not in memo:
        chain.append(m)
        m &= m - 1
    value = memo[m]
    for b in reversed(chain):
        value = memo[b] = step(value, (b & -b).bit_length() - 1)
    return value


def nonempty_subsets(n: int) -> Iterator[int]:
    """All non-empty subsets of an n-point ground set, ascending."""
    return iter(range(1, 1 << n))


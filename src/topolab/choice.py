"""Choice-function calculus over the non-empty powerset of a finite set.

A choice function assigns to every non-empty subset one of its own elements;
here it is a FiniteMap from the canonical subset indices (mask - 1) to the
ground points.  The checks in this module sweep filters on the subset
carrier and relate their lower-Vietoris limits to the points reachable
through choice-function images.

The kernel images f(K) that ``limit_set_P`` tests depend only on n and the
filter's kernel K, not on the space.  ``_kernel_images`` generates the
image tuple of every choice function (20736 on 4 points), reads each once
with one ``itemgetter`` of its values on the kernel indices, and keeps the
distinct value masks, once per (n, kernel) behind a bounded cache;
``limit_set_P`` then tests each mask against the space's minimal
neighbourhoods.  ``has_property_A`` reads no enumeration: the property
holds exactly when the kernel is one subset, and its witness, the first
choice function in that order that fails, is built directly (README,
"Notes on definitions").
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple

from .bitsets import is_subset, mask_of, nonempty_subsets, points_of
from .errors import SizeLimitExceeded
from .filters import (
    FilterOnCarrier,
    converges,
    enumerate_filters,
    is_ultrafilter,
    subsets_carrier,
)
from .hyperspaces import lower_vietoris
from .spaces import FiniteSpace, closure
from .maps import FiniteMap


def _choice_images(n: int) -> Iterator[tuple[int, ...]]:
    """The image tuples of all choice functions on n points, deterministic order.

    Each tuple is indexed by the canonical subset order (mask - 1) and the
    tuples run lexicographically over the per-subset element choices.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 4:
        raise SizeLimitExceeded("choice-function enumeration is limited to n <= 4")
    return itertools.product(*map(points_of, nonempty_subsets(n)))


def _kernel_values(kernel: tuple[int, ...]) -> itemgetter:
    """Reads a map's values on the kernel indices, as a tuple, off its image tuple.

    The mask of those values is the kernel of the image filter.  An
    ``itemgetter`` of one index returns the value bare, so the first index
    is read twice, which keeps a tuple and the same set of values.
    """
    return itemgetter(*kernel, kernel[0])


@lru_cache(maxsize=512)  # a choice-lemma run reads one key per ultrafilter kernel, 1 + 3 + 7 + 15 = 26 at max-n 4
def _kernel_images(n: int, kernel: int) -> frozenset[int]:
    """The point masks f(K) over every choice function f on n points, K the subset indices in ``kernel``."""
    read = _kernel_values(points_of(kernel))
    return frozenset(map(mask_of, set(map(read, _choice_images(n)))))


def limit_set_P(space: FiniteSpace, phi: FilterOnCarrier) -> int:
    """Points some choice function's image filter converges to.

    ``phi`` is a filter on the canonical non-empty-subset carrier of the
    space's ground set.
    """
    n = space.n
    if phi.carrier.size != (1 << n) - 1:
        raise ValueError("filter must live on the subset carrier of the space")
    p = 0
    for image in _kernel_images(n, phi.kernel):
        for x, u in enumerate(space.min_nbhds):
            if is_subset(image, u):
                p |= 1 << x
    return p


def _hyper_converges(space: FiniteSpace, phi: FilterOnCarrier, target_mask: int) -> bool:
    """Convergence of a subset-carrier filter in the lower Vietoris topology."""
    hyper = lower_vietoris(space, tuple(nonempty_subsets(space.n)))
    return converges(hyper.topology, phi, target_mask - 1)  # compact k sits at position k − 1 (``compacts``)


def check_lower_convergence_lemma(space: FiniteSpace, phi: FilterOnCarrier) -> bool:
    """The filter converges to the closure of its reachable-point set.

    For an ultrafilter on the non-empty subsets, the set P of points reached
    by some choice-function image filter always has non-empty closure and
    the filter converges to that closure in the lower Vietoris topology.
    When P is empty (possible only for non-ultrafilter inputs) the closure
    is not a hyperpoint and lower convergence to the empty set imposes no
    constraint, so the check is vacuously true.  An ultrafilter with kernel
    {S} has P = cl(S) ⊇ S ≠ ∅, so the sweeps, which run ultrafilters only,
    meet no vacuous instance.
    """
    p = limit_set_P(space, phi)
    if p == 0:
        return True
    return _hyper_converges(space, phi, closure(space, p))


def check_locally_compact_bound(space: FiniteSpace, phi: FilterOnCarrier, a: int) -> bool:
    """Lower limits are bounded by the closure of the reachable-point set.

    Requires local compactness, which every finite space has: if the filter
    converges to the hyperpoint ``a`` in the lower Vietoris topology, then
    a ⊆ cl(P).  Vacuously true without convergence.
    """
    if not _hyper_converges(space, phi, a):
        return True
    p = limit_set_P(space, phi)
    return is_subset(a, closure(space, p))


def filterwise_limit_set(space: FiniteSpace, phi: FilterOnCarrier, pair_cap: int | None = None) -> int:
    """Points reached by applying some filter of choice functions to ``phi``.

    A filter with function kernel F applied to ``phi`` has the kernel
    ∪_{f∈F} f(kernel(phi)), which holds the kernel f(kernel(phi)) of each
    f ∈ F.  So a point whose minimal neighbourhood holds the applied kernel
    of F also holds that of each singleton {f}: the singleton kernels decide
    the set, and it is ``limit_set_P``.  ``pair_cap`` is accepted and not
    read, as no kernel larger than a singleton adds a point.  The sampled
    kernel sweep is kept in ``tests/oracles.py``.
    """
    return limit_set_P(space, phi)


def check_filterwise_refinement(
    space: FiniteSpace, phi: FilterOnCarrier, a: int, pair_cap: int | None = None
) -> bool:
    """Lower limits sit inside the filterwise reachable-point set.

    Requires the nested-neighbourhood property, which every finite space
    has via minimal neighbourhoods: if the filter converges to the
    hyperpoint ``a`` in the lower Vietoris topology then a ⊆ P, with P the
    filterwise limit set.  ``pair_cap`` is not read, as in
    ``filterwise_limit_set``.
    """
    if not _hyper_converges(space, phi, a):
        return True
    return is_subset(a, filterwise_limit_set(space, phi))


class PropertyAReport(NamedTuple):
    """Outcome of the every-choice-image-is-a-point-filter test."""

    kernel_subsets: tuple[int, ...]  # the filter kernel, as subset masks
    holds: bool
    witness: FiniteMap | None  # choice function with a >= 2 point image kernel
    is_ultrafilter: bool
    is_singleton: bool
    is_countably_complete: bool


def has_property_A(n: int, phi: FilterOnCarrier) -> PropertyAReport:
    """Does every choice function send the filter to a singleton filter?

    It does exactly when the kernel is one subset S, as f(S) is one point.
    Otherwise the witness is the first choice function, in the order of
    ``_choice_images``, whose kernel values differ: the one that picks each
    subset's lowest point, unless every kernel subset has the same lowest
    point; then the last kernel subset with two or more points picks its
    second point instead.  The report carries the ultrafilter / singleton /
    countable-completeness flags alongside, since the property forces all
    three on finite carriers.
    """
    if phi.carrier.size != (1 << n) - 1:
        raise ValueError("filter must live on the subset carrier")
    kernel = phi.kernel_elements()
    witness = None
    if len(kernel) > 1:
        image = [(m & -m).bit_length() - 1 for m in range(1, 1 << n)]
        if len({image[m - 1] for m in kernel}) == 1:
            last = max(m for m in kernel if m & (m - 1))
            rest = last & (last - 1)
            image[last - 1] = (rest & -rest).bit_length() - 1
        witness = FiniteMap((1 << n) - 1, n, tuple(image))
    return PropertyAReport(
        kernel_subsets=kernel,
        holds=witness is None,
        witness=witness,
        is_ultrafilter=is_ultrafilter(phi),
        is_singleton=phi.kernel.bit_count() == 1,
        is_countably_complete=True,  # a finite carrier's filters are principal (README, "Notes on definitions")
    )


class PropertyAClassification(NamedTuple):
    n: int
    filter_count: int
    property_a_count: int
    singleton_count: int
    property_a_equals_singletons: bool
    all_property_a_ultrafilters: bool
    all_property_a_countably_complete: bool


def classify_property_A(n: int) -> PropertyAClassification:
    """Exhaustive sweep of all filters on the non-empty subsets of n points."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 3:
        raise SizeLimitExceeded("filter sweep is limited to n <= 3")
    carrier = subsets_carrier(n)
    total = 0
    prop_a = []
    singleton = 0
    for phi in enumerate_filters(carrier):
        total += 1
        report = has_property_A(n, phi)
        if report.is_singleton:
            singleton += 1
        if report.holds:
            prop_a.append(report)
    return PropertyAClassification(
        n=n,
        filter_count=total,
        property_a_count=len(prop_a),
        singleton_count=singleton,
        property_a_equals_singletons=all(r.is_singleton for r in prop_a)
        and len(prop_a) == singleton,
        all_property_a_ultrafilters=all(r.is_ultrafilter for r in prop_a),
        all_property_a_countably_complete=all(
            r.is_countably_complete for r in prop_a
        ),
    )

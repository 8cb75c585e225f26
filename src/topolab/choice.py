"""Choice-function calculus over the non-empty powerset of a finite set.

A choice function assigns to every non-empty subset one of its own elements;
here it is a FiniteMap from the canonical subset indices (mask - 1) to the
ground points.  The checks in this module sweep filters on the subset
carrier and relate their lower-Vietoris limits to the points reachable
through choice-function images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .bitsets import is_subset, nonempty_subsets, points_of
from .errors import SizeLimitExceeded
from .filters import (
    FilterOnCarrier,
    converges,
    is_countably_complete,
    is_ultrafilter,
    subsets_carrier,
)
from .hyperspaces import lower_vietoris
from .spaces import FiniteSpace, closure
from .maps import FiniteMap


def enumerate_choice_functions(n: int) -> Iterator[FiniteMap]:
    """All choice functions on an n-point ground set, deterministic order.

    The image tuple is indexed by the canonical subset order (mask - 1) and
    runs lexicographically over the per-subset element choices.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 4:
        raise SizeLimitExceeded("choice-function enumeration is limited to n <= 4")
    per_subset = [points_of(m) for m in nonempty_subsets(n)]
    for assignment in itertools.product(*per_subset):
        yield FiniteMap((1 << n) - 1, n, assignment)


def _image_kernel(f: FiniteMap, kernel: tuple[int, ...]) -> int:
    """Point mask of { f(A) : A in kernel } for kernel indices on the subset carrier."""
    out = 0
    for i in kernel:
        out |= 1 << f.image[i]
    return out


@lru_cache(maxsize=None)
def limit_set_P(space: FiniteSpace, phi: FilterOnCarrier) -> int:
    """Points some choice function's image filter converges to.

    ``phi`` is a filter on the canonical non-empty-subset carrier of the
    space's ground set.
    """
    n = space.n
    if phi.carrier.size != (1 << n) - 1:
        raise ValueError("filter must live on the subset carrier of the space")
    mins = space.min_nbhds
    kernel = points_of(phi.kernel)
    p = 0
    for f in enumerate_choice_functions(n):
        imgk = _image_kernel(f, kernel)
        for x in range(n):
            if is_subset(imgk, mins[x]):
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
    constraint, so the check is vacuously true; suites flag those instances
    via limit_set_P.
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


@dataclass(frozen=True)
class PropertyAReport:
    """Outcome of the every-choice-image-is-a-point-filter test."""

    kernel_subsets: tuple[int, ...]  # the filter kernel, as subset masks
    holds: bool
    witness: FiniteMap | None  # choice function with a >= 2 point image kernel
    is_ultrafilter: bool
    is_singleton: bool
    is_countably_complete: bool


def has_property_A(n: int, phi: FilterOnCarrier) -> PropertyAReport:
    """Does every choice function send the filter to a singleton filter?

    The report carries the ultrafilter / singleton / countable-completeness
    flags alongside, since the property forces all three on finite carriers.
    """
    if phi.carrier.size != (1 << n) - 1:
        raise ValueError("filter must live on the subset carrier")
    kernel = points_of(phi.kernel)
    holds = True
    witness = None
    for f in enumerate_choice_functions(n):
        imgk = _image_kernel(f, kernel)
        if imgk.bit_count() >= 2:
            holds = False
            witness = f
            break
    return PropertyAReport(
        kernel_subsets=tuple(sorted(phi.kernel_elements())),
        holds=holds,
        witness=witness,
        is_ultrafilter=is_ultrafilter(phi),
        is_singleton=phi.kernel.bit_count() == 1,
        is_countably_complete=is_countably_complete(phi),
    )


@dataclass(frozen=True)
class PropertyAClassification:
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
    from .filters import enumerate_filters

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

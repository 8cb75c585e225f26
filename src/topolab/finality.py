"""Final topologies over hyperspace projections and the discrete-square check.

The target carrier is the family of non-empty compacts of a codomain space;
sources are pairs (X, A) of a domain space and a compact subset, each
contributing the map f ↦ f(A) from the compact-open function space to the
hyperspace carrier.  Every final topology here comes from one kernel,
``spaces.final_from_edges``: each source pushes the minimal-neighbourhood
edges f → g of its function space forward to the edges f(A) → g(A)
(``pushed_edges`` gives them per value f(A), as the mask of the values
they reach), and
the final topology is their reflexive transitive closure.  No candidate
subsets of the carrier are scanned.

The function-space neighbourhoods come from the carrier's pull-back, or,
with the "materialize" strategy, from the listed opens of the compact-open
topology behind the size guard.  For discrete domains a restriction-based
route makes the 3x3 square (19683 maps) tractable: every map out of a
discrete space is continuous and its minimal compact-open neighbourhood is
the pointwise box around it, so the pushed-forward edges only depend on the
restriction of the map to A, and a larger A pushes every edge a smaller one
does.  The route scans the restrictions once, at the largest source.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from . import limits
from .bitsets import complement, family_of, full_mask, is_subset, iter_bits, mask_of
from .errors import SizeLimitExceeded
from .filters import contains, enumerate_ultrafilters, points_carrier, singleton_filter
from .funcspaces import compact_open
from .hyperspaces import compacts, vietoris
from .spaces import (
    FiniteSpace,
    closure,
    discrete_space,
    final_from_edges,
    generate_from_subbase,
    min_nbhds_of,
)


class FinalitySetup(NamedTuple):
    cod: FiniteSpace
    family: tuple[int, ...]  # hyperspace carrier: compacts of cod
    sources: tuple[tuple[FiniteSpace, int], ...]
    computed: FiniteSpace  # final topology over the family indices
    strategy: str


def pushed_edges(groups: dict[int, int], mins: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Per value v, the pair (v, reached), reached the mask of the values u of the edges v → u pushed forward.

    ``groups`` maps each value v of a coordinate f ↦ v on a function space
    to the mask of the maps sent to v, and ``mins`` is the space's
    minimal-neighbourhood array.  The edges pushed forward from v are the
    v → u where some U_f with f ↦ v holds a g ↦ u: those to the groups u
    that the reach of v, the union of the U_f over its group, meets, and
    ``reached`` has bit u set for each.  A map between finite spaces is
    continuous iff it is monotone for the specialization preorders, so the
    coordinate is continuous into a topology T on the values iff every
    edge v → u lies in T's preorder, u ∈ U_v; and the final topology of
    such coordinates is the reflexive transitive closure of their edges
    (``final_from_edges``).
    """
    items = groups.items()
    for v, members in items:
        reach = 0
        while members:  # iter_bits inlined: one step per map
            low = members & -members
            reach |= mins[low.bit_length() - 1]
            members ^= low
        reached = 0
        for u, others in items:
            if reach & others:
                reached |= 1 << u
        yield v, reached


def final_over_projections(
    cod: FiniteSpace,
    sources: Sequence[tuple[FiniteSpace, int]],
    strategy: str = "nbhd",
) -> FinalitySetup:
    """Final topology on the compacts of ``cod`` w.r.t. all f ↦ f(A) maps.

    strategy: "nbhd" takes the function-space neighbourhoods from the
    carrier, "materialize" reads them back from the listed opens of the
    compact-open topology (SizeLimitExceeded suggests the other route);
    any other value is refused with ValueError.
    """
    if strategy not in ("nbhd", "materialize"):
        raise ValueError(f"unknown strategy {strategy!r}; expected 'nbhd' or 'materialize'")
    if not sources:
        raise ValueError("need at least one source")
    for src, a in sources:
        family_of((a,), src.n, "source subset must be a non-empty compact of its space", nonempty=True)
    family = compacts(cod)
    edges = set()
    for src, a in sources:
        fsp = compact_open(src, cod)
        if strategy == "materialize":
            try:
                mins = min_nbhds_of(fsp.size, fsp.materialize().opens)
            except SizeLimitExceeded as exc:
                raise SizeLimitExceeded(
                    f"{exc}; use the nbhd strategy for this setup"
                ) from exc
        else:
            mins = fsp.min_nbhds
        for v, reached in pushed_edges(fsp.images(a), mins):
            edges.update((v, u) for u in iter_bits(reached))
    computed = final_from_edges(len(family), edges)
    return FinalitySetup(cod, family, tuple((s, a) for s, a in sources), computed, strategy)


class InclusionReport(NamedTuple):
    contained: bool
    violations: tuple  # (vietoris open mask, source position) pairs


def check_vietoris_contained(setup: FinalitySetup) -> InclusionReport:
    """Every Vietoris open of the carrier is final-open: each final minimal neighbourhood lies in its Vietoris one."""
    hyper = vietoris(setup.cod, setup.family)
    if all(map(is_subset, setup.computed.min_nbhds, hyper.topology.min_nbhds)):
        return InclusionReport(contained=True, violations=())
    violations = []
    for o in hyper.topology.opens:
        if setup.computed.is_open(o):
            continue
        witness_source = None
        for pos, (src, a) in enumerate(setup.sources):
            fsp = compact_open(src, setup.cod)
            if not fsp.is_open(sum(m for k, m in fsp.images(a).items() if o >> k & 1)):
                witness_source = pos
                break
        violations.append((o, witness_source))
    return InclusionReport(contained=not violations, violations=tuple(violations))


class SquareFinalityReport(NamedTuple):
    y_n: int
    z_n: int
    source_count: int
    computed: FiniteSpace
    expected: FiniteSpace  # the Vietoris topology on the compacts of Y
    equal: bool
    expected_is_discrete: bool


def final_from_discrete_sources(
    cod: FiniteSpace, z_n: int, source_masks: Sequence[int]
) -> FiniteSpace:
    """Final topology over f ↦ f(A) for sources on a discrete z_n-point space.

    Every map out of a discrete space is continuous and its minimal
    compact-open neighbourhood is the pointwise box { g : g(z) ∈
    min_nbhd(f(z)) }, so both the projection value and the pushed-forward
    edges f(A) → g(A) depend only on the restriction of f to A, a tuple of
    |A| values.  A source's edges are those of a larger source too: padding
    a restriction and each of its neighbours with copies of their last
    entries keeps both images.  So the union over the sources is the edge
    set of the largest one, and the restrictions are scanned once, at the
    largest |A|; with no source only the loops remain.  Every mask is
    checked to be a non-empty subset of the z_n points before any is read,
    and the cod.n^|A| restrictions of the largest source, the carrier of
    the general route's function space on it, are checked against the
    point guard before the scan.
    Agrees with the general neighbourhood strategy of final_over_projections
    and with the per-source scan ``oracles.final_from_discrete_sources_by_sources``
    (asserted in tests, also for non-discrete codomains where the edges
    really remove opens).
    """
    if z_n < 0:
        raise ValueError("z_n must not be negative")
    masks = family_of(source_masks, z_n, "source subset must be a non-empty subset of the discrete space", nonempty=True)
    size = max((a.bit_count() for a in masks), default=0)
    limits.guard_points(cod.n ** size, "the restrictions of the largest source")
    family = compacts(cod)
    index = {m: i for i, m in enumerate(family)}
    cod_mins = cod.min_nbhds

    edges = set()
    for restriction in itertools.product(range(cod.n), repeat=size) if size else ():
        h = index[mask_of(restriction)]
        reach = {0}
        for val in restriction:
            nbhd = tuple(iter_bits(cod_mins[val]))
            reach = {s | (1 << c) for s in reach for c in nbhd}
        edges.update((h, index[r]) for r in reach)
    return final_from_edges(len(family), edges)


def check_finality_discrete_square(y_n: int) -> SquareFinalityReport:
    """Final topology from the discrete square equals the Vietoris topology.

    Y is the discrete space on y_n points (a finite Hausdorff regular space
    is discrete, and a finite discrete space is its own Stone-Čech
    compactification, so the square Z = Y×Y with the discrete topology plays
    the compactification's role directly).  Sources are (Z, A) for the
    prefixes A = {0..k−1}, k = 1..z_n, and they give the final topology of
    all compacts of Z: on a discrete Z the restrictions of maps to A, and
    so the pushed edges f(A) → g(A), depend only on |A|, so one compact of
    each size contributes every edge.  The report counts the z_n prefixes
    as its sources.

    Every subset of the discrete Z is compact and every map out of it is
    continuous, so the scan runs over restrictions to A (the projection
    value and the minimal-neighbourhood box of a map only depend on f|A).
    The largest prefix, Z itself, pushes every edge the smaller ones do, so
    ``final_from_discrete_sources`` scans the y_n^z_n restrictions of size
    z_n once (3^9 = 19683 for y = 3).
    """
    if y_n < 1:
        raise ValueError("y_n must be positive")
    if y_n > 3:
        raise SizeLimitExceeded("discrete-square check is limited to y_n <= 3")
    y = discrete_space(y_n)
    expected = vietoris(y, compacts(y)).topology

    z_n = y_n * y_n
    source_masks = tuple((1 << k) - 1 for k in range(1, z_n + 1))

    computed = final_from_discrete_sources(y, z_n, source_masks)

    return SquareFinalityReport(
        y_n=y_n,
        z_n=z_n,
        source_count=len(source_masks),
        computed=computed,
        expected=expected,
        equal=computed == expected,
        expected_is_discrete=all(u & (u - 1) == 0 for u in expected.min_nbhds),
    )


class StoneCechReport(NamedTuple):
    d_n: int
    ultrafilter_count: int
    w_bijective: bool
    closures_clopen: bool        # closures of point images are clopen
    base_is_clopen: bool         # the generating base consists of clopen sets
    clopen_closure_form: bool    # every clopen C equals cl(C ∩ w(D))


def stone_cech_finite_discrete(d_n: int) -> StoneCechReport:
    """Ultrafilter-space checks for a finite discrete space.

    The ultrafilter space of the discrete space on d_n points is built with
    the base { Uf(M) : M ⊆ D } (ultrafilters containing M); for a finite
    discrete space all ultrafilters are point filters, so w : x ↦ ε(x) must
    be a bijection and the space coincides with D itself.  Every flag is
    computed from the ultrafilters ``enumerate_ultrafilters`` lists: w is
    bijective, the closure of each image w(M) is the clopen Uf(M), the base
    is clopen and holds a neighbourhood base, and every clopen set C is the
    closure of its trace C ∩ w(D).  A point whose filter is not listed has
    no image, so w is then not bijective and nothing raises.  The discrete
    space lists its 2^d_n opens, so a d_n over the open-set guard is
    refused before the base is built or any ultrafilter listed.
    """
    if d_n < 1:
        raise ValueError("d_n must be positive")
    lim = limits.max_opens()
    if 1 << d_n > lim:
        raise SizeLimitExceeded(f"the discrete space on {d_n} points has 2^{d_n} opens, over the open-set limit {lim}")
    carrier = points_carrier(d_n)
    ultras = list(enumerate_ultrafilters(carrier))
    index = {u: i for i, u in enumerate(ultras)}
    w = [index.get(singleton_filter(carrier, x)) for x in range(d_n)]  # None: the point's filter is not listed

    def image(m: int) -> int:
        """The index mask of w(M)."""
        return sum(1 << w[x] for x in iter_bits(m) if w[x] is not None)

    base = [sum(1 << i for i, u in enumerate(ultras) if contains(u, m)) for m in range(1 << d_n)]  # Uf(M)
    space = generate_from_subbase(len(ultras), base)
    clopens = {c for c in space.opens if space.is_open(complement(c, space.n))}
    return StoneCechReport(
        d_n=d_n,
        ultrafilter_count=len(ultras),
        w_bijective=None not in w and len(set(w)) == d_n == len(ultras),
        closures_clopen=all(b in clopens and closure(space, image(m)) == b for m, b in enumerate(base)),
        base_is_clopen=clopens.issuperset(base)
        and all(any(b >> x & 1 and is_subset(b, u) for b in base) for x, u in enumerate(space.min_nbhds)),
        clopen_closure_form=all(closure(space, c & image(full_mask(d_n))) == c for c in clopens),
    )

"""Final topologies over hyperspace projections and the discrete-square check.

The target carrier is the family of non-empty compacts of a codomain space;
sources are pairs (X, A) of a domain space and a compact subset, each
contributing the map f ↦ f(A) from the compact-open function space to the
hyperspace carrier.  Every final topology here comes from one kernel,
``spaces.final_from_edges``: each source pushes the minimal-neighbourhood
edges f → g of its function space forward to the edges f(A) → g(A), and the
final topology is their reflexive transitive closure.  No candidate subsets
of the carrier are scanned.

The function-space neighbourhoods come from the carrier's pull-back, or,
with the "materialize" strategy, from the listed opens of the compact-open
topology behind the size guard.  For discrete domains a restriction-based
route makes the 3x3 square (19683 maps) tractable: every map out of a
discrete space is continuous and its minimal compact-open neighbourhood is
the pointwise box around it, so the pushed-forward edges only depend on the
restriction of the map to A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .bitsets import complement, is_subset, iter_bits, mask_of, points_of
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


@dataclass(frozen=True)
class FinalitySetup:
    cod: FiniteSpace
    family: tuple[int, ...]  # hyperspace carrier: compacts of cod
    sources: tuple[tuple[FiniteSpace, int], ...]
    computed: FiniteSpace  # final topology over the family indices
    strategy: str


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
        if a not in compacts(src):
            raise ValueError("source subset must be a non-empty compact of its space")
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
        groups = fsp.images(a)
        for k, members in groups.items():  # the edge k → j when some U_f, f(A) = k, holds a g with g(A) = j
            reach = 0
            for fi in iter_bits(members):
                reach |= mins[fi]
            edges.update((k, j) for j, others in groups.items() if reach & others)
    computed = final_from_edges(len(family), edges)
    return FinalitySetup(cod, family, tuple((s, a) for s, a in sources), computed, strategy)


@dataclass(frozen=True)
class InclusionReport:
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


@dataclass(frozen=True)
class SquareFinalityReport:
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
    edges f(A) → g(A) depend only on the restriction of f to A; the edges
    are therefore collected over restrictions instead of whole maps.  Agrees
    with the general neighbourhood strategy of final_over_projections
    (asserted in tests, also for non-discrete codomains where the edges
    really remove opens).
    """
    family = compacts(cod)
    index = {m: i for i, m in enumerate(family)}
    cod_mins = cod.min_nbhds

    edges = set()
    for a in source_masks:
        pts = points_of(a)
        if not pts or a >= (1 << z_n):
            raise ValueError("source subset must be a non-empty subset of the discrete space")
        for restriction in itertools.product(range(cod.n), repeat=len(pts)):
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
    each size contributes every edge.

    Every subset of the discrete Z is compact and every map out of it is
    continuous, so the scan runs over restrictions to A (the projection
    value and the minimal-neighbourhood box of a map only depend on f|A).
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


@dataclass(frozen=True)
class StoneCechReport:
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
    be a bijection and the space coincides with D itself.  The three
    structural facts are then verified extensionally: closures of point-set
    images are clopen, the generating base is clopen, and every clopen set C
    is the closure of its trace C ∩ w(D).
    """
    if d_n < 1:
        raise ValueError("d_n must be positive")
    carrier = points_carrier(d_n)
    ultras = list(enumerate_ultrafilters(carrier))
    # w sends a point to its singleton filter; bijectivity onto the ultrafilters
    w = {x: singleton_filter(carrier, x) for x in range(d_n)}
    w_bijective = (
        len(ultras) == d_n
        and len(set(w.values())) == d_n
        and set(w.values()) == set(ultras)
    )
    uf_index = {u: i for i, u in enumerate(ultras)}

    def uf_of(m: int) -> int:
        """Index mask of the ultrafilters containing M (kernel inside M)."""
        out = 0
        for i, u in enumerate(ultras):
            if contains(u, m):
                out |= 1 << i
        return out

    base = [uf_of(m) for m in range(1 << d_n)]
    space = generate_from_subbase(len(ultras), base)

    def clopen(mask: int) -> bool:
        return space.is_open(mask) and space.is_open(complement(mask, space.n))

    w_image_mask = 0
    for x in range(d_n):
        w_image_mask |= 1 << uf_index[w[x]]

    closures_clopen = True
    for m in range(1 << d_n):
        img = 0
        for x in iter_bits(m):
            img |= 1 << uf_index[w[x]]
        cl = closure(space, img)
        if not clopen(cl) or cl != uf_of(m):
            closures_clopen = False
            break

    # base property: each point x has a base set b with x in b ⊆ U_x
    base_is_clopen = all(clopen(b) for b in base) and all(
        any(b >> x & 1 and is_subset(b, u) for b in base) for x, u in enumerate(space.min_nbhds)
    )

    clopen_closure_form = True
    for c in range(1 << len(ultras)):
        if not clopen(c):
            continue
        if closure(space, c & w_image_mask) != c:
            clopen_closure_form = False
            break

    return StoneCechReport(
        d_n=d_n,
        ultrafilter_count=len(ultras),
        w_bijective=w_bijective,
        closures_clopen=closures_clopen,
        base_is_clopen=base_is_clopen,
        clopen_closure_form=clopen_closure_form,
    )

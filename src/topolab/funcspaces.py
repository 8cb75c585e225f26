"""Set-open topologies on finite function sets and the hyperspace embedding.

Function-space topologies blow up fast (a discrete topology on the 27 maps
between 3-point spaces already has 2^27 opens), so a FunctionSpace keeps the
generating data and the minimal-neighbourhood array of its carrier instead
of a materialized open family.  Openness of a set of functions is decided by
the point-has-basic-neighbourhood test; materialization is available behind
the size guard, and the two strategies are asserted to agree on small
instances in the test suite.

The minimal neighbourhood of f under the topology generated by the sets
(A, W) = { f : f(A) ⊆ W } is the intersection of those that contain f, which
the preorder kernel ``spaces.min_nbhds_of`` computes from the subbase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .bitsets import canon_family, is_subset, iter_bits
from .errors import ImageNotInFamily
from .hyperspaces import compacts, vietoris
from .maps import FiniteMap, all_maps
from .spaces import FiniteSpace, _union_closure, min_nbhds_of


def is_continuous(dom: FiniteSpace, cod: FiniteSpace, f: FiniteMap) -> bool:
    """Preimage of every open is open."""
    if f.dom_n != dom.n or f.cod_n != cod.n:
        raise ValueError("map does not match the given spaces")
    return all(f.preimage_of(w) in dom.open_set for w in cod.opens)


@lru_cache(maxsize=None)
def continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[FiniteMap, ...]:
    """All continuous maps dom -> cod, in all_maps order."""
    return tuple(f for f in all_maps(dom.n, cod.n) if is_continuous(dom, cod, f))


@dataclass(frozen=True)
class FunctionSpace:
    """A carrier of maps dom -> cod with the set-open topology of ``family``."""

    dom: FiniteSpace
    cod: FiniteSpace
    functions: tuple[FiniteMap, ...]
    family: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.functions)

    @cached_property
    def _images(self) -> tuple[tuple[int, ...], ...]:
        """_images[fi][ai] = image mask of family[ai] under functions[fi]."""
        return tuple(
            tuple(f.image_of(a) for a in self.family) for f in self.functions
        )

    def subbasic(self, a: int, w: int) -> int:
        """Function-index mask of (a, w) = { f : f(a) ⊆ w }; ValueError unless a is in the family."""
        ai = self.family.index(a)
        out = 0
        for fi, row in enumerate(self._images):
            if row[ai] & ~w == 0:
                out |= 1 << fi
        return out

    @cached_property
    def min_nbhds(self) -> tuple[int, ...]:
        """Minimal neighbourhood of each carrier function, as function masks.

        The intersection of the subbasic sets (A, W) that contain it.
        """
        return min_nbhds_of(
            self.size, (self.subbasic(a, w) for a in self.family for w in self.cod.opens)
        )

    def is_open(self, mask: int) -> bool:
        """Neighbourhood test: every member keeps its minimal neighbourhood inside."""
        mins = self.min_nbhds
        return all(mins[fi] & ~mask == 0 for fi in iter_bits(mask))

    def materialize(self) -> FiniteSpace:
        """Extensional topology over the function indices (behind the guard)."""
        return FiniteSpace(self.size, _union_closure(self.size, self.min_nbhds, "function-space topology"))


def set_open_topology(
    carrier: Sequence[FiniteMap],
    family: Sequence[int],
    dom: FiniteSpace,
    cod: FiniteSpace,
) -> FunctionSpace:
    """Topology on the carrier generated by { (A, W) : A in family, W open }."""
    fam = canon_family(family)
    if any(not is_subset(a, dom.full) for a in fam):
        raise ValueError("family members must be subsets of the domain")
    fns = tuple(carrier)
    if any(f.dom_n != dom.n or f.cod_n != cod.n for f in fns):
        raise ValueError("carrier maps must go from dom to cod")
    return FunctionSpace(dom, cod, fns, fam)


def compact_open(
    dom: FiniteSpace,
    cod: FiniteSpace,
    carrier: str | Sequence[FiniteMap] = "continuous",
) -> FunctionSpace:
    """Set-open topology generated by the compact subsets of the domain."""
    if carrier == "continuous":
        fns: Sequence[FiniteMap] = continuous_maps(dom, cod)
    elif carrier == "all":
        fns = tuple(all_maps(dom.n, cod.n))
    else:
        fns = tuple(carrier)
    return set_open_topology(fns, compacts(dom), dom, cod)


def mu(
    dom: FiniteSpace,
    cod: FiniteSpace,
    family: Sequence[int],
    f: FiniteMap,
    target_family: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """The indexed family A ↦ f(A), as target-family indices per family slot.

    The target family defaults to the compacts of the codomain (continuous
    images of compacts stay compact, which on finite spaces covers every
    image of a non-empty set); a different family may be supplied, and an
    image landing outside it raises ImageNotInFamily.
    """
    if not is_continuous(dom, cod, f):
        raise ValueError("mu expects a continuous map")
    tf = canon_family(target_family if target_family is not None else compacts(cod))
    index = {a: i for i, a in enumerate(tf)}
    out = []
    for a in canon_family(family):
        img = f.image_of(a)
        if img not in index:
            raise ImageNotInFamily(
                f"image of family member {a:#x} is not in the target family"
            )
        out.append(index[img])
    return tuple(out)


@dataclass(frozen=True)
class MuEmbeddingReport:
    continuous: bool
    open_onto_image: bool
    injective: bool
    family_has_singletons: bool


def mu_embedding_report(
    dom: FiniteSpace,
    cod: FiniteSpace,
    carrier: Sequence[FiniteMap],
    family: Sequence[int],
    target_family: Sequence[int] | None = None,
) -> MuEmbeddingReport:
    """Check that f ↦ (A ↦ f(A)) embeds the carrier into the hyperspace power.

    The carrier gets the set-open topology of ``family``; the target is the
    product over the family of copies of the Vietoris hyperspace on
    ``target_family`` (default: the compacts of the codomain) with the
    pointwise product topology.  Three facts are computed by definition:

    * continuity: preimages of the product cylinders are open;
    * openness onto the image: images of opens are open in the subspace
      topology of the image, decided via product minimal neighbourhoods
      (for injective carriers the subbasic opens suffice because images then
      commute with intersections; otherwise the carrier topology is
      materialized behind the size guard);
    * injectivity: the value tuples are pairwise distinct.

    All three hold whenever the family contains the singletons; a family
    without them only flags the report, it does not raise.
    """
    fam = canon_family(family)
    fs = set_open_topology(carrier, fam, dom, cod)
    tf = canon_family(target_family if target_family is not None else compacts(cod))
    hyper = vietoris(cod, tf)
    singles = all((1 << x) in fam for x in range(dom.n))

    tuples = [mu(dom, cod, fam, f, tf) for f in fs.functions]
    injective = len(set(tuples)) == len(tuples)

    # continuity: cylinder preimages { f : f(A) ∈ V } are open in the carrier
    continuous = True
    for ai in range(len(fam)):
        for v in hyper.topology.opens:
            pre = 0
            for fi, tup in enumerate(tuples):
                if v >> tup[ai] & 1:
                    pre |= 1 << fi
            if not fs.is_open(pre):
                continuous = False
                break
        if not continuous:
            break

    # product minimal neighbourhood of mu(f), pulled back to carrier indices
    hmins = hyper.topology.min_nbhds
    pm = []
    for fi in range(fs.size):
        box = 0
        for gi in range(fs.size):
            if all(
                hmins[tuples[fi][ai]] >> tuples[gi][ai] & 1
                for ai in range(len(fam))
            ):
                box |= 1 << gi
        pm.append(box)

    def image_relatively_open(g_mask: int) -> bool:
        members = set(tuples[fi] for fi in iter_bits(g_mask))
        saturated = 0
        for gi in range(fs.size):
            if tuples[gi] in members:
                saturated |= 1 << gi
        return all(is_subset(pm[fi], saturated) for fi in iter_bits(g_mask))

    if injective:
        opens_to_check = [
            fs.subbasic(a, w) for a in fam for w in cod.opens
        ]
    else:
        opens_to_check = list(fs.materialize().opens)
    open_onto_image = all(image_relatively_open(g) for g in opens_to_check)

    return MuEmbeddingReport(
        continuous=continuous,
        open_onto_image=open_onto_image,
        injective=injective,
        family_has_singletons=singles,
    )


def projection_compose(dom: FiniteSpace, cod: FiniteSpace, a: int) -> FiniteMap:
    """Index map sending a continuous f to the position of f(A) in the compacts.

    The domain indices follow continuous_maps(dom, cod); the codomain indices
    follow compacts(cod).
    """
    ks = compacts(dom)
    if a not in ks:
        raise ValueError("a must be a non-empty compact subset of the domain")
    fns = continuous_maps(dom, cod)
    target = compacts(cod)
    index = {k: i for i, k in enumerate(target)}
    return FiniteMap(
        len(fns), len(target), tuple(index[f.image_of(a)] for f in fns)
    )

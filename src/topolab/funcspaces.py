"""Set-open topologies on finite function sets and the hyperspace embedding.

Function-space topologies blow up fast (a discrete topology on the 27 maps
between 3-point spaces already has 2^27 opens), so a FunctionSpace keeps the
generating data and the minimal-neighbourhood array of its carrier instead
of a materialized open family.  Openness of a set of functions is decided by
the point-has-basic-neighbourhood test; materialization is available behind
the size guard, and the two strategies are asserted to agree on small
instances in the test suite.

Both neighbourhood computations pull minimal neighbourhoods back along the
coordinates f ↦ f(A) (``_pull_back``): the set-open topology is the initial
topology of these maps into the upper Vietoris hyperspace, and the
embedding f ↦ (A ↦ f(A)) is decided against the Vietoris power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Sequence

from .bitsets import canon_family, full_mask, is_subset, iter_bits
from .errors import ImageNotInFamily
from .hyperspaces import compacts, vietoris
from .maps import FiniteMap, all_maps
from .spaces import FiniteSpace, _union_closure


def is_continuous(dom: FiniteSpace, cod: FiniteSpace, f: FiniteMap) -> bool:
    """Preimage of every open is open."""
    if f.dom_n != dom.n or f.cod_n != cod.n:
        raise ValueError("map does not match the given spaces")
    return all(f.preimage_of(w) in dom.open_set for w in cod.opens)


@lru_cache(maxsize=None)
def continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[FiniteMap, ...]:
    """All continuous maps dom -> cod, in all_maps order."""
    return tuple(f for f in all_maps(dom.n, cod.n) if is_continuous(dom, cod, f))


def _pull_back(size: int, groups: Sequence[dict], near: Callable[[object, object], bool]) -> tuple[int, ...]:
    """Per index i, the indices whose value lies near i's value in every slot.

    ``groups[s]`` maps each value of slot s to the mask of indices taking it;
    ``near(v, u)`` says u is in the target neighbourhood of v.  Cost per slot:
    its indices plus the square of its distinct values.
    """
    out = [full_mask(size)] * size
    for slot in groups:
        items = tuple(slot.items())
        for v, members in items:
            up = 0
            for u, others in items:
                if near(v, u):
                    up |= others
            for i in iter_bits(members):
                out[i] &= up
    return tuple(out)


def _group_by_slot(rows: Iterable[Sequence], slots: int) -> tuple[dict, ...]:
    """groups[s][v] = mask of the row indices whose slot s holds v."""
    groups = tuple({} for _ in range(slots))
    for i, row in enumerate(rows):
        bit = 1 << i
        for slot, v in zip(groups, row):
            slot[v] = slot.get(v, 0) | bit
    return groups


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
    def _groups(self) -> tuple[dict[int, int], ...]:
        """_groups[ai][img] = function mask of { f : f(family[ai]) = img }."""
        return _group_by_slot(
            (tuple(f.image_of(a) for a in self.family) for f in self.functions), len(self.family)
        )

    def subbasic(self, a: int, w: int) -> int:
        """Function-index mask of (a, w) = { f : f(a) ⊆ w }; ValueError unless a is in the family."""
        out = 0
        for img, members in self._groups[self.family.index(a)].items():
            if img & ~w == 0:
                out |= members
        return out

    @cached_property
    def min_nbhds(self) -> tuple[int, ...]:
        """Minimal neighbourhood of each carrier function, as function masks.

        The subbasic sets (A, W) containing f meet in { g : g(A) ⊆ hull(f(A)) },
        hull being the smallest open superset in the codomain; intersect over A.
        """
        mins = self.cod.min_nbhds
        hull = {v: reduce(or_, (mins[y] for y in iter_bits(v)), 0) for slot in self._groups for v in slot}
        return _pull_back(self.size, self._groups, lambda v, u: u & ~hull[v] == 0)

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
    pointwise product topology.  With U_f the minimal neighbourhood of f in
    the carrier and P_f the set of g with every g(A) in the Vietoris minimal
    neighbourhood of f(A) (the product neighbourhood of mu(f), pulled back):

    * continuity: U_f ⊆ P_f for every f;
    * openness onto the image: P_f ⊆ sat(U_f) for every f, sat(S) being the
      union of the mu-fibres meeting S (U_f is the smallest open around f);
    * injectivity: the value tuples are pairwise distinct.

    All three hold whenever the family contains the singletons; a family
    without them only flags the report, it does not raise.
    """
    fam = canon_family(family)
    fs = set_open_topology(carrier, fam, dom, cod)
    tf = canon_family(target_family if target_family is not None else compacts(cod))
    hmins = vietoris(cod, tf).topology.min_nbhds
    tuples = [mu(dom, cod, fam, f, tf) for f in fs.functions]
    pm = _pull_back(fs.size, _group_by_slot(tuples, len(fam)), lambda v, u: hmins[v] >> u & 1)
    # mu-fibres of two or more functions: sat(S) is S plus those meeting it
    shared = [m for m in _group_by_slot(((t,) for t in tuples), 1)[0].values() if m & (m - 1)]
    mins = fs.min_nbhds
    return MuEmbeddingReport(
        continuous=all(is_subset(u, p) for u, p in zip(mins, pm)),
        open_onto_image=all(is_subset(p, reduce(or_, (m for m in shared if m & u), u)) for u, p in zip(mins, pm)),
        injective=not shared,
        family_has_singletons=all((1 << x) in fam for x in range(dom.n)),
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

"""Total functions between finite ground sets, stored as image arrays."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .bitsets import iter_bits


@dataclass(frozen=True)
class FiniteMap:
    """A total map {0..dom_n-1} -> {0..cod_n-1} as an image tuple."""

    dom_n: int
    cod_n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.dom_n:
            raise ValueError("image array length must equal dom_n")
        if self.image and not (0 <= min(self.image) and max(self.image) < self.cod_n):
            raise ValueError("image entries must lie in the codomain")

    def __call__(self, x: int) -> int:
        return self.image[x]

    @cached_property
    def _point_preimages(self) -> tuple[int, ...]:
        pre = [0] * self.cod_n
        for x, y in enumerate(self.image):
            pre[y] |= 1 << x
        return tuple(pre)

    def image_of(self, mask: int) -> int:
        """Image of a subset of the domain, as a codomain mask."""
        out = 0
        for x in iter_bits(mask):
            out |= 1 << self.image[x]
        return out

    def preimage_of(self, mask: int) -> int:
        """Preimage of a subset of the codomain, as a domain mask."""
        out = 0
        for y, pre in enumerate(self._point_preimages):
            if mask >> y & 1:
                out |= pre
        return out


def all_maps(dom_n: int, cod_n: int) -> Iterator[FiniteMap]:
    """All cod_n**dom_n total maps, in lexicographic image order."""
    for image in itertools.product(range(cod_n), repeat=dom_n):
        yield FiniteMap(dom_n, cod_n, image)

"""Total functions between finite ground sets, stored as image arrays."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .bitsets import iter_bits
from .frozen import Frozen


class FiniteMap(Frozen):
    """A total map {0..dom_n-1} -> {0..cod_n-1} as an image tuple; slotted, as carriers hold thousands."""

    __slots__ = _fields = ("dom_n", "cod_n", "image")

    def __init__(self, dom_n: int, cod_n: int, image: tuple[int, ...]):
        _put_dom(self, dom_n)
        _put_cod(self, cod_n)
        _put_image(self, image)
        self.__post_init__()

    def __post_init__(self):
        if len(self.image) != self.dom_n:
            raise ValueError("image array length must equal dom_n")
        if self.image and not (0 <= min(self.image) and max(self.image) < self.cod_n):
            raise ValueError("image entries must lie in the codomain")

    def __call__(self, x: int) -> int:
        return self.image[x]

    def image_of(self, mask: int) -> int:
        """Image of a subset of the domain, as a codomain mask."""
        out = 0
        for x in iter_bits(mask):
            out |= 1 << self.image[x]
        return out


# the slot setters, which skip the refusal of ``Frozen.__setattr__``
_put_dom, _put_cod, _put_image = FiniteMap.dom_n.__set__, FiniteMap.cod_n.__set__, FiniteMap.image.__set__


def _unchecked_maps(dom_n: int, cod_n: int, images: Iterable[tuple[int, ...]]) -> Iterator[FiniteMap]:
    """A FiniteMap per image tuple, without the length and range check of ``FiniteMap``.

    For callers whose images have dom_n entries in range(cod_n) by
    construction.  The slot setters skip ``__init__`` and ``__post_init__``;
    the maps equal, and hash as, those of ``FiniteMap(...)``.
    """
    new, put_dom, put_cod, put_image = object.__new__, _put_dom, _put_cod, _put_image
    for image in images:
        f = new(FiniteMap)
        put_dom(f, dom_n)
        put_cod(f, cod_n)
        put_image(f, image)
        yield f


def all_maps(dom_n: int, cod_n: int) -> Iterator[FiniteMap]:
    """All cod_n**dom_n total maps, in lexicographic image order."""
    yield from _unchecked_maps(dom_n, cod_n, itertools.product(range(cod_n), repeat=dom_n))

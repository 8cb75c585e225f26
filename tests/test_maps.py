"""FiniteMap validation at its boundaries: one range check over the image."""

import itertools

import pytest

from topolab.maps import FiniteMap

OUT_OF_RANGE = "image entries must lie in the codomain"
BAD_LENGTH = "image array length must equal dom_n"


class TestValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            FiniteMap(3, 2, (0, -1, 1))

    def test_entry_equal_to_cod_n(self):
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            FiniteMap(3, 2, (0, 1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=BAD_LENGTH):
            FiniteMap(3, 2, (0, 1))
        with pytest.raises(ValueError, match=BAD_LENGTH):
            FiniteMap(0, 2, (0,))

    def test_empty_map(self):
        for cod_n in (0, 2):
            f = FiniteMap(0, cod_n, ())
            assert f.image == () and f.image_of(0) == 0

    def test_nonempty_map_into_the_empty_set(self):
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            FiniteMap(1, 0, (0,))

    def test_against_the_per_entry_rule(self):
        for dom_n in range(3):
            for cod_n in range(3):
                for image in itertools.product(range(-1, cod_n + 2), repeat=dom_n):
                    if all(0 <= y < cod_n for y in image):
                        assert FiniteMap(dom_n, cod_n, image).image == image
                    else:
                        with pytest.raises(ValueError, match=OUT_OF_RANGE):
                            FiniteMap(dom_n, cod_n, image)

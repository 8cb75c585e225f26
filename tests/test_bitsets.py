"""``bitsets.grow``, the lowest-point recurrence the image tables and the hyperspace builds share."""

import pytest

from topolab.bitsets import grow, iter_bits

# seeded masks of a 6-point ground set, each with a value naming it
SEEDINGS = [
    (0,),
    (0, 0b100000, 0b011000),
    (0, 0b101010, 0b111100, 0b111111, 0b000001),
]


def _without_lowest(m: int, k: int) -> int:
    """m less its k lowest points."""
    for _ in range(k):
        m &= m - 1
    return m


@pytest.mark.parametrize("seeds", SEEDINGS, ids=["empty-set", "two-more", "four-more"])
def test_grow_folds_step_over_the_points_above_the_nearest_seed(seeds):
    steps = []

    def step(value: tuple, x: int) -> tuple:
        steps.append(x)
        return (*value, x)

    for m in range(1 << 6):
        memo = {s: (f"seed {s:#b}",) for s in seeds}
        steps.clear()
        # the nearest seed: m less the fewest lowest points that is seeded; the masks above it are the chain
        k = next(k for k in range(m.bit_count() + 1) if _without_lowest(m, k) in memo)
        nearest = _without_lowest(m, k)
        chain = {_without_lowest(m, j) for j in range(k)}
        added = sorted(iter_bits(m ^ nearest), reverse=True)  # each step adds the lowest point of its mask
        assert grow(memo, m, step) == (*memo[nearest], *added), (m, seeds)
        assert set(memo) == set(seeds) | chain and steps == added, (m, seeds)
        # each mask on the chain holds its own fold, so a later call stops at once
        for b in chain:
            assert memo[b] == (*memo[nearest], *sorted(iter_bits(b ^ nearest), reverse=True))
        assert grow(memo, m, step) == memo[m] and steps == added

"""The engine's draws equal `random.Random`'s, value for value and state for state.

The palette drawer and the in-place shuffle skip the library's call
layers but must make its exact `getrandbits` calls; the golden traces
replay only while they do.
"""

import random

import pytest

from dyncolor.draws import palette_drawer, shuffle

PALETTES = [1, 2, 7, 128, 129, 257, 2049]


@pytest.mark.parametrize("palette", PALETTES)
def test_palette_draw_is_randrange(palette):
    rng, ref = random.Random(palette), random.Random(palette)
    draw = palette_drawer(rng, palette)
    assert [draw() for _ in range(300)] == [ref.randrange(palette) for _ in range(300)]
    assert rng.getstate() == ref.getstate()


# every short length, and both sides of each power of two: the shuffle
# draws in blocks over which (i + 1).bit_length() is constant
SHUFFLE_LENGTHS = sorted(
    set(range(71)) | {(1 << k) + d for k in range(14) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("length", SHUFFLE_LENGTHS)
def test_shuffle_is_random_shuffle(length):
    rng, ref = random.Random(length), random.Random(length)
    for _ in range(20):
        x = list(range(length))
        y = list(x)
        shuffle(rng, x)
        ref.shuffle(y)
        assert x == y
    assert rng.getstate() == ref.getstate()

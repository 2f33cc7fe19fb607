"""The engine's draws equal `random.Random`'s, value for value and state for state.

The palette drawer, the in-place shuffle and the friend sampler skip the
library's call layers but must make its exact `getrandbits` / `random`
calls; the golden traces replay only while they do.
"""

import random

import pytest

from dyncolor.draws import palette_drawer, shuffle
from dyncolor.friends import FriendTracker
from dyncolor.graph import DynamicGraph, dele
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet

from conftest import add_edges

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


@pytest.mark.parametrize("k", [1, 4, 12, 96])
def test_getrandbits_64k_advances_as_k_random_calls(k):
    # the friend sampler's skip of a pair with no common neighbor stands on
    # this, also where a prior odd-sized draw left the twister mid-block
    for seed in range(6):
        rng, ref = random.Random(seed), random.Random(seed)
        for r in (rng, ref):
            r.getrandbits(1 + seed)
        rng.getrandbits(64 * k)
        for _ in range(k):
            ref.random()
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("size", PALETTES)
def test_friend_sampler_counts_the_choices_sample(size):
    # u = 0 has `size` neighbors; each round v = 1 neighbors a fresh random
    # subset of them, and the sampler's hit count must be that of the
    # library's choices(items, k=12) from the same generator state.  A
    # batched count takes one such sample per u, in order, and the
    # isolated vertex draws nothing.  v keeps fewer than 2k = 24 neighbors,
    # so no pair reaches the exact path and every count is sampled.
    iso = size + 2
    graph = DynamicGraph(size + 3, max(size, 2))
    add_edges(graph, [(0, w) for w in range(2, size + 2)])
    rng, ref = random.Random(size), random.Random(size)
    metrics = Metrics()
    tracker = FriendTracker(graph, ParamSet(sample_count_k=12), rng, metrics)
    items = list(graph.adj[0])
    pick = random.Random(~size)

    def hits(u):
        sample = ref.choices(list(graph.adj[u]), k=12) if graph.adj[u] else []
        return sum(w in graph.adj[1] for w in sample)

    batch = (0, iso, 2, 0)
    for _ in range(40):
        for w in list(graph.adj[1]):
            graph.apply(dele(1, w))
        subset = [w for w in items if pick.random() < 0.5][:23]
        add_edges(graph, [(1, w) for w in subset])
        assert tracker._counts(1, (0,)) == [hits(0)]
        assert tracker._counts(1, batch) == [hits(u) for u in batch]
    assert rng.getstate() == ref.getstate()
    assert tracker.masks == {}
    assert metrics.samples == metrics.work == 40 * 4 * 12

"""Random draws that reproduce `random.Random`'s own, draw for draw.

For an int n > 0, CPython's `Random.randrange(n)` is `_randbelow(n)`:
`getrandbits(k)` with k = n.bit_length(), redrawn while the result is at
least n, behind several Python-level argument checks.  `shuffle` swaps
x[i] with x[_randbelow(i + 1)] for i from len(x) - 1 down to 1.  The
helpers below make exactly those `getrandbits` calls without the call
layers, so the values returned and the generator state left behind equal
the library's (pinned by tests/test_draws.py; the golden traces depend on
it).  `DenseColoring` draws through `palette_drawer`; the sparse
rejection loop inlines the same draw, as it runs once per try.

Each call consumes whole 32-bit Mersenne Twister outputs: `getrandbits(b)`
takes ceil(b / 32) of them (one for b <= 32), and `random()` takes two,
which it combines into a 53-bit float.  So `getrandbits(64 * k)` leaves the
generator where k `random()` calls leave it; the friend sampler advances
past a pair with no common neighbor that way (`FriendTracker._counts`).
"""

from __future__ import annotations


def palette_drawer(rng, palette: int):
    """A zero-argument function equal to `rng.randrange(palette)`."""
    getrandbits = rng.getrandbits
    k = palette.bit_length()

    def draw() -> int:
        c = getrandbits(k)
        while c >= palette:
            c = getrandbits(k)
        return c

    return draw


def shuffle(rng, x: list) -> None:
    """Shuffle x in place exactly as `rng.shuffle(x)` does."""
    getrandbits = rng.getrandbits
    top = len(x) - 1
    # walk i down in blocks over which (i + 1).bit_length() stays k
    for k in range(len(x).bit_length(), 1, -1):
        for i in range(top, (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = i - 1

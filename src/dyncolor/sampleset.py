"""Set with O(1) add/discard/membership and O(1) uniform random sampling.

Backed by a dense list plus a position index (swap-with-last removal).
Iteration order is the list order, which is deterministic given the
history of operations.  `SparseColoring._rejection_color` appends to
`items` and `_pos` directly, as `add` does for an absent element (on a
nearly empty graph the phase rebuild measured ~8% faster that way);
keep the two in step.
"""


class SampleSet:
    __slots__ = ("items", "_pos")

    def __init__(self, iterable=()):
        self.items = []
        self._pos = {}
        for x in iterable:
            self.add(x)

    def add(self, x):
        if x in self._pos:
            return False
        self._pos[x] = len(self.items)
        self.items.append(x)
        return True

    def discard(self, x):
        i = self._pos.pop(x, None)
        if i is None:
            return False
        last = self.items.pop()
        if last != x:
            self.items[i] = last
            self._pos[last] = i
        return True

    def sample(self, rng):
        return self.items[rng.randrange(len(self.items))]

    def clear(self):
        self.items.clear()
        self._pos.clear()

    def __contains__(self, x):
        return x in self._pos

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return f"SampleSet({self.items!r})"

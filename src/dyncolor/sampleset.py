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


# ---- shared read-only empties ---------------------------------------------------
#
# Per-vertex and per-color containers that most entries never write start
# as one of these shared empties.  Reads see an empty container; `discard`
# and `pop` are the no-ops they are on any absent element; a write raises,
# so a write site that forgot to give its entry a container of its own
# fails loudly instead of writing into every entry at once.


class _EmptySet(frozenset):
    __slots__ = ()

    def discard(self, x):
        pass

    def add(self, x):
        raise TypeError("shared empty set is read-only")


class _EmptyMap(dict):
    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("shared empty mapping is read-only")

    __setitem__ = setdefault = _read_only


class _EmptySampleSet(SampleSet):
    __slots__ = ()

    def __init__(self):
        self.items = ()
        self._pos = EMPTY_MAP

    def add(self, x):
        raise TypeError("shared empty SampleSet is read-only")


EMPTY_SET = _EmptySet()
EMPTY_MAP = _EmptyMap()
EMPTY_SAMPLESET = _EmptySampleSet()


def own(containers: list, i: int):
    """containers[i], first made its own if it is `EMPTY_MAP` or `EMPTY_SAMPLESET`."""
    c = containers[i]
    if c is EMPTY_MAP:
        c = containers[i] = {}
    elif c is EMPTY_SAMPLESET:
        c = containers[i] = SampleSet()
    return c

"""Set with O(1) add/discard/membership and O(1) uniform random sampling.

Backed by a dense list plus a position index (swap-with-last removal).
Iteration order is the list order, which is deterministic given the
history of operations.  It serves the clique color books (`CliqueBook`'s
free colors and its L) and the adversaries that delete a uniformly random
edge; the graph's adjacency is plain dicts, which sample nothing.
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
# Per-vertex containers that most entries never write start
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


EMPTY_SET = _EmptySet()
EMPTY_MAP = _EmptyMap()


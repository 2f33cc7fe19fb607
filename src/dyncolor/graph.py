"""Dynamic simple-graph substrate with a fixed vertex set and degree cap.

Adjacency is kept once, as SampleSets (O(1) membership, insert, delete
and uniform neighbor sampling), beside a flat degree list `deg`, so an
update costs O(1) at any n and a degree is one list read.  `toggle` is the
one body that mutates adjacency; it checks nothing.  `apply` is
`check_legal` plus `toggle`, and the engine's phase rewind and replay call
`toggle` directly, since they only undo and redo updates that `apply`
already accepted.  Audits that count common neighborhoods for every edge
take a bitmask snapshot once per pass (`common_neighbor_counter`, built
from `neighbor_mask`) and answer each count with a single AND + popcount.

`vertices` is the id list `list(range(n))`, made once and never mutated.
A pass over every vertex hands on these objects rather than counting
fresh ints: CPython caches only the ints up to 256, so a pass that counts
creates n new objects each time, and the boundary's sparse pass would
store them in the color classes until the next phase frees them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadEndpoints, DegreeCapExceeded, DuplicateEdge, GraphError, MissingEdge
from .sampleset import SampleSet

@dataclass(frozen=True, slots=True)
class EdgeUpdate:
    u: int
    v: int
    insert: bool

    def __str__(self):
        return f"{'+' if self.insert else '-'} {self.u} {self.v}"


def ins(u: int, v: int) -> EdgeUpdate:
    return EdgeUpdate(u, v, True)


def dele(u: int, v: int) -> EdgeUpdate:
    return EdgeUpdate(u, v, False)


class DynamicGraph:
    """Undirected simple graph on [0, n) with hard degree cap `delta`."""

    def __init__(self, n: int, delta: int):
        if n <= 0:
            raise ValueError("n must be positive")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.n = n
        self.delta = delta
        self.vertices: list[int] = list(range(n))
        self.adj: list[SampleSet] = [SampleSet() for _ in range(n)]
        self.deg: list[int] = [0] * n
        self.edge_count = 0

    # ---- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]._pos

    def degree(self, v: int) -> int:
        return self.deg[v]

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def neighbor_mask(self, v: int) -> int:
        """N(v) as an int bitmask: bit w is set when w neighbors v."""
        m = 0
        for w in self.adj[v].items:
            m |= 1 << w
        return m

    def common_neighbor_counter(self):
        """Bitmask snapshot of the adjacency; returns count(u, v) = |N(u) cap N(v)|.

        Building it costs one pass over the edges; each count is then one
        AND + popcount.  The snapshot does not follow later updates.
        """
        masks = list(map(self.neighbor_mask, self.vertices))

        def count(u: int, v: int) -> int:
            return (masks[u] & masks[v]).bit_count()

        return count

    # ---- mutation ----------------------------------------------------------

    def check_legal(self, e: EdgeUpdate) -> None:
        u, v = e.u, e.v
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise BadEndpoints(u, v)
        present = v in self.adj[u]._pos
        if e.insert:
            if present:
                raise DuplicateEdge(u, v)
            deg = self.deg
            if deg[u] >= self.delta:
                raise DegreeCapExceeded(u, v, u, self.delta)
            if deg[v] >= self.delta:
                raise DegreeCapExceeded(u, v, v, self.delta)
        elif not present:
            raise MissingEdge(u, v)

    def is_legal(self, e: EdgeUpdate) -> bool:
        try:
            self.check_legal(e)
        except GraphError:
            return False
        return True

    def apply(self, e: EdgeUpdate) -> None:
        self.check_legal(e)
        self.toggle(e.u, e.v, e.insert)

    def toggle(self, u: int, v: int, insert: bool) -> None:
        """Insert or delete the edge {u, v} without checking that it is legal.

        Each endpoint's SampleSet changes as its `add` / `discard` would:
        an insertion appends, a deletion moves the last neighbor into the
        hole.  The caller guarantees legality; `apply` checks first.  The
        two endpoints are written out in turn: a loop over them measured
        slower.
        """
        a, b = self.adj[u], self.adj[v]
        deg = self.deg
        if insert:
            a._pos[v] = len(a.items)
            a.items.append(v)
            b._pos[u] = len(b.items)
            b.items.append(u)
            deg[u] += 1
            deg[v] += 1
            self.edge_count += 1
        else:
            i = a._pos.pop(v)
            last = a.items.pop()
            if last != v:
                a.items[i] = last
                a._pos[last] = i
            i = b._pos.pop(u)
            last = b.items.pop()
            if last != u:
                b.items[i] = last
                b._pos[last] = i
            deg[u] -= 1
            deg[v] -= 1
            self.edge_count -= 1

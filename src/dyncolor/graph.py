"""Dynamic simple-graph substrate with a fixed vertex set and degree cap.

Adjacency is kept once, as one plain dict per vertex (neighbor -> None:
O(1) membership, insert and delete), so an update costs O(1) at any n and
a degree is the size of a dict.  The dicts and `edge_count` are the
graph's one record of its edges.  Readers use the dict as a set: `in`,
iteration and `len`.  Iteration follows insertion order, so it is
deterministic given the history of updates.  Nothing in the engine
samples a uniform neighbor.  Every dict is made up front, so no reader
tests for a missing one, and a deletion that empties a dict clears it, so
an isolated vertex costs one empty dict whatever its history.  With Delta
far below n, most vertices are isolated at any moment under churn.
`toggle` is the one body that mutates adjacency; it checks nothing.
`apply` is `check_legal` plus `toggle`, and the engine's phase rewind and
replay call `toggle` directly, since they only undo and redo updates that
`apply` already accepted.  Audits that count common neighborhoods for
every edge take a bitmask snapshot once per pass
(`common_neighbor_counter`, built from `neighbor_mask`) and answer each
count with a single AND + popcount.

`vertices` is the id list `list(range(n))`, made once and never mutated.
A pass over every vertex hands on these objects rather than counting
fresh ints: CPython caches only the ints up to 256, so a pass that counts
creates n new objects each time, and the boundary's sparse pass would
store them in the color classes until the next phase frees them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadEndpoints, DegreeCapExceeded, DuplicateEdge, GraphError, MissingEdge

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
        self.adj: list[dict[int, None]] = [{} for _ in range(n)]
        self.edge_count = 0

    # ---- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def neighbor_mask(self, v: int) -> int:
        """N(v) as an int bitmask: bit w is set when w neighbors v."""
        m = 0
        for w in self.adj[v]:
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
        adj = self.adj
        present = v in adj[u]
        if e.insert:
            if present:
                raise DuplicateEdge(u, v)
            if len(adj[u]) >= self.delta:
                raise DegreeCapExceeded(u, v, u, self.delta)
            if len(adj[v]) >= self.delta:
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

        An insertion adds each endpoint to the other's dict, a deletion
        removes it.  A deletion that leaves a dict empty clears it, which
        frees the table CPython keeps after the last key goes; the dict
        object stays, and a later insertion starts a fresh table in
        insertion order.  The caller guarantees legality; `apply` checks
        first.
        """
        adj = self.adj
        if insert:
            adj[u][v] = None
            adj[v][u] = None
            self.edge_count += 1
        else:
            near = adj[u]
            del near[v]
            if not near:
                near.clear()
            near = adj[v]
            del near[u]
            if not near:
                near.clear()
            self.edge_count -= 1

"""Dynamic simple-graph substrate with a fixed vertex set and degree cap.

Adjacency is kept once, as SampleSets (O(1) membership, insert, delete
and uniform neighbor sampling), so an update costs O(1) at any n.  Audits
that count common neighborhoods for every edge take a bitmask snapshot
once per pass (`common_neighbor_counter`) and answer each count with a
single AND + popcount.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeCapExceeded, DuplicateEdge, MissingEdge
from .sampleset import SampleSet

@dataclass(frozen=True, slots=True)
class EdgeUpdate:
    u: int
    v: int
    insert: bool

    def inverse(self) -> "EdgeUpdate":
        return EdgeUpdate(self.u, self.v, not self.insert)

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
        self.adj: list[SampleSet] = [SampleSet() for _ in range(n)]
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

    def common_neighbors_exact(self, u: int, v: int) -> int:
        """|N(u) cap N(v)| by exact intersection; the ground-truth oracle."""
        if u == v:
            raise ValueError("u and v must differ")
        a, b = self.adj[u], self.adj[v]
        if len(a) > len(b):
            a, b = b, a
        return sum(1 for w in a if w in b)

    def common_neighbor_counter(self):
        """Bitmask snapshot of the adjacency; returns count(u, v) = |N(u) cap N(v)|.

        Building it costs one pass over the edges; each count is then one
        AND + popcount.  The snapshot does not follow later updates.
        """
        masks = []
        for s in self.adj:
            m = 0
            for w in s.items:
                m |= 1 << w
            masks.append(m)

        def count(u: int, v: int) -> int:
            return (masks[u] & masks[v]).bit_count()

        return count

    # ---- mutation ----------------------------------------------------------

    def check_legal(self, e: EdgeUpdate) -> None:
        u, v = e.u, e.v
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad endpoints ({u},{v})")
        present = v in self.adj[u]
        if e.insert:
            if present:
                raise DuplicateEdge(u, v)
            if len(self.adj[u]) >= self.delta:
                raise DegreeCapExceeded(u, v, u, self.delta)
            if len(self.adj[v]) >= self.delta:
                raise DegreeCapExceeded(u, v, v, self.delta)
        elif not present:
            raise MissingEdge(u, v)

    def is_legal(self, e: EdgeUpdate) -> bool:
        try:
            self.check_legal(e)
        except Exception:
            return False
        return True

    def apply(self, e: EdgeUpdate) -> None:
        self.check_legal(e)
        u, v = e.u, e.v
        if e.insert:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.edge_count += 1
        else:
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            self.edge_count -= 1

"""Trivial comparison algorithm: rescan a neighborhood on every conflict.

On a monochromatic insertion it recolors the second endpoint by marking
the colors of all neighbors in a palette-sized table and taking the
smallest unmarked one, which always exists because the palette exceeds
the degree cap.  Work is metered as the table size plus the scan length,
the honest cost of this implementation.
"""

from __future__ import annotations

from .colors import BLANK
from .graph import DynamicGraph
from .metrics import Metrics
from .sampleset import SampleSet


class TrivialBaseline:
    def __init__(self, n: int, delta: int, metrics: Metrics | None = None):
        self.graph = DynamicGraph(n, delta)
        self.palette = delta + 1
        self.of = [BLANK] * n
        self.occupants = [SampleSet() for _ in range(self.palette)]
        self.metrics = metrics if metrics is not None else Metrics()
        # everyone starts on the first color: the empty graph allows it,
        # and it is the worst case a conflict-seeking adversary could ask for
        for v in range(n):
            self.of[v] = 0
            self.occupants[0].add(v)

    def color_of(self, v: int) -> int:
        return self.of[v]

    def process(self, upd) -> None:
        self.graph.apply(upd)
        self.metrics.updates += 1
        self.metrics.work += 1
        if upd.insert and self.of[upd.u] == self.of[upd.v]:
            self.trivial_recolor(upd.v)

    def trivial_recolor(self, v: int) -> int:
        used = [False] * self.palette
        adj = self.graph.adj[v]
        for w in adj:
            cw = self.of[w]
            if cw != BLANK:
                used[cw] = True
        self.metrics.work += self.palette + len(adj)
        for c, taken in enumerate(used):
            if not taken:
                old = self.of[v]
                if old != BLANK:
                    self.occupants[old].discard(v)
                self.of[v] = c
                self.occupants[c].add(v)
                self.metrics.sparse_recolorings += 1
                return c
        raise AssertionError("palette exhausted despite degree cap")

    def is_proper(self) -> bool:
        return all(self.of[u] != self.of[v] for u, v in self.graph.edges())

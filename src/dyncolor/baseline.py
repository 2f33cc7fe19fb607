"""Trivial comparison algorithm: rescan a neighborhood on every conflict.

On a monochromatic insertion it recolors the second endpoint by marking
the colors of all neighbors in a palette-sized table and taking the
smallest unmarked one, which always exists because the palette exceeds
the degree cap.  Work is metered as the table size plus the scan length,
the honest cost of this implementation.
"""

from __future__ import annotations

from .colors import BLANK, ColoringAlgorithm, ColorState
from .graph import DynamicGraph
from .metrics import Metrics


class TrivialBaseline(ColoringAlgorithm):
    mode = "baseline"

    def __init__(self, n: int, delta: int):
        self.n = n
        self.delta = delta
        self.graph = DynamicGraph(n, delta)
        self.palette = delta + 1
        self.colors = ColorState(n, self.palette)
        self.metrics = Metrics()
        # everyone starts on the first color: the empty graph allows it,
        # and it is the worst case a conflict-seeking adversary could ask for
        for v in range(n):
            self.colors.set_sparse(v, 0)

    def process(self, upd) -> None:
        self.graph.apply(upd)
        self.metrics.updates += 1
        self.metrics.work += 1
        of = self.colors.of
        if upd.insert and of[upd.u] == of[upd.v]:
            self.trivial_recolor(upd.v)

    def trivial_recolor(self, v: int) -> int:
        used = [False] * self.palette
        adj = self.graph.adj[v]
        of = self.colors.of
        for w in adj:
            cw = of[w]
            if cw != BLANK:
                used[cw] = True
        self.metrics.work += self.palette + len(adj)
        for c, taken in enumerate(used):
            if not taken:
                self.colors.set_sparse(v, c)
                self.metrics.sparse_recolorings += 1
                return c
        raise AssertionError("palette exhausted despite degree cap")

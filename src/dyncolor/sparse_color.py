"""Coloring of the sparse side, kept independent of dense vertices.

A phase starts with a from-scratch pass: half the sparse vertices try a
single random color each (one-shot), the rest are colored greedily in
random order by rejection sampling.  Inside a phase, conflicted sparse
vertices are recolored by the same rejection loop.  Every feasibility
check consults only sparse occupants of L(c) and ignores dense
neighbors; the engine reconciles dense neighbors afterwards.
"""

from __future__ import annotations

from .colors import BLANK
from .draws import palette_drawer, shuffle


class SparseColoring:
    def __init__(self, graph, decomp, colors, params, rng, metrics):
        self.graph = graph
        self.decomp = decomp
        self.colors = colors
        self.params = params
        self.metrics = metrics
        self.palette = graph.delta + 1
        self.cap = params.loop_cap(graph.n)
        self.rng = rng

    @property
    def rng(self):
        return self._rng

    @rng.setter
    def rng(self, rng):
        # the palette drawer is built once per generator, not once per
        # call: in-phase recoloring calls the draw loop for one vertex
        self._rng = rng
        self._draw = palette_drawer(rng, self.palette)

    def feasible(self, v: int, c: int) -> bool:
        """True iff no sparse neighbor of v sits in L(c).

        Walks whichever is shorter, v's adjacency or L(c), probing the
        other's index, and charges the side it walked.
        """
        adj = self.graph.adj[v]
        lst = self.colors.L[c]
        walk = adj.items
        if len(walk) < len(lst.items):
            other = lst._pos
        else:
            walk, other = lst.items, adj._pos
        k = len(walk)
        m = self.metrics
        m.probes += k
        m.work += k + 1
        for w in walk:
            if w in other:
                return False
        return True

    def one_shot_coloring(self, vertices) -> list[int]:
        """Each vertex draws one color; keeps it if no neighbor beat it to L(c).

        Processing order is ascending id; only the winner of a sampled
        conflict gets colored.  Returns the colored subset.
        """
        order = sorted(vertices)
        self._rejection_color(order, one_shot=True)
        of = self.colors.of
        return [v for v in order if of[v] != BLANK]

    def greedy_coloring(self, vertices) -> None:
        """Color every vertex by rejection sampling, in uniform random order."""
        order = sorted(vertices)
        shuffle(self.rng, order)
        self._rejection_color(order)

    def _rejection_color(self, vertices, one_shot: bool = False) -> None:
        """Give each blank vertex in turn the first feasible of its color draws.

        A vertex draws up to `cap` colors (one in the one-shot pass) and
        takes the first that `feasible` accepts; when none is, it takes
        the fallback color, or stays blank in the one-shot pass.  A vertex
        without neighbors takes its first draw without asking `feasible`,
        and is charged the unit `feasible` charges for walking nothing.
        Placement appends v to L(c) as `SampleSet.add` does for an absent
        element, and fires the listeners with (v, BLANK, c), as
        `set_sparse` on a blank v does.
        """
        colors = self.colors
        of, L, listeners = colors.of, colors.L, colors.listeners
        adj = self.graph.adj
        draw, feasible = self._draw, self.feasible
        tries = 1 if one_shot else self.cap
        drawn = isolated = 0
        for v in vertices:
            if of[v] != BLANK:
                raise ValueError(f"vertex {v} is not blank")
            if not adj[v].items:
                c = draw()
                isolated += 1
            else:
                for i in range(tries):
                    c = draw()
                    if feasible(v, c):
                        drawn += i + 1
                        break
                else:
                    drawn += tries
                    if one_shot:
                        continue
                    c = self._fallback(v)
            of[v] = c
            lst = L[c]
            items = lst.items
            lst._pos[v] = len(items)
            items.append(v)
            for fn in listeners:
                fn(v, BLANK, c)
        m = self.metrics
        m.samples += drawn + isolated
        # an isolated vertex: one draw, plus the 1 that feasible charges
        # for walking an empty adjacency
        m.work += drawn + 2 * isolated

    def _fallback(self, v: int) -> int:
        """The lowest color no neighbor of v holds, found by a scan."""
        # a free color exists because the palette exceeds the degree cap
        self.metrics.fallbacks += 1
        adj = self.graph.adj[v].items
        self.metrics.work += self.palette + len(adj)
        return self.colors.lowest_free(adj)

    def color_sparse(self, vertices=None) -> None:
        """Phase-start recoloring of the whole sparse side (all blank)."""
        if vertices is None:
            vertices = self.decomp.sparse_vertices()
        vs = sorted(vertices)
        random = self.rng.random
        picked = [v for v in vs if random() < 0.5]
        self.metrics.samples += len(vs)
        colored = set(self.one_shot_coloring(picked))
        self.greedy_coloring([v for v in vs if v not in colored])

    def recolor_sparse(self, v: int) -> int:
        """Drop v's color and rejection-sample a fresh one."""
        self.colors.clear_sparse(v)
        self.metrics.sparse_recolorings += 1
        self._rejection_color((v,))
        return self.colors.of[v]

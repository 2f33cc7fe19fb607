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


class SparseColoring:
    def __init__(self, graph, decomp, colors, params, rng, metrics):
        self.graph = graph
        self.decomp = decomp
        self.colors = colors
        self.params = params
        self.rng = rng
        self.metrics = metrics
        self.palette = graph.delta + 1
        self.cap = params.loop_cap(graph.n)

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
        randrange, palette = self.rng.randrange, self.palette
        draws = [randrange(palette) for _ in order]
        self.metrics.samples += len(order)
        self.metrics.work += len(order)
        feasible, set_sparse = self.feasible, self.colors.set_sparse
        colored = []
        for v, c in zip(order, draws):
            if feasible(v, c):
                set_sparse(v, c)
                colored.append(v)
        return colored

    def greedy_coloring(self, vertices) -> None:
        """Color every vertex by rejection sampling, in uniform random order."""
        order = sorted(vertices)
        self.rng.shuffle(order)
        self._rejection_color(order)

    def _rejection_color(self, vertices) -> int:
        """Rejection-sample a color for each vertex in turn; returns the last one."""
        randrange, palette, cap = self.rng.randrange, self.palette, self.cap
        feasible, set_sparse = self.feasible, self.colors.set_sparse
        c = BLANK
        drawn = 0
        for v in vertices:
            for i in range(cap):
                c = randrange(palette)
                if feasible(v, c):
                    set_sparse(v, c)
                    drawn += i + 1
                    break
            else:
                drawn += cap
                c = self._fallback(v)
        self.metrics.samples += drawn
        self.metrics.work += drawn
        return c

    def _fallback(self, v: int) -> int:
        # deterministic scan; a free color exists because the palette
        # exceeds the degree cap
        self.metrics.fallbacks += 1
        used = set()
        of = self.colors.of
        for w in self.graph.adj[v]:
            cw = of[w]
            if cw != BLANK:
                used.add(cw)
        self.metrics.work += self.palette + len(self.graph.adj[v])
        for c in range(self.palette):
            if c not in used:
                self.colors.set_sparse(v, c)
                return c
        raise AssertionError("palette exhausted despite degree cap")

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
        return self._rejection_color((v,))

"""Coloring of the sparse side, kept independent of dense vertices.

A phase starts with a from-scratch pass: half the sparse vertices try a
single random color each (one-shot), the rest are colored greedily in
random order by rejection sampling.  Inside a phase, conflicted sparse
vertices are recolored by the same rejection loop.

An isolated vertex ends that pass with a uniform color on which no other
vertex's draw, check or order depends, so the pass gives every isolated
vertex its one uniform draw first, in a loop of its own, and runs the
pick, one-shot and greedy stages on the vertices with neighbors only.
The coloring has the law of a pass that picks every vertex: isolated
colors are iid uniform either way, the others keep iid fair picks, the
ascending one-shot order and a uniform greedy order (a uniform shuffle
restricted to a subset is uniform).  Only which draws are consumed, and
the order within each L(c), differ.

`_rejection_color` is the one place the feasibility rule is written: a
color c is feasible for v iff no neighbor of v sits in L(c).  The check
consults only sparse occupants of L(c) and ignores dense neighbors; the
engine reconciles dense neighbors afterwards.  A neighbor w sits in L(c)
iff `ColorState.home[w]` is that very list, so a dense neighbor, whose
home is an L_D list, never counts.
"""

from __future__ import annotations

from .colors import BLANK
from .draws import shuffle


class SparseColoring:
    def __init__(self, graph, decomp, colors, params, rng, metrics):
        self.graph = graph
        self.decomp = decomp
        self.colors = colors
        self.metrics = metrics
        self.palette = graph.delta + 1
        self.cap = params.loop_cap(graph.n)
        self.rng = rng

    def one_shot_coloring(self, vertices) -> int:
        """Each vertex, in the given order, draws one color and keeps it if
        no neighbor is in L(c) yet; returns how many stayed blank."""
        return self._rejection_color(vertices, one_shot=True)

    def greedy_coloring(self, vertices) -> None:
        """Color every vertex by rejection sampling, in uniform random order.

        `vertices` must ascend, so the shuffle alone fixes the order.
        """
        order = list(vertices)
        shuffle(self.rng, order)
        self._rejection_color(order)

    def _rejection_color(self, vertices, one_shot: bool = False) -> int:
        """Give each blank vertex in turn the first feasible of its color draws.

        A vertex draws up to `cap` colors (one in the one-shot pass), each
        as `palette_drawer` does, and takes the first feasible one; when
        none is, it takes the fallback color, or stays blank in the
        one-shot pass.  Returns how many stayed blank.  A check walks the
        shorter of v's adjacency and L(c): a neighbor is probed by its
        home list, an occupant of L(c) by v's adjacency index.  It is
        charged whole: a probe per element, and a unit per element plus
        one.  A draw costs a sample and a unit.  The pass of `color_sparse`
        and the in-phase recoloring of a monochromatic edge's endpoint
        send it only vertices with neighbors; an isolated vertex sent here
        walks nothing and keeps its first draw, with the charge and color
        `_color_isolated` gives it.
        Placement appends v to L(c) and fires the listeners with
        (v, BLANK, c), as `set_sparse` on a blank v does.
        """
        colors = self.colors
        of, L, listeners = colors.of, colors.L, colors.listeners
        slot, home = colors.slot, colors.home
        adj, degree = self.graph.adj, self.graph.deg
        getrandbits = self.rng.getrandbits
        palette = self.palette
        k = palette.bit_length()
        tries = 1 if one_shot else self.cap
        drawn = probes = missed = 0
        for v in vertices:
            if of[v] != BLANK:
                raise ValueError(f"vertex {v} is not blank")
            deg = degree[v]
            nbrs = adj[v]
            near, near_pos = nbrs.items, nbrs._pos
            for i in range(tries):
                c = getrandbits(k)
                while c >= palette:
                    c = getrandbits(k)
                lst = L[c]
                if deg < len(lst):
                    probes += deg
                    for w in near:
                        if home[w] is lst:
                            break
                    else:
                        drawn += i + 1
                        break
                else:
                    probes += len(lst)
                    for w in lst:
                        if w in near_pos:
                            break
                    else:
                        drawn += i + 1
                        break
            else:
                drawn += tries
                if one_shot:
                    missed += 1
                    continue
                c = self._fallback(v)
            of[v] = c
            lst = L[c]
            slot[v] = len(lst)
            home[v] = lst
            lst.append(v)
            if listeners:
                for fn in listeners:
                    fn(v, BLANK, c)
        m = self.metrics
        m.probes += probes
        m.work += 2 * drawn + probes
        m.samples += drawn
        return missed

    def _fallback(self, v: int) -> int:
        """The lowest color no neighbor of v holds, found by a scan."""
        # a free color exists because the palette exceeds the degree cap
        self.metrics.fallbacks += 1
        adj = self.graph.adj[v].items
        self.metrics.work += self.palette + len(adj)
        return self.colors.lowest_free(adj)

    def _color_isolated(self, vertices) -> None:
        """Give each blank vertex, in order, one uniform color, unchecked.

        The vertices must have no neighbors, so every color is feasible
        and one `randrange(palette)` draw is the whole rejection process;
        it is charged as the rejection loop charges a first draw that
        walks nothing: a sample and two units.  Placement is as in
        `_rejection_color`.
        """
        colors = self.colors
        of, L, listeners = colors.of, colors.L, colors.listeners
        slot, home = colors.slot, colors.home
        getrandbits = self.rng.getrandbits
        palette = self.palette
        k = palette.bit_length()
        for v in vertices:
            if of[v] != BLANK:
                raise ValueError(f"vertex {v} is not blank")
            c = getrandbits(k)
            while c >= palette:
                c = getrandbits(k)
            of[v] = c
            lst = L[c]
            slot[v] = len(lst)
            home[v] = lst
            lst.append(v)
            if listeners:
                for fn in listeners:
                    fn(v, BLANK, c)
        m = self.metrics
        m.work += 2 * len(vertices)
        m.samples += len(vertices)

    def color_sparse(self, vertices=None) -> None:
        """Phase-start recoloring of the sparse side, which must be all blank.

        `vertices` must ascend; by default it is every sparse vertex.  The
        isolated ones (`graph.deg` entry 0) are placed first, ascending, by
        `_color_isolated`: no pick, no shuffle slot, one draw each.  The
        rest go through the pick, the one-shot pass and the greedy pass.
        """
        vs = self.decomp.sparse_vertices() if vertices is None else vertices
        deg = self.graph.deg
        lone = [v for v in vs if not deg[v]]
        if lone:
            self._color_isolated(lone)
            vs = [v for v in vs if deg[v]]
        random = self.rng.random
        picked = [v for v in vs if random() < 0.5]
        self.metrics.samples += len(vs)
        missed = self.one_shot_coloring(picked)
        of = self.colors.of
        rest = [v for v in vs if of[v] == BLANK]
        # a colored picked vertex made the one-shot pass raise; a colored
        # unpicked one is missing from `rest`, so the counts disagree
        if len(vs) - len(rest) != len(picked) - missed:
            raise ValueError("color_sparse needs blank vertices")
        self.greedy_coloring(rest)

    def recolor_sparse(self, v: int) -> int:
        """Drop v's color and rejection-sample a fresh one."""
        self.colors.clear_sparse(v)
        self.metrics.sparse_recolorings += 1
        self._rejection_color((v,))
        return self.colors.of[v]

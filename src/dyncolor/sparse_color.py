"""Coloring of the sparse side, kept independent of dense vertices.

A phase starts with a from-scratch pass over the blank sparse vertices,
ascending, taken from the graph's id list `graph.vertices` so that the
pass creates no int objects of its own (see `color_sparse`).  A vertex
with no neighbor takes one uniform draw, unchecked.  A vertex with
neighbors makes a fair pick: if picked it draws one color and keeps it
when feasible (one-shot), else it is deferred; an unpicked vertex is
deferred.  The deferred vertices, still ascending, are then colored
greedily in uniform random order by rejection sampling.  Inside a phase,
conflicted sparse vertices are recolored by the same rejection loop.

The coloring has the law of a pass that picks every vertex and runs the
one-shot stage before any greedy placement: isolated colors are iid
uniform either way (no other vertex's draw, check or order depends on
them), the picks are iid fair, the one-shot order is ascending and the
greedy order uniform.  Only the order in which the generator is consumed
differs, and with it the order within each L(c).

`_rejection_color` is the one place the feasibility rule is written: a
color c is feasible for v iff no neighbor of v sits in L(c).  The check
consults only sparse occupants of L(c) and ignores dense neighbors; the
engine reconciles dense neighbors afterwards.  A neighbor w sits in L(c)
iff `of[w] == c and clique_of[w] is None`: at phase start every dense
vertex is blank, and inside a phase the side test leaves dense neighbors
out.  A draw whose L(c) is empty is feasible whatever v's neighbors are,
so the check walks v's adjacency only when L(c) is occupied.  v's degree
is the size of its adjacency dict; the graph keeps no other count.

Every pass colors distinct blank vertices.  The draw loop tests none of
them: `color_sparse` and a direct `greedy_coloring` call refuse a colored
vertex at entry, before any draw (`_refuse_colored`, one count of the
color list while every vertex is blank, as at phase start), and
`recolor_sparse` blanks its vertex itself.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_

from .colors import BLANK
from .draws import shuffle
from .errors import InvariantViolation


class SparseColoring:
    def __init__(self, graph, decomp, colors, params, rng, metrics):
        self.graph = graph
        self.decomp = decomp
        self.colors = colors
        self.metrics = metrics
        self.palette = graph.delta + 1
        self.cap = params.loop_cap(graph.n)
        self.rng = rng
        # what `_rejection_color` reads, bound once; the attempt ranges are
        # indexed by its `phase_start`
        self._bound = (
            colors.of, colors.L, colors.listeners, decomp.clique_of,
            graph.adj, self.palette, self.palette.bit_length(),
        )
        self._attempts = (range(self.cap), range(1))

    def greedy_coloring(self, vertices) -> None:
        """Color every vertex by rejection sampling, in uniform random order.

        `vertices` must be distinct and blank, and ascend, so the shuffle
        alone fixes the order.  A colored vertex is refused before any draw
        (`_refuse_colored`).  Each swap of the shuffle costs a unit.
        """
        order = list(vertices)
        self._refuse_colored(order)
        self._greedy(order)

    def _greedy(self, order: list) -> None:
        """`greedy_coloring` of a list of blank vertices, shuffled in place."""
        shuffle(self.rng, order)
        self.metrics.work += max(len(order) - 1, 0)
        self._rejection_color(order)

    def _refuse_colored(self, vertices) -> None:
        """Raise for the first vertex of `vertices` that is not blank.

        While every vertex is blank, which is how a phase starts, one count
        of the color list says so; only when it does not are `vertices`
        scanned.  `_rejection_color` tests no vertex, so each caller that
        takes vertices from outside checks them here, before any draw.
        """
        of = self.colors.of
        if of.count(BLANK) != len(of):
            for v in vertices:
                if of[v] != BLANK:
                    raise InvariantViolation(f"vertex {v} is not blank")

    def _rejection_color(self, vertices, phase_start: bool = False) -> list[int]:
        """Give each vertex in turn the first feasible of its color draws.

        `vertices` is a sequence of distinct blank vertices; the loop does
        not test them (see `_refuse_colored`).  A vertex with no neighbor
        takes one draw, unchecked: every color is feasible for it.  A
        vertex with neighbors draws up to `cap` colors, each as
        `palette_drawer` does, and takes the first feasible one, or the
        fallback color when none is.  In the phase-start pass it first
        makes its fair pick (`random() < 0.5`, a sample and a unit) and, if
        picked, makes one draw; an unpicked vertex, or a picked one whose
        draw is infeasible, stays blank and is returned in the order met.

        A draw costs a sample and a unit.  A check walks the shorter of
        v's adjacency and L(c): a neighbor w is probed by
        `of[w] == c and clique_of[w] is None`, an occupant of L(c) by v's
        adjacency index.  It is charged whole: a probe per element, and a
        unit per element plus one.  A draw on an empty L(c) is feasible
        without walking v's adjacency; it walks nothing and is charged as
        such a walk, as is an unchecked draw.  Placement is
        `of[v] = c; L[c].append(v)` and fires the listeners with
        (v, BLANK, c), as `set_sparse` on a blank v does.

        The in-phase recolor hands over one vertex per call, so the set-up
        is kept to one read: `of`, `L`, `listeners`, `clique_of`, `adj`,
        the palette, its bit length and both attempt ranges are bound in
        `__init__`.  None of them is ever rebound (`blank_all` rewrites
        `of[:]` in place).  `self.rng` is read on every call, so a
        generator swapped in takes effect.  v's adjacency dict is read once
        per vertex: an empty one gets the unchecked draw, else its size is
        v's degree and a check walks it.
        """
        of, L, listeners, clique_of, adj, palette, k = self._bound
        rng = self.rng
        getrandbits = rng.getrandbits
        random = rng.random if phase_start else None
        attempts = self._attempts[phase_start]
        deferred = []
        drawn = probes = linked = 0
        for v in vertices:
            near = adj[v]
            if not near:
                c = getrandbits(k)
                while c >= palette:
                    c = getrandbits(k)
            else:
                linked += 1
                if phase_start and random() >= 0.5:
                    deferred.append(v)
                    continue
                deg = len(near)
                for i in attempts:
                    c = getrandbits(k)
                    while c >= palette:
                        c = getrandbits(k)
                    lst = L[c]
                    if not lst:
                        break
                    if deg < len(lst):
                        probes += deg
                        for w in near:
                            if of[w] == c and clique_of[w] is None:
                                break
                        else:
                            break
                    else:
                        probes += len(lst)
                        for w in lst:
                            if w in near:
                                break
                        else:
                            break
                else:
                    if phase_start:
                        drawn += 1
                        deferred.append(v)
                        continue
                    c = self._fallback(v)
                drawn += i + 1
            of[v] = c
            L[c].append(v)
            if listeners:
                for fn in listeners:
                    fn(v, BLANK, c)
        # one unchecked draw per vertex without neighbors
        drawn += len(vertices) - linked
        picks = linked if phase_start else 0
        m = self.metrics
        m.probes += probes
        m.work += 2 * drawn + probes + picks
        m.samples += drawn + picks
        return deferred

    def _fallback(self, v: int) -> int:
        """The lowest color no neighbor of v holds, found by a scan."""
        # a free color exists because the palette exceeds the degree cap
        self.metrics.fallbacks += 1
        adj = self.graph.adj[v]
        self.metrics.work += self.palette + len(adj)
        return self.colors.lowest_free(adj)

    def color_sparse(self, vertices=None) -> None:
        """Phase-start recoloring of the sparse side, which must be all blank.

        `vertices` is an ascending sequence of distinct vertices; by
        default every sparse vertex, as the graph's own id objects:
        `graph.vertices` itself while no clique exists, else the ids in it
        whose `clique_of` is None.  A colored vertex among them is refused
        before any draw (`_refuse_colored`).  One ascending phase-start
        pass of `_rejection_color` gives each vertex with no neighbor its
        draw and each picked vertex its one-shot draw; the vertices it
        leaves blank, still ascending, go to the greedy stage (`_greedy`)
        unchecked.
        """
        if vertices is None:
            vertices = self.graph.vertices
            if self.decomp.cliques:
                sparse = map(is_, self.decomp.clique_of, repeat(None))
                vertices = list(compress(vertices, sparse))
        self._refuse_colored(vertices)
        self._greedy(self._rejection_color(vertices, phase_start=True))

    def recolor_sparse(self, v: int) -> int:
        """Drop v's color and rejection-sample a fresh one.

        v is blank once dropped, so nothing is checked.
        """
        self.colors.clear_sparse(v)
        self.metrics.sparse_recolorings += 1
        self._rejection_color((v,))
        return self.colors.of[v]

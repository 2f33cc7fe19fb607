"""Shared color assignment plus the per-color occupancy lists.

Sparse vertices live in L(c), dense vertices in L_D(c).  Feasibility
checks iterate an occupancy list and probe adjacency, so their cost
tracks the list length; the sparse check walks v's adjacency instead
when that is the shorter side.

`L_D(c)` starts as the shared read-only `EMPTY_SAMPLESET` and becomes c's
own on its first dense vertex; without an almost-clique no color ever
gets one.  It is never dropped once made, even empty, as a SampleSet's
order depends on its history.  `L` is written for every color by the
phase rebuild and is made up front.

`ColoringAlgorithm` is the read surface every coloring algorithm (the
engine and the rescan baseline) exposes on top of its `ColorState`.
"""

from __future__ import annotations

from .sampleset import EMPTY_SAMPLESET, SampleSet, own

BLANK = -1


class ColorState:
    def __init__(self, n: int, palette: int):
        self.n = n
        self.palette = palette  # delta + 1
        self.of: list[int] = [BLANK] * n
        self.L: list[SampleSet] = [SampleSet() for _ in range(palette)]
        self.L_D: list[SampleSet] = [EMPTY_SAMPLESET] * palette
        self.listeners: list = []  # callables (v, old, new)

    def _fire(self, v: int, old: int, new: int) -> None:
        for fn in self.listeners:
            fn(v, old, new)

    def set_sparse(self, v: int, c: int) -> None:
        old = self.of[v]
        if old != BLANK:
            self.L[old].discard(v)
        self.of[v] = c
        self.L[c].add(v)
        if self.listeners:
            self._fire(v, old, c)

    def clear_sparse(self, v: int) -> int:
        old = self.of[v]
        if old != BLANK:
            self.L[old].discard(v)
            self.of[v] = BLANK
            if self.listeners:
                self._fire(v, old, BLANK)
        return old

    def set_dense(self, v: int, c: int) -> None:
        old = self.of[v]
        if old != BLANK:
            self.L_D[old].discard(v)
        self.of[v] = c
        own(self.L_D, c).add(v)
        if self.listeners:
            self._fire(v, old, c)

    def clear_dense(self, v: int) -> int:
        old = self.of[v]
        if old != BLANK:
            self.L_D[old].discard(v)
            self.of[v] = BLANK
            if self.listeners:
                self._fire(v, old, BLANK)
        return old

    def lowest_free(self, vertices, avoid=()) -> int | None:
        """The lowest color no vertex of `vertices` holds and `avoid` lacks.

        None when every color is taken.  It stops at the first free color;
        callers charge the table-marking rescan it models, palette + degree.
        """
        of = self.of
        used = {of[w] for w in vertices}
        for c in range(self.palette):
            if c not in used and c not in avoid:
                return c
        return None

    def blank_all(self) -> int:
        """Blank every vertex; returns the number of occupancy entries cleared.

        Listeners see one (v, old, BLANK) event per colored vertex, in
        ascending v.
        """
        of = self.of
        if self.listeners:
            for v in range(self.n):
                old = of[v]
                if old != BLANK:
                    of[v] = BLANK
                    self._fire(v, old, BLANK)
        else:
            of[:] = [BLANK] * self.n
        cleared = 0
        for s in self.L + self.L_D:
            if s.items:
                cleared += len(s.items)
                s.clear()
        return cleared


class ColoringView:
    """Read-only coloring access handed to adaptive adversaries."""

    def __init__(self, algorithm):
        self._algorithm = algorithm

    @property
    def palette(self) -> int:
        return self._algorithm.palette

    def color_of(self, v: int) -> int:
        return self._algorithm.color_of(v)

    def occupants(self, c: int) -> tuple[int, ...]:
        return self._algorithm.occupants(c)


class ColoringAlgorithm:
    """Shared surface of a coloring algorithm.

    A subclass sets `n`, `delta`, `palette`, `graph`, `colors` (a
    `ColorState`) and `metrics`, and implements `process(upd)`.
    """

    mode: str  # the snapshot's name for the algorithm

    def color_of(self, v: int) -> int:
        return self.colors.of[v]

    def occupants(self, c: int) -> tuple[int, ...]:
        return tuple(self.colors.L[c]) + tuple(self.colors.L_D[c])

    def coloring_view(self) -> ColoringView:
        return ColoringView(self)

    def is_proper(self) -> bool:
        of = self.colors.of
        return all(of[u] != of[v] for u, v in self.graph.edges())

    def snapshot(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "edges": self.graph.edge_count,
            "metrics": self.metrics.to_dict(),
            "mode": self.mode,
        }

"""Shared color assignment plus the per-color occupancy lists.

Sparse vertices live in L(c), dense vertices in L_D(c).  Feasibility
checks iterate an occupancy list and probe adjacency, so their cost
tracks the list length; the sparse check walks v's adjacency instead
when that is the shorter side.

L(c) and L_D(c) are plain lists, made up front for every color.  The
lists partition the colored vertices, so one index serves them all:
`slot[v]` is v's position in its list and `home[v]` is that list, or
None while v is blank.  A vertex joins at the end of its list and leaves
by moving the list's last vertex into its slot, so a list's order is a
deterministic function of its history.

`ColoringAlgorithm` is the read surface every coloring algorithm (the
engine and the rescan baseline) exposes on top of its `ColorState`.
"""

from __future__ import annotations

BLANK = -1


class ColorState:
    def __init__(self, n: int, palette: int):
        self.n = n
        self.palette = palette  # delta + 1
        self.of: list[int] = [BLANK] * n
        self.L: list[list[int]] = [[] for _ in range(palette)]
        self.L_D: list[list[int]] = [[] for _ in range(palette)]
        self.slot: list[int] = [0] * n  # v's index in home[v]
        self.home: list[list[int] | None] = [None] * n
        self.listeners: list = []  # callables (v, old, new)

    def _fire(self, v: int, old: int, new: int) -> None:
        for fn in self.listeners:
            fn(v, old, new)

    def _unlist(self, v: int) -> None:
        """Take v off the list that holds it, if any."""
        lst = self.home[v]
        if lst is not None:
            self.home[v] = None
            last = lst.pop()
            if last != v:
                i = self.slot[v]
                lst[i] = last
                self.slot[last] = i

    def _set(self, v: int, c: int, lst: list[int]) -> None:
        old = self.of[v]
        self._unlist(v)
        self.of[v] = c
        self.slot[v] = len(lst)
        self.home[v] = lst
        lst.append(v)
        if self.listeners:
            self._fire(v, old, c)

    def set_sparse(self, v: int, c: int) -> None:
        self._set(v, c, self.L[c])

    def set_dense(self, v: int, c: int) -> None:
        self._set(v, c, self.L_D[c])

    def clear_sparse(self, v: int) -> int:
        """Blank v and take it off its list; returns its old color."""
        old = self.of[v]
        if old != BLANK:
            self._unlist(v)
            self.of[v] = BLANK
            if self.listeners:
                self._fire(v, old, BLANK)
        return old

    # either way v leaves the one list that holds it
    clear_dense = clear_sparse

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
        self.home[:] = [None] * self.n
        cleared = 0
        for lst in self.L + self.L_D:
            if lst:
                cleared += len(lst)
                lst.clear()
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

    def occupant_count(self, c: int) -> int:
        return self._algorithm.occupant_count(c)

    def occupant(self, c: int, i: int) -> int:
        return self._algorithm.occupant(c, i)


class ColoringAlgorithm:
    """Shared surface of a coloring algorithm.

    A subclass sets `n`, `delta`, `palette`, `graph`, `colors` (a
    `ColorState`) and `metrics`, and implements `process(upd)`.
    """

    mode: str  # the snapshot's name for the algorithm

    def color_of(self, v: int) -> int:
        return self.colors.of[v]

    def occupant_count(self, c: int) -> int:
        """How many vertices hold color c, sparse and dense."""
        return len(self.colors.L[c]) + len(self.colors.L_D[c])

    def occupant(self, c: int, i: int) -> int:
        """The i-th holder of color c: L(c) in order, then L_D(c)."""
        ls = self.colors.L[c]
        return ls[i] if i < len(ls) else self.colors.L_D[c][i - len(ls)]

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

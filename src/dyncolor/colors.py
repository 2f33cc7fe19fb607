"""Shared color assignment plus the per-color occupancy lists.

Sparse vertices live in L(c), dense vertices in L_D(c).  Feasibility
checks iterate an occupancy list and probe adjacency, so their cost
tracks the list length; the sparse check walks v's adjacency instead
when that is the shorter side.

L(c) and L_D(c) are plain lists, made up front for every color, and no
index points into them.  A vertex joins at the end of its list and
leaves by a scan of that one list for it, after which the list's last
vertex moves into its place, so a list's order is a deterministic
function of its history.  Each mutator acts on one side: `set_sparse` and
`clear_sparse` on L, `set_dense` and `clear_dense` on L_D; a vertex not
found on the side named is an `InvariantViolation`.  The rescan
baseline, whose classes hold Θ(n) vertices, keeps an index of its own.

`ColoringAlgorithm` is the read surface every coloring algorithm (the
engine and the rescan baseline) exposes on top of its `ColorState`.
"""

from __future__ import annotations

from .errors import InvariantViolation, OutOfRange

BLANK = -1


class ColorState:
    def __init__(self, n: int, palette: int):
        self.n = n
        self.palette = palette  # delta + 1
        self.of: list[int] = [BLANK] * n
        self.L: list[list[int]] = [[] for _ in range(palette)]
        self.L_D: list[list[int]] = [[] for _ in range(palette)]
        self.listeners: list = []  # callables (v, old, new)

    def _fire(self, v: int, old: int, new: int) -> None:
        for fn in self.listeners:
            fn(v, old, new)

    def _unlist(self, v: int, side: list[list[int]]) -> int:
        """Take v off its list on `side`, if it is colored; returns its color."""
        c = self.of[v]
        if c != BLANK:
            lst = side[c]
            try:
                i = lst.index(v)
            except ValueError:
                name = "L" if side is self.L else "L_D"
                raise InvariantViolation(
                    f"vertex {v} holds color {c} but is not in {name}({c})"
                ) from None
            last = lst.pop()
            if last != v:
                lst[i] = last
        return c

    def _set(self, v: int, c: int, side: list[list[int]]) -> None:
        old = self._unlist(v, side)
        self.of[v] = c
        side[c].append(v)
        if self.listeners:
            self._fire(v, old, c)

    def set_sparse(self, v: int, c: int) -> None:
        self._set(v, c, self.L)

    def set_dense(self, v: int, c: int) -> None:
        self._set(v, c, self.L_D)

    def _clear(self, v: int, side: list[list[int]]) -> int:
        old = self._unlist(v, side)
        if old != BLANK:
            self.of[v] = BLANK
            if self.listeners:
                self._fire(v, old, BLANK)
        return old

    def clear_sparse(self, v: int) -> int:
        """Blank v and take it off L; returns its old color."""
        return self._clear(v, self.L)

    def clear_dense(self, v: int) -> int:
        """Blank v and take it off L_D; returns its old color."""
        return self._clear(v, self.L_D)

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
        if not 0 <= v < self.n:
            raise OutOfRange(f"vertex {v} is not in range({self.n})")
        return self.colors.of[v]

    def occupant_count(self, c: int) -> int:
        """How many vertices hold color c, sparse and dense."""
        if not 0 <= c < self.palette:
            raise OutOfRange(f"color {c} is not in range({self.palette})")
        return len(self.colors.L[c]) + len(self.colors.L_D[c])

    def occupant(self, c: int, i: int) -> int:
        """The i-th holder of color c: L(c) in order, then L_D(c)."""
        count = self.occupant_count(c)
        if not 0 <= i < count:
            raise OutOfRange(f"occupant {i} of color {c} is not in range({count})")
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

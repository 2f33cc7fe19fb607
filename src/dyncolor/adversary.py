"""Update-stream generators, legal by construction.

Each generating adversary mirrors the graph it has produced so far, so
every update it hands out is valid for the engine's degree cap.  Only the
strategies that delete a uniformly random edge (`_random_delete`) also
keep each vertex's neighbors as a `SampleSet`, whose list they sample.
`Scripted` keeps neither: it hands out a recorded stream as it stands,
and the engine's own `graph.apply` rejects an illegal update before it
changes anything.  Adaptive strategies see only the engine's public
coloring view, never its internals or randomness.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .errors import Exhausted
from .graph import DynamicGraph, EdgeUpdate
from .sampleset import SampleSet

# draws a random edit makes before it gives up
EDIT_TRIES = 50
# vertices adaptive-monochrome tries before it falls back to a deletion
MONOCHROME_TRIES = 24
# clique-churn's churn stage lasts this many updates per target vertex
CHURN_STEPS_PER_VERTEX = 4


class Adversary:
    """Base: hands out one update per `next` call."""

    adaptive = False

    def __init__(self, n: int, delta: int, seed: int = 0):
        self.n = n
        self.delta = delta
        self.rng = random.Random(seed)
        self.monochrome_hits = 0

    def next(self, view=None) -> EdgeUpdate:
        raise NotImplementedError


class _Mirrored(Adversary):
    """Keeps a private mirror of the stream produced so far."""

    def __init__(self, n: int, delta: int, seed: int = 0):
        super().__init__(n, delta, seed)
        self.mirror = DynamicGraph(n, delta)

    def next(self, view=None) -> EdgeUpdate:
        upd = self._propose(view)
        self.mirror.apply(upd)
        return upd

    def _propose(self, view) -> EdgeUpdate:
        raise NotImplementedError


class _RandomEdits(_Mirrored):
    """Also keeps each vertex's neighbors as a `SampleSet`, for `_random_delete`.

    A list grows by appending and shrinks by moving its last entry into
    the hole, so the neighbor a draw picks depends only on the history.
    """

    def __init__(self, n: int, delta: int, seed: int = 0):
        super().__init__(n, delta, seed)
        self.nbrs = [SampleSet() for _ in range(n)]

    def next(self, view=None) -> EdgeUpdate:
        upd = super().next(view)
        u, v = upd.u, upd.v
        if upd.insert:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)
        else:
            self.nbrs[u].discard(v)
            self.nbrs[v].discard(u)
        return upd

    def _random_insert(self) -> EdgeUpdate | None:
        g, rng = self.mirror, self.rng
        for _ in range(EDIT_TRIES):
            u = rng.randrange(self.n)
            v = rng.randrange(self.n)
            if u == v or g.has_edge(u, v):
                continue
            if g.degree(u) < self.delta and g.degree(v) < self.delta:
                return EdgeUpdate(u, v, True)
        return None

    def _random_delete(self) -> EdgeUpdate | None:
        g, rng = self.mirror, self.rng
        if g.edge_count == 0:
            return None
        for _ in range(EDIT_TRIES):
            u = rng.randrange(self.n)
            if g.degree(u):
                v = self.nbrs[u].sample(rng)
                return EdgeUpdate(u, v, False)
        return None


class ObliviousRandom(_RandomEdits):
    def __init__(self, n, delta, seed=0, p_insert=0.7):
        super().__init__(n, delta, seed)
        self.p_insert = p_insert

    def _propose(self, view):
        want_insert = self.rng.random() < self.p_insert
        first = self._random_insert if want_insert else self._random_delete
        second = self._random_delete if want_insert else self._random_insert
        upd = first() or second()
        if upd is None:
            raise Exhausted("no legal update found")
        return upd


class DeletionHeavy(ObliviousRandom):
    def __init__(self, n, delta, seed=0):
        super().__init__(n, delta, seed, p_insert=0.35)


class AdaptiveMonochrome(_RandomEdits):
    """Greedily inserts edges between same-colored, non-adjacent vertices.

    Picks a random vertex, reads the size of its color class from the
    public view and tries to pair it with a random occupant of that class;
    falls back to deleting a random edge when no monochromatic insertion
    is found.
    """

    adaptive = True

    def _propose(self, view):
        if view is not None:
            g, rng = self.mirror, self.rng
            for _ in range(MONOCHROME_TRIES):
                u = rng.randrange(self.n)
                if g.degree(u) >= self.delta:
                    continue
                c = view.color_of(u)
                count = view.occupant_count(c)
                if count < 2:
                    continue
                v = view.occupant(c, rng.randrange(count))
                if v == u or g.has_edge(u, v) or g.degree(v) >= self.delta:
                    continue
                self.monochrome_hits += 1
                return EdgeUpdate(u, v, True)
        # stuck: only deletions are allowed, never an off-color insertion
        upd = self._random_delete()
        if upd is None:
            raise Exhausted("no monochromatic insertion and nothing to delete")
        return upd


class CliqueChurn(_Mirrored):
    """Builds a near-clique on a random target set, churns it, erodes it.

    After assembling the densest legal graph on the target (a clique cap
    permitting, minus a matching when the target exceeds delta + 1), it
    alternates deletions and reinsertions inside the target for a while,
    then erodes a fraction of it and picks a fresh target.  Exercises
    dense moves, non-edge and matching churn, and clique collapse.
    """

    def __init__(self, n, delta, seed=0, target_size=None, erode_frac=0.5):
        super().__init__(n, delta, seed)
        self.target_size = min(target_size or delta + 1, n)
        self.erode_frac = erode_frac
        self._target: list[int] = []
        self._missing: list[tuple[int, int]] = []
        self._built: list[tuple[int, int]] = []
        self._stage = "build"
        self._churn_left = 0
        self._erode_left = 0
        self._pick_target()

    def _pick_target(self):
        self._target = self.rng.sample(range(self.n), self.target_size)
        g = self.mirror
        self._missing = [
            (u, v)
            for i, u in enumerate(self._target)
            for v in self._target[i + 1 :]
            if not g.has_edge(u, v)
        ]
        self.rng.shuffle(self._missing)
        self._built = []
        self._stage = "build"
        self._churn_left = CHURN_STEPS_PER_VERTEX * self.target_size

    def _start_churn(self):
        # the target pairs in lexicographic order and the sorted indices of
        # the non-edges among them; only churn updates touch the target
        # from here on, so each step keeps the gaps in step itself
        t = self._target
        self._pairs = [(u, v) for i, u in enumerate(t) for v in t[i + 1 :]]
        has_edge = self.mirror.has_edge
        self._gaps = [k for k, (u, v) in enumerate(self._pairs) if not has_edge(u, v)]
        self._stage = "churn"

    def _propose(self, view):
        g, rng = self.mirror, self.rng
        while True:
            if self._stage == "build":
                while self._missing:
                    u, v = self._missing.pop()
                    if g.has_edge(u, v):
                        continue
                    if g.degree(u) < self.delta and g.degree(v) < self.delta:
                        self._built.append((u, v))
                        return EdgeUpdate(u, v, True)
                self._start_churn()
            elif self._stage == "churn":
                if self._churn_left <= 0:
                    self._stage = "erode"
                    self.rng.shuffle(self._built)
                    self._erode_left = max(1, int(len(self._built) * self.erode_frac))
                    continue
                self._churn_left -= 1
                # alternate: knock one inside edge out, or patch one back in
                pairs, gaps, deg = self._pairs, self._gaps, g.degree
                holes = [
                    k for k in gaps
                    if deg(pairs[k][0]) < self.delta and deg(pairs[k][1]) < self.delta
                ]
                inside = len(pairs) - len(gaps)
                if holes and (not inside or self._churn_left % 2 == 0):
                    k = holes[rng.randrange(len(holes))]
                    del gaps[bisect_left(gaps, k)]
                    return EdgeUpdate(*pairs[k], True)
                if inside:
                    # the k-th inside pair: step past every gap at or before it
                    k = rng.randrange(inside)
                    for gap in gaps:
                        if gap > k:
                            break
                        k += 1
                    insort(gaps, k)
                    return EdgeUpdate(*pairs[k], False)
            else:
                while self._erode_left > 0 and self._built:
                    u, v = self._built.pop()
                    self._erode_left -= 1
                    if g.has_edge(u, v):
                        return EdgeUpdate(u, v, False)
                self._pick_target()


class Scripted(Adversary):
    """Hands out `updates` in order, unchecked; the consumer rejects an illegal one."""

    def __init__(self, n, delta, seed=0, *, updates):
        super().__init__(n, delta, seed)
        self._queue = iter(updates)

    def next(self, view=None) -> EdgeUpdate:
        upd = next(self._queue, None)
        if upd is None:
            raise Exhausted("script finished")
        return upd


ADVERSARIES = {
    "adaptive-monochrome": AdaptiveMonochrome,
    "oblivious-random": ObliviousRandom,
    "deletion-heavy": DeletionHeavy,
    "clique-churn": CliqueChurn,
    "scripted": Scripted,
}
STRATEGIES = tuple(ADVERSARIES)
# the strategies that make their own stream; `scripted` only hands one on
GENERATORS = tuple(k for k, cls in ADVERSARIES.items() if cls is not Scripted)


def make_adversary(kind: str, n: int, delta: int, seed: int = 0, **kw) -> Adversary:
    """A `kind` adversary; a keyword its constructor does not take raises `TypeError`."""
    if kind not in ADVERSARIES:
        raise ValueError(f"unknown strategy {kind!r}")
    return ADVERSARIES[kind](n, delta, seed, **kw)

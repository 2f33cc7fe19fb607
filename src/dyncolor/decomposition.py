"""Fully dynamic sparse-dense decomposition.

Vertices are partitioned into a sparse set and a dense set, the dense set
into almost-cliques.  Four invariants are maintained at update boundaries:

* Density: a dense vertex's N_3 list, at its current length, puts it in
  V_3; a sparse vertex's N_1 list does not put it in V_1.
* Friendship: a clique member keeps many scale-3 friends inside, counted
  off `tracker.n3` where tested (members that left since the clique's
  creation count too, bounded by sigma).
* Size: every almost-clique has Theta(delta) members.
* Connectedness: scale-3 friend edges span each almost-clique.

Vertices enter the dense side through dense moves (joining a friend's
clique or founding a new one with their scale-1 friends) and leave
through sparse moves; once a clique has lost enough members it is
dissolved wholesale and its still-dense vertices re-enter via fresh
dense moves.  A clique's non-edge count is read off its non-edge lists.

The one neighbor view kept per vertex is `n_c[x]`: per clique holding a
neighbor of x, the number of them, which feeds the clique edge counters
t_c.  Sparse neighbors are read from `graph.adj` and the occupancy
lists, so a sparse-sparse update touches no view.  `n_c[x]` starts as
the shared read-only `EMPTY_MAP` and becomes x's own on the first
`nc_add`; a vertex with no dense neighbor, which is most vertices on most
graphs, never gets one.  Once made it is never dropped, even empty.
A count moves by one only through `nc_add` and `nc_remove`; `dissolve`
drops a clique's entries whole.

`note_edge` writes everything one update does to the views a phase keeps
frozen: both endpoints' `n_c` counts and, for an edge inside one clique,
its two non-edge lists.  The live path, the boundary replay and the
journal's rewind (which passes it the inverse update) all call it.
"""

from __future__ import annotations

from .sampleset import EMPTY_MAP


class AlmostClique:
    """One almost-clique.

    Its non-edge count is read off `nonedges`, and a member's scale-3
    friends inside it off `tracker.n3` where they are tested; neither is
    stored.
    """

    __slots__ = (
        "id", "members", "sigma", "nonedges", "partner", "large_regime", "book",
    )

    def __init__(self, cid: int):
        self.id = cid
        self.members: set[int] = set()
        self.sigma = 0
        self.nonedges: dict[int, set[int]] = {}  # per member: non-neighbor partners in C
        self.partner: dict[int, int] = {}  # non-edge matching, both directions
        self.large_regime = False  # phase-start matching regime
        self.book = None  # per-phase color bookkeeping, owned by dense coloring

    @property
    def nonedge_count(self) -> int:
        return sum(map(len, self.nonedges.values())) // 2

    def matching_size(self) -> int:
        return len(self.partner) // 2

    def matching_pairs(self) -> list[tuple[int, int]]:
        return sorted({(min(u, v), max(u, v)) for u, v in self.partner.items()})


class Decomposition:
    def __init__(self, graph, tracker, params, metrics):
        self.graph = graph
        self.tracker = tracker
        self.params = params
        self.metrics = metrics
        n = graph.n
        self.clique_of: list[int | None] = [None] * n
        self.n_c: list[dict[int, int]] = [EMPTY_MAP] * n
        self.cliques: dict[int, AlmostClique] = {}
        self._next_cid = 0
        delta = graph.delta
        self.friend_floor = (1.0 - params.c3) * delta
        self.collapse_limit = params.collapse_limit(delta)

    # ---- membership ---------------------------------------------------------

    def clique(self, v: int) -> AlmostClique | None:
        cid = self.clique_of[v]
        return None if cid is None else self.cliques[cid]

    # ---- neighbor views ------------------------------------------------------

    def nc_add(self, x: int, cid: int) -> None:
        """One more neighbor of x in clique `cid`."""
        nc = self.n_c[x]
        if nc is EMPTY_MAP:
            nc = self.n_c[x] = {}
        nc[cid] = nc.get(cid, 0) + 1

    def nc_remove(self, x: int, cid: int) -> None:
        """One neighbor fewer; the entry goes when it reaches 0."""
        nc = self.n_c[x]
        t = nc.get(cid)
        if t is not None:
            if t > 1:
                nc[cid] = t - 1
            else:
                nc.pop(cid)

    def note_edge(self, upd) -> None:
        """Write one applied update into `n_c` and, inside a clique, its non-edges."""
        u, v, insert = upd.u, upd.v, upd.insert
        cu, cv = self.clique_of[u], self.clique_of[v]
        count = self.nc_add if insert else self.nc_remove
        if cv is not None:
            count(u, cv)
        if cu is not None:
            count(v, cu)
            if cu == cv:
                nonedges = self.cliques[cu].nonedges
                if insert:
                    nonedges[u].discard(v)
                    nonedges[v].discard(u)
                else:
                    nonedges[u].add(v)
                    nonedges[v].add(u)

    # ---- matching primitives ------------------------------------------------

    def match_add(self, c: AlmostClique, u: int, v: int) -> None:
        c.partner[u] = v
        c.partner[v] = u

    def match_remove(self, c: AlmostClique, u: int, v: int) -> None:
        c.partner.pop(u, None)
        c.partner.pop(v, None)

    # ---- the update driver ----------------------------------------------------

    def update_decomposition(self, upd, matching_hook) -> None:
        """Process one applied update end to end (friend tracking, moves).

        `matching_hook(clique, upd)` keeps the matching of a same-clique
        update, after `note_edge` wrote its non-edge; the engine passes
        `DenseColoring.maintain_matching`.  Only the phase-boundary replay
        calls it, so this is where the partition changes.
        """
        u, v = upd.u, upd.v
        refresh = self.tracker.maintain_friends(upd)
        if self.cliques:  # with no clique, no neighbor view changes
            self.note_edge(upd)
        cu, cv = self.clique_of[u], self.clique_of[v]
        if cu is not None and cu == cv:
            matching_hook(self.cliques[cu], upd)
        tracker, clique_of = self.tracker, self.clique_of
        if upd.insert:
            for w in refresh:
                if self.clique_of[w] is None and tracker.in_v1(w):
                    self.dense_move(w)
        else:
            to_collapse: list[int] = []
            marked: set[int] = set()
            for w in refresh:
                cid = clique_of[w]
                if cid is None:
                    continue
                violates = not tracker.in_v3(w) or (
                    sum(clique_of[x] == cid for x in tracker.n3[w]) <= self.friend_floor
                )
                if not violates:
                    continue
                c = self.cliques[cid]
                c.sigma += 1
                if c.sigma >= self.collapse_limit:
                    if cid not in marked:
                        marked.add(cid)
                        to_collapse.append(cid)
                else:
                    self.sparse_move(w)
            freed: list[int] = []
            for cid in to_collapse:
                freed += self.dissolve(self.cliques[cid])
            for w in sorted(freed):
                if self.clique_of[w] is None and tracker.in_v1(w):
                    self.dense_move(w)

    # ---- moves -----------------------------------------------------------------

    def _new_clique(self) -> AlmostClique:
        c = AlmostClique(self._next_cid)
        self._next_cid += 1
        self.cliques[c.id] = c
        return c

    def dense_move(self, v: int) -> list[int]:
        """Move sparse v (now in V_1) to the dense side with its close friends."""
        n1 = self.tracker.n1[v]
        homes: dict[int, int] = {}
        for u in n1:
            cid = self.clique_of[u]
            if cid is not None:
                homes[cid] = homes.get(cid, 0) + 1
        if homes:
            if len(homes) > 1:
                # close friends on the dense side must share one clique; a
                # sampling mis-estimate can break that at small scales
                self.metrics.estimator_gap_events += 1
            target = max(homes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            c = self.cliques[target]
            movers = [v] + sorted(u for u in n1 if self.clique_of[u] is None)
        else:
            c = self._new_clique()
            movers = [v] + sorted(n1)
        for w in movers:
            self._join(c, w)
        return movers

    def _join(self, c: AlmostClique, w: int) -> None:
        self.clique_of[w] = c.id
        adj_w = self.graph.adj[w]
        nc_add, cid = self.nc_add, c.id
        for z in adj_w:
            nc_add(z, cid)
        ne = {m for m in c.members if m not in adj_w}
        c.members.add(w)
        c.nonedges[w] = ne
        for m in ne:
            c.nonedges[m].add(w)
        self.metrics.nonedge_adjustments += len(ne)
        self.metrics.vertex_moves += 1
        self.metrics.work += len(c.members) + len(adj_w)

    def sparse_move(self, v: int) -> None:
        """Move dense v back to the sparse side, scrubbing its clique state."""
        cid = self.clique_of[v]
        c = self.cliques[cid]
        p = c.partner.pop(v, None)
        if p is not None:
            c.partner.pop(p, None)
        c.members.discard(v)
        self.clique_of[v] = None
        nc_remove = self.nc_remove
        for z in self.graph.adj[v]:
            nc_remove(z, cid)
        mine = c.nonedges.pop(v, set())
        for x in mine:
            c.nonedges[x].discard(v)
        self.metrics.nonedge_adjustments += len(mine)
        self.metrics.vertex_moves += 1
        self.metrics.work += len(mine) + len(self.graph.adj[v])

    def dissolve(self, c: AlmostClique) -> list[int]:
        """Drop a whole clique; every member returns to the sparse side."""
        members = sorted(c.members)
        for w in members:
            self.clique_of[w] = None
            c.partner.pop(w, None)
        for w in members:
            for z in self.graph.adj[w]:
                self.n_c[z].pop(c.id, None)
            self.n_c[w].pop(c.id, None)
        self.metrics.nonedge_adjustments += c.nonedge_count
        self.metrics.vertex_moves += len(members)
        self.cliques.pop(c.id)
        return members

    def snapshot(self) -> dict:
        return {
            "sparse": sum(1 for c in self.clique_of if c is None),
            "dense": sum(1 for c in self.clique_of if c is not None),
            "cliques": [
                {
                    "id": cid,
                    "size": len(c.members),
                    "sigma": c.sigma,
                    "nonedges": c.nonedge_count,
                    "matching": c.matching_size(),
                    "large_regime": c.large_regime,
                }
                for cid, c in sorted(self.cliques.items())
            ],
        }

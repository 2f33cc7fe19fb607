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

The one neighbor view kept per vertex is `n_c[x]`: x's dense neighbors,
grouped by clique, which feeds the clique edge counters t_c.  Sparse
neighbors are read from `graph.adj` and the occupancy lists, so a
sparse-sparse update touches no view.  `n_c[x]` starts as the shared
read-only `EMPTY_MAP` and becomes x's own on the first add (`own`); a
vertex with no dense neighbor, which is most vertices on most graphs,
never gets one.  Once made it is never dropped, even empty.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation
from .sampleset import EMPTY_MAP, own


class Finding(NamedTuple):
    """One invariant miss; `vertex` is None for a clique-level one."""

    invariant: str  # Density, Friendship, Size or Connectedness
    vertex: int | None
    clique: int | None
    text: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.text}"


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
    def __init__(self, graph, tracker, params, metrics, strict: bool = False):
        self.graph = graph
        self.tracker = tracker
        self.params = params
        self.metrics = metrics
        self.strict = strict
        n = graph.n
        self.clique_of: list[int | None] = [None] * n
        self.n_c: list[dict[int, set[int]]] = [EMPTY_MAP] * n
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

    def _nbr_add(self, x: int, w: int) -> None:
        cid = self.clique_of[w]
        if cid is not None:
            own(self.n_c, x).setdefault(cid, set()).add(w)

    def _nbr_remove(self, x: int, w: int) -> None:
        cid = self.clique_of[w]
        if cid is not None:
            s = self.n_c[x].get(cid)
            if s is not None:
                s.discard(w)
                if not s:
                    self.n_c[x].pop(cid)

    def note_edge(self, upd) -> None:
        """Neighbor-view bookkeeping for one applied update (no non-edge work)."""
        u, v = upd.u, upd.v
        if upd.insert:
            self._nbr_add(u, v)
            self._nbr_add(v, u)
        else:
            self._nbr_remove(u, v)
            self._nbr_remove(v, u)

    # ---- non-edge list primitives -------------------------------------------

    def _nonedge_add_raw(self, c: AlmostClique, u: int, v: int) -> None:
        c.nonedges.setdefault(u, set()).add(v)
        c.nonedges.setdefault(v, set()).add(u)

    def _nonedge_remove_raw(self, c: AlmostClique, u: int, v: int) -> None:
        s = c.nonedges.get(u)
        if s is None or v not in s:
            return
        s.discard(v)
        c.nonedges[v].discard(u)

    def nonedge_add(self, c: AlmostClique, u: int, v: int) -> None:
        self._nonedge_add_raw(c, u, v)
        self.metrics.nonedge_adjustments += 1

    def nonedge_remove(self, c: AlmostClique, u: int, v: int) -> None:
        self._nonedge_remove_raw(c, u, v)
        self.metrics.nonedge_adjustments += 1

    def match_add(self, c: AlmostClique, u: int, v: int) -> None:
        c.partner[u] = v
        c.partner[v] = u

    def match_remove(self, c: AlmostClique, u: int, v: int) -> None:
        c.partner.pop(u, None)
        c.partner.pop(v, None)

    # ---- the update driver ----------------------------------------------------

    def update_decomposition(self, upd, matching_hook) -> None:
        """Process one applied update end to end (friend tracking, moves).

        `matching_hook(clique, upd)` owns the non-edge-list and matching
        surgery of a same-clique update; the engine passes
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
                if self.strict:
                    raise InvariantViolation(
                        f"dense friends of {v} span cliques {sorted(homes)}"
                    )
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
        for z in adj_w:
            own(self.n_c, z).setdefault(c.id, set()).add(w)
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
        for z in self.graph.adj[v]:
            s = self.n_c[z].get(cid)
            if s is not None:
                s.discard(v)
                if not s:
                    self.n_c[z].pop(cid)
        mine = c.nonedges.pop(v, set())
        for x in mine:
            c.nonedges[x].discard(v)
        self.metrics.nonedge_adjustments += len(mine)
        self.metrics.vertex_moves += 1
        self.metrics.work += len(mine) + self.graph.deg[v]

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

    # ---- verification ------------------------------------------------------------

    def check_invariants(self, drift: int = 0, common=None) -> list[Finding]:
        """Exact audit of the four invariants via oracle common-neighbor counts.

        `drift` loosens thresholds by the number of in-phase updates the
        current state may be away from the last full maintenance pass.
        `common(u, v)` is the exact counter; by default one is built from
        the graph for this audit.
        """
        g = self.graph
        if common is None:
            common = g.common_neighbor_counter()
        delta = g.delta
        c3 = self.params.c3
        eps, tau = self.params.epsilon, self.params.tau
        out: list[Finding] = []
        friend_thr = (1.0 - c3) * delta - drift
        sparse_thr = (1.0 - (eps - 0.75 * tau)) * delta + drift
        for v in range(g.n):
            cid = self.clique_of[v]
            if cid is not None:
                if sum(1 for u in g.adj[v] if common(u, v) >= friend_thr) < friend_thr:
                    text = f"dense vertex {v} lacks scale-3 friends"
                    out.append(Finding("Density", v, cid, text))
            else:
                cnt = sum(
                    1 for u in g.adj[v]
                    if common(u, v) >= sparse_thr
                )
                # without a single qualifying friend no vertex looks dense,
                # also where the threshold is 0 (delta = 0)
                if cnt and cnt >= sparse_thr:
                    text = f"sparse vertex {v} looks scale-1 dense"
                    out.append(Finding("Density", v, None, text))
        for cid, c in sorted(self.cliques.items()):
            size = len(c.members)
            if not ((1.0 - c3) * delta - drift <= size <= (1.0 + 3.0 * c3) * delta + drift):
                out.append(Finding("Size", None, cid, f"clique {cid} has {size} members"))
            for v in sorted(c.members):
                friends_in = sum(
                    1 for u in g.adj[v]
                    if self.clique_of[u] == cid
                    and common(u, v) >= friend_thr
                )
                if friends_in + c.sigma + drift < (1.0 - c3) * delta:
                    out.append(Finding("Friendship", v, cid, f"vertex {v} in clique {cid}"))
            if size > 1 and not self._spans(c, friend_thr, common):
                text = f"clique {cid} not spanned by friend edges"
                out.append(Finding("Connectedness", None, cid, text))
        return out

    def _spans(self, c: AlmostClique, thr: float, common) -> bool:
        """Whether friend edges at `thr` connect every member of c."""
        adj, clique_of = self.graph.adj, self.clique_of
        start = min(c.members)
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen and clique_of[u] == c.id and common(u, v) >= thr:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(c.members)

    def check_structures(self) -> list[str]:
        """Exact recomputation of every maintained list against the graph."""
        g = self.graph
        out = []
        for v in range(g.n):
            want_nc = {}
            for u in g.adj[v]:
                cid = self.clique_of[u]
                if cid is not None:
                    want_nc.setdefault(cid, set()).add(u)
            if want_nc != self.n_c[v]:
                out.append(f"n_c mismatch at {v}")
            cid = self.clique_of[v]
            if cid is not None and v not in self.cliques[cid].members:
                out.append(f"clique pointer of {v} dangles")
        for cid, c in self.cliques.items():
            for v in c.members:
                if self.clique_of[v] != cid:
                    out.append(f"member {v} of clique {cid} points elsewhere")
            want = {
                v: {u for u in c.members if u != v and not g.has_edge(u, v)}
                for v in c.members
            }
            if want != {v: c.nonedges.get(v, set()) for v in c.members} or any(
                k not in c.members for k in c.nonedges
            ):
                out.append(f"non-edge lists of clique {cid} inexact")
            for u, v in c.partner.items():
                if c.partner.get(v) != u:
                    out.append(f"matching of clique {cid} asymmetric at {u}")
                if g.has_edge(u, v) or u not in c.members or v not in c.members:
                    out.append(f"matched pair ({u},{v}) of clique {cid} invalid")
        return out

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

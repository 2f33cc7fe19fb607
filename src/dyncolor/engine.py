"""Top-level orchestration: phase lifecycle, per-update dispatch, fallbacks.

The decomposition is frozen for a phase of updates while colors are
maintained incrementally.  At the phase boundary the in-phase structural
deltas are rewound from the phase's own updates, which are then replayed
through the full decomposition maintainer, matchings are normalized, and
every vertex is recolored from scratch.

The engine's master guarantee is unconditional properness after every
processed update: every randomized recoloring loop is capped, a capped
loop falls back to a deterministic full-neighborhood rescan with
bookkeeping repair, and a final anchor check on the updated edge repairs
the one remaining way a conflict could slip through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .colors import BLANK, ColoringAlgorithm, ColorState
from .decomposition import Decomposition
from .dense_color import DenseColoring
from .errors import EmptyPalette, IterationCapExceeded
from .friends import FriendTracker
from .graph import DynamicGraph, EdgeUpdate
from .journal import PhaseJournal
from .metrics import Metrics
from .params import ParamSet
from .sparse_color import SparseColoring


@dataclass
class EngineConfig:
    params: ParamSet = field(default_factory=ParamSet)
    strict: bool = False  # raise on decomposition anomalies instead of logging


class Engine(ColoringAlgorithm):
    mode = "full"

    def __init__(self, n: int, delta: int, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.params = params = self.config.params
        self.n = n
        self.delta = delta
        self.palette = delta + 1
        self.metrics = Metrics()
        self.rng = random.Random(params.seed)
        self.graph = DynamicGraph(n, delta)
        self.tracker = FriendTracker(self.graph, params, self.rng, self.metrics)
        self.decomp = Decomposition(
            self.graph, self.tracker, params, self.metrics, strict=self.config.strict
        )
        self.colors = ColorState(n, self.palette)
        self.sparse = SparseColoring(
            self.graph, self.decomp, self.colors, params, self.rng, self.metrics
        )
        self.dense = DenseColoring(
            self.graph, self.decomp, self.colors, params, self.rng, self.metrics
        )
        self.journal = PhaseJournal()
        self.phase_len = params.phase_len(delta)
        self.phase_index = 0
        self.updates_in_phase = 0
        self.phase_updates: list[EdgeUpdate] = []
        # the empty graph is colored before the first update arrives
        self.sparse.color_sparse(range(n))

    # ---- public API -------------------------------------------------------------

    def process(self, upd: EdgeUpdate) -> None:
        self.graph.apply(upd)
        self.metrics.updates += 1
        self.metrics.work += 1
        self._handle_update(upd)
        if upd.insert and self.colors.of[upd.u] == self.colors.of[upd.v]:
            # should be unreachable; the unconditional-properness anchor
            self.metrics.anchor_repairs += 1
            self.trivial_recolor(upd.v)
        self.phase_updates.append(upd)
        self.updates_in_phase += 1
        if self.updates_in_phase >= self.phase_len:
            self.initialization()

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["phase_index"] = self.phase_index
        snap["updates_in_phase"] = self.updates_in_phase
        snap["decomposition"] = self.decomp.snapshot()
        snap["cliques"] = self.dense.clique_rows()
        return snap

    # ---- per-update dispatch -------------------------------------------------------

    def _handle_update(self, upd: EdgeUpdate) -> None:
        u, v = upd.u, upd.v
        dec = self.decomp
        cu, cv = dec.clique_of[u], dec.clique_of[v]
        colors = self.colors
        if cu is not None or cv is not None:
            dec.note_edge(upd)  # a sparse-sparse update changes no neighbor view
        if cu is None and cv is None:
            # sparse-sparse: only a monochromatic insertion needs color work
            if upd.insert and colors.of[u] == colors.of[v]:
                old = colors.of[v]
                new = self.sparse.recolor_sparse(v)
                self.dense.update_edge_counts(v, old, new)
                self._evict_dense_conflicts(v, new)
        elif cu is None or cv is None:
            s, d = (u, v) if cu is None else (v, u)
            clique = dec.cliques[cv if cu is None else cu]
            self.dense.tc_shift(clique, colors.of[s], 1 if upd.insert else -1)
            if upd.insert and colors.of[s] == colors.of[d]:
                self._recolor_dense_conflict(d)
        elif cu == cv:
            clique = dec.cliques[cu]
            pre_matched = clique.partner.get(u) == v
            left, entered, pairs = self.dense.update_non_edges(clique, upd)
            self._process_matching_delta(clique, upd, pre_matched, left, entered, pairs)
        else:
            if upd.insert and colors.of[u] == colors.of[v]:
                self._recolor_dense_conflict(v)

    def _evict_dense_conflicts(self, v: int, c: int) -> None:
        """Recolor dense neighbors of v that hold v's fresh color c."""
        ld = self.colors.L_D[c]
        if not ld:
            return
        pos = self.graph.adj[v]._pos
        self.metrics.probes += len(ld)
        self.metrics.work += len(ld)
        hits = [w for w in ld if w in pos]
        for w in hits:
            if self.colors.of[w] == c and self.decomp.clique_of[w] is not None:
                self._recolor_dense_conflict(w)

    def _recolor_dense_conflict(self, d: int) -> None:
        """Dense vertex d conflicts with a neighbor; reroute its color."""
        clique = self.decomp.clique(d)
        p = clique.partner.get(d)
        if p is not None:
            newc = self._rne_safe(clique, d, p)
            if newc is not None:
                self._evict_private_owner(clique, newc)
        else:
            self.dense.release_private(clique, d)
            self._match_safe(d)

    def _evict_private_owner(self, clique, c: int) -> None:
        y = clique.book.mp.get(c)
        if y is not None:
            self.dense.release_private(clique, y)
            self._match_safe(y)

    def _process_matching_delta(self, clique, upd, pre_matched, left, entered, pairs):
        book = clique.book
        colors = self.colors
        if upd.insert and pre_matched:
            # the inserted edge destroyed a matched pair; drop its shared color
            shared = colors.of[upd.u]
            if shared != BLANK:
                book.an.pop(shared, None)
            for w in (upd.u, upd.v):
                self.dense.release_private(clique, w)
                book.big_l.add(w)
        for w in entered:
            if w in book.big_l:
                self.dense.release_private(clique, w)
                book.big_l.discard(w)
        for w, x in pairs:
            newc = self._rne_safe(clique, w, x)
            if newc is not None:
                self._evict_private_owner(clique, newc)
        for w in left:
            if colors.of[w] == BLANK:
                self._match_safe(w)

    # ---- fallback safety net ----------------------------------------------------------

    def _match_safe(self, v: int) -> None:
        try:
            self.dense.match(v)
        except (IterationCapExceeded, EmptyPalette):
            self.metrics.fallbacks += 1
            self.trivial_recolor(v)

    def _rne_safe(self, clique, u: int, v: int) -> int | None:
        """recolor_non_edge with fallback; None means the pair was dissolved."""
        try:
            return self.dense.recolor_non_edge(clique, u, v)
        except IterationCapExceeded:
            self.metrics.fallbacks += 1
            return self._pair_fallback(clique, u, v)

    def _pair_fallback(self, clique, u: int, v: int) -> int | None:
        # endpoints are blank here; scan the palette deterministically
        book = clique.book
        self.metrics.work += self.palette
        for c in range(self.palette):
            if c in book.an:
                continue
            if self.dense._pair_external_feasible(clique, u, v, c):
                book.an[c] = (u, v)
                self.dense._set_member(clique, u, c)
                self.dense._set_member(clique, v, c)
                return c
        # no shared color exists; dissolve the pair and color the endpoints alone
        self.decomp.match_remove(clique, u, v)
        book.big_l.add(u)
        book.big_l.add(v)
        for w in (u, v):
            self.trivial_recolor(w)
        return None

    def trivial_recolor(self, v: int) -> int:
        """Full-neighborhood rescan recoloring, repairing all bookkeeping.

        The invoked-as-baseline semantics: take the smallest color no
        neighbor holds (exists by pigeonhole).  A dense v prefers a color
        no member holds; when every free color is held, a member holding
        the pick privately is not v's neighbor, and the two become a
        matched pair sharing it.
        """
        colors = self.colors
        adj = self.graph.adj[v].items
        self.metrics.work += self.palette + len(adj)
        cid = self.decomp.clique_of[v]
        if cid is None:
            old = colors.of[v]
            pick = colors.lowest_free(adj)
            colors.clear_sparse(v)
            colors.set_sparse(v, pick)
            self.dense.update_edge_counts(v, old, pick)
            return pick
        clique = self.decomp.cliques[cid]
        book = clique.book
        p = clique.partner.get(v)
        if p is not None:
            # break the pair; the partner keeps its color as a private one
            old = colors.of[v]
            if old != BLANK:
                book.an.pop(old, None)
            self.decomp.match_remove(clique, v, p)
            book.big_l.add(v)
            book.big_l.add(p)
            cp = colors.of[p]
            if cp != BLANK:
                if cp not in book.mp:
                    book.mp[cp] = p
                else:
                    self.metrics.fallback_degraded += 1
        self.dense.release_private(clique, v)
        pick = colors.lowest_free(adj, book.usage)
        y = None
        if pick is None:
            self.metrics.fallback_degraded += 1
            pick = colors.lowest_free(adj)
            y = book.mp.get(pick)
        self.dense._set_member(clique, v, pick)
        if y is not None:
            # the pick is free around v, so y is a non-neighbor: pair them on it
            self.decomp.match_add(clique, v, y)
            book.mp.pop(pick)
            book.an[pick] = (v, y)
            book.big_l.discard(v)
            book.big_l.discard(y)
        elif pick not in book.mp:
            book.mp[pick] = v
        else:
            self.metrics.fallback_degraded += 1
        return pick

    # ---- phase boundary ------------------------------------------------------------------

    def initialization(self) -> None:
        """End-of-phase rebuild: rewind, replay, rematch, recolor from scratch."""
        self.metrics.phase_inits += 1
        work0 = self.metrics.work
        # rewind the graph, the neighbor views, the non-edge lists and the
        # matchings to phase start, so the replay sees the historically
        # correct adjacency at every step
        for upd in reversed(self.phase_updates):
            self.graph.apply(upd.inverse())
        self.journal.revert(self.decomp, self.phase_updates)
        self.metrics.work += 2 * len(self.phase_updates)
        # colors stay as they are until rebuild_colors blanks them: the
        # replay below never reads them
        for clique in self.decomp.cliques.values():
            clique.book = None
        for upd in self.phase_updates:
            self.graph.apply(upd)
            self.decomp.update_decomposition(upd, self.dense.maintain_matching)
        self.rebuild_colors()
        self.phase_updates.clear()
        self.updates_in_phase = 0
        self.phase_index += 1
        self.metrics.init_work.append(self.metrics.work - work0)

    def rebuild_colors(self) -> None:
        """Recolor everything from scratch on the current decomposition."""
        self.metrics.work += self.colors.blank_all()
        self.dense.init_nonedge_matchings()
        for cid in sorted(self.decomp.cliques):
            self.dense.build_book(self.decomp.cliques[cid])
        self.sparse.color_sparse()
        self.dense.rebuild_edge_counts()
        for cid in sorted(self.decomp.cliques):
            clique = self.decomp.cliques[cid]
            for u, v in clique.matching_pairs():
                self._rne_safe(clique, u, v)
        for cid in sorted(self.decomp.cliques):
            clique = self.decomp.cliques[cid]
            for v in sorted(clique.book.big_l):
                if self.colors.of[v] == BLANK:
                    self._match_safe(v)
        # a phase starts here: the next rewind restores these matchings
        self.journal.start(self.decomp)

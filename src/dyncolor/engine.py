"""Top-level orchestration: phase lifecycle and per-update dispatch.

The decomposition is frozen for a phase of updates while colors are
maintained incrementally.  At the phase boundary the in-phase structural
deltas are rewound from the phase's own updates, which are then replayed
through the full decomposition maintainer, matchings are normalized, and
every vertex is recolored from scratch.

The engine dispatches each update by where its endpoints sit and keeps
the sparse side's rescan; everything that reads or writes a clique's
color book or matching belongs to `DenseColoring`, whose pair and member
paths each carry their own fallback.

The engine's master guarantee is unconditional properness after every
processed update: every randomized recoloring loop is capped, a capped
loop falls back to a deterministic full-neighborhood rescan with
bookkeeping repair, and a final anchor check on the updated edge repairs
the one remaining way a conflict could slip through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .colors import ColoringAlgorithm, ColorState
from .decomposition import Decomposition
from .dense_color import DenseColoring
from .friends import FriendTracker
from .graph import DynamicGraph, EdgeUpdate
from .journal import PhaseJournal
from .metrics import Metrics
from .params import ParamSet
from .sparse_color import SparseColoring

# the friend tracker draws from a generator of its own, seeded with
# params.seed plus this offset: a change to the coloring's draws leaves the
# tracker's stream as it was, and a trace header's seed still fixes both
TRACKER_SEED_OFFSET = 1 << 32


@dataclass
class EngineConfig:
    params: ParamSet = field(default_factory=ParamSet)


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
        tracker_rng = random.Random(params.seed + TRACKER_SEED_OFFSET)
        self.tracker = FriendTracker(self.graph, params, tracker_rng, self.metrics)
        self.decomp = Decomposition(self.graph, self.tracker, params, self.metrics)
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
        self.sparse.color_sparse()

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
                if dec.cliques:
                    # without a clique every n_c[x] and L_D(c) is empty, so
                    # these hooks would do nothing and charge nothing
                    self.dense.update_edge_counts(v, old, new)
                    self.dense.evict_conflicts(v, new)
        elif cu is None or cv is None:
            s, d = (u, v) if cu is None else (v, u)
            clique = dec.cliques[cv if cu is None else cu]
            self.dense.tc_shift(clique, colors.of[s], 1 if upd.insert else -1)
            if upd.insert and colors.of[s] == colors.of[d]:
                self.dense.resolve_conflict(d)
        elif cu == cv:
            self.dense.same_clique_update(dec.cliques[cu], upd)
        elif upd.insert and colors.of[u] == colors.of[v]:
            self.dense.resolve_conflict(v)

    def trivial_recolor(self, v: int) -> int:
        """Full-neighborhood rescan: the smallest color no neighbor holds.

        The invoked-as-baseline semantics (a free color exists by
        pigeonhole); a dense v goes to `DenseColoring.rescan`.
        """
        if self.decomp.clique_of[v] is not None:
            return self.dense.rescan(v)
        colors = self.colors
        adj = self.graph.adj[v]
        self.metrics.work += self.palette + len(adj)
        old = colors.of[v]
        pick = colors.lowest_free(adj)
        colors.clear_sparse(v)
        colors.set_sparse(v, pick)
        self.dense.update_edge_counts(v, old, pick)
        return pick

    # ---- phase boundary ------------------------------------------------------------------

    def initialization(self) -> None:
        """End-of-phase rebuild: rewind, replay, rematch, recolor from scratch."""
        self.metrics.phase_inits += 1
        work0 = self.metrics.work
        # rewind the graph, the neighbor views, the non-edge lists and the
        # matchings to phase start, so the replay sees the historically
        # correct adjacency at every step.  `process` applied each of these
        # updates, so undoing them newest first and redoing them in order
        # is legal at every step and needs no check
        toggle = self.graph.toggle
        for upd in reversed(self.phase_updates):
            toggle(upd.u, upd.v, not upd.insert)
        self.journal.revert(self.decomp, self.phase_updates)
        self.metrics.work += 2 * len(self.phase_updates)
        # colors and color books stay as they are until rebuild_colors
        # replaces them: the replay below never reads them
        for upd in self.phase_updates:
            toggle(upd.u, upd.v, upd.insert)
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
        self.dense.color_cliques()
        # a phase starts here: the next rewind restores these matchings
        self.journal.start(self.decomp)

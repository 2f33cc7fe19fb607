"""Outside-in layer trace: spans around the public methods of each layer.

The tracer replaces each listed method on its class with a wrapper that
records a span (name, parent, start, end) and the deltas of a few
`engine.metrics` counters across the call.  Wrapping is per class, not
per instance, because slotted classes (`PhaseJournal`, `SampleSet`) take
no instance attributes; `SampleSet` is left alone because its methods run
millions of times per round.  Spans are kept in flat arrays and written
out when the round ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from operator import attrgetter, sub

from dyncolor.colors import ColorState
from dyncolor.decomposition import Decomposition
from dyncolor.dense_color import DenseColoring
from dyncolor.engine import Engine
from dyncolor.friends import FriendTracker
from dyncolor.graph import DynamicGraph
from dyncolor.journal import PhaseJournal
from dyncolor.sparse_color import SparseColoring

ns = time.perf_counter_ns

# span name -> (class, public method)
LAYERS = {
    "engine.process": (Engine, "process"),
    "engine.initialization": (Engine, "initialization"),
    "engine.rebuild_colors": (Engine, "rebuild_colors"),
    "engine.trivial_recolor": (Engine, "trivial_recolor"),
    "graph.apply": (DynamicGraph, "apply"),
    "journal.revert": (PhaseJournal, "revert"),
    "colors.blank_all": (ColorState, "blank_all"),
    "friends.maintain": (FriendTracker, "maintain_friends"),
    "friends.update_vertex": (FriendTracker, "update_vertex"),
    "decomposition.update": (Decomposition, "update_decomposition"),
    "decomposition.note_edge": (Decomposition, "note_edge"),
    "decomposition.dense_move": (Decomposition, "dense_move"),
    "decomposition.sparse_move": (Decomposition, "sparse_move"),
    "decomposition.dissolve": (Decomposition, "dissolve"),
    "sparse.color_sparse": (SparseColoring, "color_sparse"),
    "sparse.recolor": (SparseColoring, "recolor_sparse"),
    "dense.match": (DenseColoring, "match"),
    "dense.match.random": (DenseColoring, "random_match"),
    "dense.match.large": (DenseColoring, "match_large"),
    "dense.match.small": (DenseColoring, "match_small"),
    "dense.recolor_non_edge": (DenseColoring, "recolor_non_edge"),
    "dense.build_book": (DenseColoring, "build_book"),
    "dense.init_nonedge_matchings": (DenseColoring, "init_nonedge_matchings"),
    "dense.maintain_matching": (DenseColoring, "maintain_matching"),
    "dense.update_non_edges": (DenseColoring, "update_non_edges"),
    "dense.update_edge_counts": (DenseColoring, "update_edge_counts"),
    "dense.rebuild_edge_counts": (DenseColoring, "rebuild_edge_counts"),
    "dense.tc_shift": (DenseColoring, "tc_shift"),
}

COUNTERS = (
    "work", "samples", "tracker_updates", "vertex_moves", "fallbacks",
    "estimator_gap_events",
)
K = len(COUNTERS)
_C = {name: i for i, name in enumerate(COUNTERS)}

# the per-layer metrics the trace reports, each with its unit
PER_LAYER = {
    "sparse.color_sparse.self_ms": "ms",
    "friends.maintain.self_ms": "ms",
    "friends.refreshes": "count",
    "friends.samples": "count",
    "graph.apply.self_ms": "ms",
    "graph.apply.calls": "count",
    "sparse.recolor.calls": "count",
    "sparse.recolor.self_ms": "ms",
    "sparse.recolor.draws_per_call": "draws",
    "sparse.fallbacks": "count",
    "dense.self_ms": "ms",
    "dense.match.calls.random": "count",
    "dense.match.calls.large": "count",
    "dense.match.calls.small": "count",
    "dense.recolor_non_edge.calls": "count",
    "dense.build_book.calls": "count",
    "dense.rebuild_edge_counts.self_ms": "ms",
    "decomposition.update.self_ms": "ms",
    "decomposition.moves": "count",
    "decomposition.collapses": "count",
    "decomposition.gap_events": "count",
    "decomposition.cliques_max": "count",
    "colors.blank_all.self_ms": "ms",
    "journal.revert.self_ms": "ms",
    "engine.initialization.self_ms": "ms",
    "engine.process.self_ms": "ms",
    "engine.work_per_update": "work",
    "engine.init_work_mean": "work",
    "engine.fallbacks": "count",
    "engine.fallback_degraded": "count",
    "engine.anchor_repairs": "count",
    "adversary.us_per_update": "us",
    "baseline.update_us_mean": "ref-us",
    "baseline.work_per_update": "work",
    "verify.s": "s",
    "harness.calib_ms": "ms",
    "harness.calib_mb": "MB",
    "harness.raw_update_us_mean": "us",
    "harness.tracing_overhead": "share",
}


class Tracer:
    """Records spans while attached to an engine; install() wraps the classes."""

    def __init__(self):
        self.names = list(LAYERS)
        self.name_ix = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counters = array("q")  # K deltas per span
        self.cliques_max = 0
        self._stack: list[int] = []
        self._metrics = None
        self._saved: list[tuple[type, str, object]] = []

    # ---- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        for ix, (name, (cls, meth)) in enumerate(LAYERS.items()):
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(ix, fn, count_cliques=name == "decomposition.update"))

    def uninstall(self) -> None:
        for cls, meth, fn in reversed(self._saved):
            setattr(cls, meth, fn)
        self._saved.clear()

    def attach(self, engine) -> None:
        self._metrics = engine.metrics

    def detach(self) -> None:
        self._metrics = None

    def _wrap(self, ix: int, fn, count_cliques: bool):
        rec = self
        snap = attrgetter(*COUNTERS)
        zeros = array("q", bytes(8 * K))

        @functools.wraps(fn)
        def span(*args, **kw):
            metrics = rec._metrics
            if metrics is None:
                return fn(*args, **kw)
            stack = rec._stack
            i = len(rec.start)
            rec.name_ix.append(ix)
            rec.parent.append(stack[-1] if stack else -1)
            rec.counters.extend(zeros)
            stack.append(i)
            c0 = snap(metrics)
            rec.end.append(0)
            rec.start.append(ns())
            try:
                return fn(*args, **kw)
            finally:
                rec.end[i] = ns()
                stack.pop()
                rec.counters[i * K:(i + 1) * K] = array("q", map(sub, snap(metrics), c0))
                if count_cliques:  # cliques change only inside this call
                    rec.cliques_max = max(rec.cliques_max, len(args[0].cliques))

        return span

    # ---- aggregation ------------------------------------------------------------

    def totals(self):
        """Per span name: calls, self ns and summed counter deltas."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        deltas = {name: [0] * K for name in self.names}
        for i in range(count):
            name = self.names[self.name_ix[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
            acc = deltas[name]
            for k in range(K):
                acc[k] += self.counters[i * K + k]
        return calls, self_ns, deltas

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,parent,name,start_ns,end_ns," + ",".join(COUNTERS) + "\n")
            for i in range(len(self.start)):
                c = self.counters[i * K:(i + 1) * K]
                out.write(
                    f"{i},{self.parent[i]},{self.names[self.name_ix[i]]},"
                    f"{self.start[i]},{self.end[i]}," + ",".join(map(str, c)) + "\n"
                )


def layer_metrics(tracer: Tracer, factor: float) -> tuple[dict, list[tuple]]:
    """Per-layer metrics from the trace, self times scaled to ref by `factor`.

    Returns the metric dict and one table row (name, calls, self ref-ms)
    per span name.
    """
    calls, self_ns, deltas = tracer.totals()

    def ms(name):
        return self_ns[name] * factor / 1e6

    def delta(name, counter):
        return deltas[name][_C[counter]]

    recolor_calls = calls["sparse.recolor"]
    out = {
        "sparse.color_sparse.self_ms": ms("sparse.color_sparse"),
        # maintain_friends with the vertex refreshes it fires
        "friends.maintain.self_ms": ms("friends.maintain") + ms("friends.update_vertex"),
        "friends.refreshes": delta("friends.maintain", "tracker_updates"),
        "friends.samples": delta("friends.maintain", "samples"),
        "graph.apply.self_ms": ms("graph.apply"),
        "graph.apply.calls": calls["graph.apply"],
        "sparse.recolor.calls": recolor_calls,
        "sparse.recolor.self_ms": ms("sparse.recolor"),
        "sparse.recolor.draws_per_call": (
            delta("sparse.recolor", "samples") / recolor_calls if recolor_calls else 0.0
        ),
        "sparse.fallbacks": (
            delta("sparse.recolor", "fallbacks") + delta("sparse.color_sparse", "fallbacks")
        ),
        "dense.self_ms": sum(ms(n) for n in tracer.names if n.startswith("dense.")),
        "dense.match.calls.random": calls["dense.match.random"],
        "dense.match.calls.large": calls["dense.match.large"],
        "dense.match.calls.small": calls["dense.match.small"],
        "dense.recolor_non_edge.calls": calls["dense.recolor_non_edge"],
        "dense.build_book.calls": calls["dense.build_book"],
        "dense.rebuild_edge_counts.self_ms": ms("dense.rebuild_edge_counts"),
        # update_decomposition with the moves it makes
        "decomposition.update.self_ms": sum(
            ms(n) for n in ("decomposition.update", "decomposition.dense_move",
                            "decomposition.sparse_move", "decomposition.dissolve")
        ),
        "decomposition.moves": delta("decomposition.update", "vertex_moves"),
        "decomposition.collapses": calls["decomposition.dissolve"],
        "decomposition.gap_events": delta("decomposition.update", "estimator_gap_events"),
        "decomposition.cliques_max": tracer.cliques_max,
        "colors.blank_all.self_ms": ms("colors.blank_all"),
        "journal.revert.self_ms": ms("journal.revert"),
        "engine.initialization.self_ms": ms("engine.initialization"),
        "engine.process.self_ms": ms("engine.process"),
    }
    rows = [(n, calls[n], ms(n)) for n in tracer.names]
    return out, rows

"""Monotone work and event counters, incremented at every probe/sample site."""

from __future__ import annotations


class Metrics:
    __slots__ = (
        "updates", "work", "probes", "samples",
        "sparse_recolorings", "dense_recolorings",
        "fallbacks", "fallback_degraded", "anchor_repairs",
        "estimator_gap_events", "nonedge_adjustments",
        "vertex_moves", "tracker_updates", "phase_inits",
        "random_match_calls", "match_large_calls", "match_small_calls",
        "init_work",
    )

    def __init__(self):
        self.updates = 0
        self.work = 0
        self.probes = 0
        self.samples = 0
        self.sparse_recolorings = 0
        self.dense_recolorings = 0
        self.fallbacks = 0
        self.fallback_degraded = 0
        self.anchor_repairs = 0
        self.estimator_gap_events = 0
        self.nonedge_adjustments = 0
        self.vertex_moves = 0
        self.tracker_updates = 0
        self.phase_inits = 0
        self.random_match_calls = 0
        self.match_large_calls = 0
        self.match_small_calls = 0
        self.init_work: list[int] = []

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in SCALARS}
        d["init_work"] = list(self.init_work)
        return d


SCALARS = tuple(name for name in Metrics.__slots__ if name != "init_work")

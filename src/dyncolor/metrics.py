"""Monotone work and event counters, incremented at every probe/sample site.

`samples` and the k units of `work` charged per friend estimate are the
paper's cost-model charge for an estimate from k sampled neighbors, kept on
purpose: the tracker draws no sample, but takes the common-neighbor count
and draws the estimate's verdicts from its law (`FriendTracker._counts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(slots=True)
class Metrics:
    updates: int = 0
    work: int = 0
    probes: int = 0
    samples: int = 0
    sparse_recolorings: int = 0
    dense_recolorings: int = 0
    fallbacks: int = 0
    fallback_degraded: int = 0
    anchor_repairs: int = 0
    estimator_gap_events: int = 0
    nonedge_adjustments: int = 0
    vertex_moves: int = 0
    tracker_updates: int = 0
    phase_inits: int = 0
    random_match_calls: int = 0
    match_large_calls: int = 0
    match_small_calls: int = 0
    init_work: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in SCALARS}
        d["init_work"] = list(self.init_work)
        return d


SCALARS = tuple(f.name for f in fields(Metrics) if f.name != "init_work")

"""Drive an engine from an adversary stream; record and replay traces."""

from __future__ import annotations

import time
from dataclasses import replace
from operator import attrgetter

from .adversary import make_adversary
from .baseline import TrivialBaseline
from .engine import Engine, EngineConfig
from .errors import Exhausted
from .metrics import SCALARS
from .params import ParamSet, auto_epsilon, trivial_cutoff
from .trace import TraceFile
from .verify import ProperWatch, verify

MODES = ("full", "auto", "baseline")


_HEADER_FIELDS = (
    ("epsilon", float),
    ("tau", float),
    ("nu", float),
    ("phase_len_t", int),
    ("sample_count_k", int),
    ("confidence_c", float),
    ("cap_factor", int),
    ("fire_threshold", float),
    ("dispatch_frac", float),
    ("heavy_frac", float),
    ("regime_frac", float),
    ("seed", int),
)


def params_to_header(params: ParamSet) -> dict[str, str]:
    out = {"profile": params.profile}
    for name, _ in _HEADER_FIELDS:
        val = getattr(params, name)
        out[name] = "none" if val is None else repr(val)
    return out


def params_from_header(hdr: dict[str, str]) -> ParamSet:
    kw = {"profile": hdr.get("profile", "desk")}
    for name, cast in _HEADER_FIELDS:
        raw = hdr.get(name)
        if raw is not None and raw != "none":
            kw[name] = cast(float(raw)) if cast is int else cast(raw)
    return ParamSet(**kw)


def build_engine(
    n: int, delta: int, params: ParamSet, mode: str = "full"
) -> Engine | TrivialBaseline:
    """The full engine or the rescan baseline, chosen by `mode` (see MODES).

    `auto` picks the baseline when delta <= trivial_cutoff(n) and otherwise
    the full engine at the balanced epsilon = auto_epsilon(n, delta), with
    tau and nu derived from it and every other field of `params` kept.
    """
    if mode == "auto":
        if delta <= trivial_cutoff(n):
            mode = "baseline"
        else:
            mode = "full"
            eps = auto_epsilon(n, delta)
            params = replace(params, epsilon=eps, tau=eps / 3.0, nu=2.0 * eps / 3.0)
    if mode == "baseline":
        return TrivialBaseline(n, delta)
    if mode == "full":
        return Engine(n, delta, EngineConfig(params=params))
    raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")


def run_stream(
    engine: Engine | TrivialBaseline,
    adversary,
    steps: int,
    watch: bool = False,
    per_update=None,
    audit_every: int = 0,
    record: TraceFile | None = None,
) -> dict:
    """Feed `steps` adversary updates to the engine.

    `watch` attaches the incremental properness oracle; `per_update` is an
    arbitrary callback (engine, update, index); `audit_every` runs the full
    verifier on that stride.  Returns a summary dict; its `algo_s` is the
    time spent in `engine.process` and its `adversary_s` the time spent in
    `adversary.next`, so neither is billed for the other.  Its `phases`
    holds one `_phase_record` per phase that closed during the run.
    """
    view = engine.coloring_view() if adversary.adaptive else None
    metrics = engine.metrics
    counters = attrgetter(*SCALARS)
    mark = counters(metrics)
    inits = metrics.phase_inits
    phases: list[dict] = []
    watcher = ProperWatch(engine) if watch else None
    audits = 0
    audit_failures: list[str] = []
    deltas: list[tuple[int, int]] | None = None
    if record is not None and record.outputs is None:
        record.outputs = []

    def _capture(v, old, new):
        deltas.append((v, new))

    capturing = record is not None
    if capturing:
        engine.colors.listeners.append(_capture)
    done = 0
    exhausted = False
    clock = time.perf_counter
    algo_s = adversary_s = 0.0
    try:
        for i in range(steps):
            t0 = clock()
            try:
                upd = adversary.next(view)
            except Exhausted:
                exhausted = True
                break
            t1 = clock()
            adversary_s += t1 - t0
            if capturing:
                deltas = []
            engine.process(upd)
            algo_s += clock() - t1
            if metrics.phase_inits != inits:
                inits = metrics.phase_inits
                now = counters(metrics)
                phases.append(_phase_record(engine, mark, now))
                mark = now
            if watcher is not None:
                watcher.check(upd)
            if capturing:
                record.updates.append(upd)
                record.outputs.append(deltas)
            if per_update is not None:
                per_update(engine, upd, i)
            if audit_every and (i + 1) % audit_every == 0:
                rep = verify(engine, boundary=engine.updates_in_phase == 0)
                audits += 1
                if not rep.passed:
                    audit_failures.append(f"update {i}: {rep.failed_names()}")
            done += 1
    finally:
        if capturing:
            engine.colors.listeners.remove(_capture)
        if watcher is not None:
            engine.colors.listeners.remove(watcher._on_event)
    return {
        "steps": done,
        "exhausted": exhausted,
        "watch_violations": list(watcher.violations) if watcher else None,
        "audits": audits,
        "audit_failures": audit_failures,
        "monochrome_hits": adversary.monochrome_hits,
        "algo_s": algo_s,
        "adversary_s": adversary_s,
        "phases": phases,
    }


def _phase_record(engine: Engine, start: tuple, end: tuple) -> dict:
    """The phase that `engine`'s last rebuild closed.

    `start` and `end` are the `SCALARS` counters at the previous boundary
    (or the run's start) and now, so each counter's entry is its change
    over the phase, boundary update and rebuild included.  `rebuild_work`
    is the rebuild's own share of `work`; `cliques`, `max_l` and `max_ld`
    are the clique count and the largest L(c) and L_D(c) it left.
    """
    rec = {name: b - a for name, a, b in zip(SCALARS, start, end)}
    rec["rebuild_work"] = engine.metrics.init_work[-1]
    rec["cliques"] = len(engine.decomp.cliques)
    rec["max_l"] = max(map(len, engine.colors.L))
    rec["max_ld"] = max(map(len, engine.colors.L_D))
    return rec


def record_run(
    n: int,
    delta: int,
    params: ParamSet,
    strategy: str,
    steps: int,
    mode: str = "full",
) -> tuple[Engine | TrivialBaseline, TraceFile, dict]:
    """Run a fresh engine against an adversary, recording a replayable trace."""
    engine = build_engine(n, delta, params, mode=mode)
    adversary = make_adversary(strategy, n, delta, seed=params.seed + 1)
    header = {"n": str(n), "delta": str(delta), "strategy": strategy, "mode": mode}
    header.update(params_to_header(params))
    trace = TraceFile(header=header, outputs=[])
    summary = run_stream(engine, adversary, steps, record=trace)
    return engine, trace, summary


def replay_trace(trace: TraceFile, params: ParamSet | None = None, check: bool = False):
    """Drive a fresh engine through a recorded trace.

    With `check`, recorded per-update color deltas are compared against the
    replayed ones; any divergence is reported (determinism gate).
    """
    hdr = trace.header
    n = int(hdr["n"])
    delta = int(hdr["delta"])
    if params is None:
        params = params_from_header(hdr)
    engine = build_engine(n, delta, params, mode=hdr.get("mode", "full"))
    mismatches: list[int] = []
    deltas: list[tuple[int, int]] = []

    def _capture(v, old, new):
        deltas.append((v, new))

    capturing = check and trace.outputs is not None
    if capturing:
        engine.colors.listeners.append(_capture)
    for i, upd in enumerate(trace.updates):
        if capturing:
            deltas = []
        engine.process(upd)
        if capturing and deltas != trace.outputs[i]:
            mismatches.append(i)
    if capturing:
        engine.colors.listeners.remove(_capture)
    return engine, mismatches

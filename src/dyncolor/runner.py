"""Drive an engine from an adversary stream; record and replay traces."""

from __future__ import annotations

import ast
import time
from dataclasses import fields, replace
from operator import attrgetter

from .adversary import Scripted, make_adversary
from .baseline import TrivialBaseline
from .engine import Engine, EngineConfig
from .errors import DynColorError, Exhausted, MalformedTrace
from .metrics import SCALARS
from .params import ParamSet, auto_epsilon, trivial_cutoff
from .trace import TraceFile
from .verify import ProperWatch

MODES = ("full", "auto", "baseline")


RUN_KEYS = ("n", "delta", "strategy", "mode")


def params_to_header(params: ParamSet) -> dict[str, str]:
    """Every `ParamSet` field in order: `profile` as its text, any other
    as its `repr`, or `none` when unset."""
    hdr = {}
    for f in fields(ParamSet):
        val = getattr(params, f.name)
        hdr[f.name] = val if f.name == "profile" else "none" if val is None else repr(val)
    return hdr


def params_from_header(hdr: dict[str, str]) -> ParamSet:
    """The `ParamSet` a trace header records; a field it omits keeps its default.

    A key that is neither in `RUN_KEYS` nor a `ParamSet` field, a value
    that does not parse as its field's type, or a value `ParamSet` refuses
    raises `MalformedTrace`.
    """
    types = {f.name: f.type for f in fields(ParamSet)}
    kw = {}
    for key, raw in hdr.items():
        if key in RUN_KEYS:
            continue
        if key not in types:
            raise MalformedTrace(None, f"unknown key {key!r}")
        kw[key] = raw if key == "profile" else _header_value(key, raw, types[key])
    try:
        return ParamSet(**kw)
    except ValueError as err:
        raise MalformedTrace(None, str(err)) from None


def _header_value(key: str, raw: str, typ: str):
    """`raw` read back with `ast.literal_eval` and checked against `typ`, the
    field's annotation text (``"int"``, ``"float | None"``, ...)."""
    if raw == "none" and typ.endswith("None"):
        return None
    try:
        val = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        val = None
    if type(val) is int and typ.startswith("float"):
        val = float(val)
    if type(val).__name__ not in typ:
        raise MalformedTrace(None, f"{key}={raw} is not a value of type {typ}")
    return val


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
    record: TraceFile | None = None,
) -> dict:
    """Feed `steps` adversary updates to the engine.

    `watch` attaches the incremental properness oracle; `per_update` is an
    arbitrary callback (engine, update, index).  Returns a summary dict;
    its `algo_s` is the time spent in `engine.process` and its
    `adversary_s` the time spent in `adversary.next`, so neither is billed
    for the other.  Its `phases` holds one `_phase_record` per phase that
    closed during the run.
    """
    view = engine.coloring_view() if adversary.adaptive else None
    metrics = engine.metrics
    counters = attrgetter(*SCALARS)
    mark = counters(metrics)
    inits = metrics.phase_inits
    phases: list[dict] = []
    watcher = ProperWatch(engine) if watch else None
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
    header = dict(zip(RUN_KEYS, (str(n), str(delta), strategy, mode)))
    header.update(params_to_header(params))
    trace = TraceFile(header=header, outputs=[])
    summary = run_stream(engine, adversary, steps, record=trace)
    return engine, trace, summary


def replay_trace(trace: TraceFile, check: bool = False):
    """Drive a fresh engine through a recorded trace; returns (engine, mismatches).

    With `check`, the replayed per-update color deltas are compared with
    the recorded ones, and `mismatches` lists the updates where they
    differ (determinism gate); a trace without color lines has none to
    compare, so `check` on it raises `DynColorError`.  A header fault
    raises `MalformedTrace`.
    """
    if check and trace.outputs is None:
        raise DynColorError("the trace records no colors to check ('!' lines)")
    hdr = trace.header
    for key in ("n", "delta"):
        if key not in hdr:
            raise MalformedTrace(None, f"missing key {key!r}")
    n, delta = (_header_value(key, hdr[key], "int") for key in ("n", "delta"))
    engine = build_engine(n, delta, params_from_header(hdr), mode=hdr.get("mode", "full"))
    updates = trace.updates
    replayed = TraceFile(outputs=[]) if check else None
    run_stream(engine, Scripted(n, delta, updates=updates), len(updates), record=replayed)
    if replayed is None:
        return engine, []
    pairs = enumerate(zip(replayed.outputs, trace.outputs))
    return engine, [i for i, (got, want) in pairs if got != want]

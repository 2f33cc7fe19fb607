"""Workloads, the calibration kernel, timed rounds and the untimed check pass.

Everything here drives the engine through the public `dyncolor` API only.
Timings are calibrated: between chunks of updates the benchmark runs a
fixed pure-Python kernel whose working set is about the size of the
engine's, and every raw engine time is scaled by

    kernel_ref_ms / (median of the kernel times around its chunk)

so a value in "ref" units is the time the update would take on the machine
state in which the kernel took `kernel_ref_ms`.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import types
from dataclasses import dataclass

from dyncolor import (
    Engine,
    EngineConfig,
    ParamSet,
    ProperWatch,
    TrivialBaseline,
    make_adversary,
    verify,
)

ns = time.perf_counter_ns

# a kernel run every CHUNK_NS of harness time keeps calibration local in time
# at about 10% overhead
CHUNK_NS = 50_000_000


@dataclass(frozen=True)
class Workload:
    strategy: str
    n: int
    delta: int
    updates: int  # stream length; every run measures exactly this stream
    kernel_mb: float  # calibration working set, about the engine's memory
    kernel_ref_ms: float  # nominal kernel time that defines the ref unit


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Stream lengths give at least 100 phase boundaries (phase length is
# max(64, delta // 8)), so rebuild_ms_p90 has 10 samples beyond it.
WORKLOADS = {
    "adaptive-sparse": Workload("adaptive-monochrome", 4096, 2048, 28_000, 16.0, 5.0),
    "churn-dense": Workload("clique-churn", 1024, 128, 20_000, 10.0, 4.7),
    "deletion-wide": Workload("deletion-heavy", 8192, 256, 6_400, 12.0, 4.8),
}


def sweep_params(seed: int, delta: int) -> ParamSet:
    """The acceptance suite's cheap-tracker desk profile."""
    return ParamSet(
        epsilon=0.2,
        tau=0.2,
        seed=seed,
        sample_count_k=12,
        fire_threshold=max(8.0, delta / 4.0),
        phase_len_t=max(64, delta // 8),
    )


def new_engine(wl: Workload, seed: int) -> Engine:
    return Engine(wl.n, wl.delta, EngineConfig(params=sweep_params(seed, wl.delta)))


def new_adversary(wl: Workload, seed: int):
    return make_adversary(wl.strategy, wl.n, wl.delta, seed=seed + 1000)


# ---- calibration kernel ------------------------------------------------------


class _Bag:
    """List plus position dict: the set shape the engine uses everywhere."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}

    def add(self, x: int) -> None:
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x: int) -> None:
        i = self.pos.pop(x, None)
        if i is not None:
            last = self.items.pop()
            if last != x:
                self.items[i] = last
                self.pos[last] = i


class CalibrationKernel:
    """A fixed pure-Python op mix whose time is the benchmark's unit of speed.

    It is frozen here, apart from the program, so a change to the engine
    never changes the unit.  It keeps a random graph of `_Bag` adjacency
    sets and per-color buckets of about eight vertices, grown to about
    `megabytes`.  One run takes the next window of a fixed vertex order
    and, per vertex, draws colors and scans their buckets against the
    vertex's adjacency (the engine's rejection-sampling feasibility test),
    moves the vertex to the last drawn bucket and rewires one of its
    edges.  Method calls, random draws, dict probes and list edits match
    the engine's mix; the op count per run is nearly fixed (bucket sizes
    drift a little); successive runs sweep the whole working set, as the
    engine's rebuilds do.
    """

    DEGREE = 16
    DRAWS = 3
    BATCH = 512
    BYTES_PER_VERTEX = 2030  # deep size per vertex on CPython 3.11

    def __init__(self, megabytes: float, seed: int = 7):
        rng = random.Random(seed)
        n = max(self.BATCH, int(megabytes * 2**20 / self.BYTES_PER_VERTEX))
        self.n = n
        self.adj = [_Bag() for _ in range(n)]
        for bag in self.adj:
            while len(bag.items) < self.DEGREE:
                bag.add(rng.randrange(n))
        self.colors = n // 8
        self.buckets = [_Bag() for _ in range(self.colors)]
        self.color = [rng.randrange(self.colors) for _ in range(n)]
        for v, c in enumerate(self.color):
            self.buckets[c].add(v)
        self.order = list(range(n))
        rng.shuffle(self.order)
        self.rng = random.Random(seed + 1)
        self.cursor = 0

    def run(self) -> int:
        adj, buckets, color, order, n = self.adj, self.buckets, self.color, self.order, self.n
        randrange = self.rng.randrange
        colors = self.colors
        lo = self.cursor
        self.cursor = (lo + self.BATCH) % n
        hits = 0
        for j in range(lo, lo + self.BATCH):
            v = order[j % n]
            nbrs = adj[v]
            own = nbrs.pos
            c = 0
            for _ in range(self.DRAWS):
                c = randrange(colors)
                for w in buckets[c].items:
                    if w in own:
                        hits += 1
            buckets[color[v]].discard(v)
            buckets[c].add(v)
            color[v] = c
            # rewire one edge, keeping the degree fixed
            old = nbrs.items[randrange(self.DEGREE)]
            new = randrange(n)
            if new not in own:
                nbrs.discard(old)
                nbrs.add(new)
        return hits

    def time_ms(self) -> float:
        t0 = ns()
        self.run()
        return (ns() - t0) / 1e6


class Calibrator:
    """Interleaves kernel runs with timed work and converts raw times to ref.

    A chunk of samples lies between two kernel runs.  Its factor is
    ref_ms over the median of the WINDOW kernel times around it, which
    irons out a single slow kernel run but still follows the machine's
    drift over seconds.
    """

    WINDOW = 9

    def __init__(self, kernel: CalibrationKernel, ref_ms: float):
        self.kernel = kernel
        self.ref_ms = ref_ms
        self.kernel_ms: list[float] = []  # every kernel time of the run

    def start(self) -> None:
        self._round: list[float] = [self.kernel.time_ms()]
        self._chunks: list[list[int]] = [[]]  # chunk j lies after kernel time j
        self._last = ns()

    def maybe_tick(self, sample_index: int) -> None:
        """Put sample_index in the open chunk; run the kernel when the chunk is long enough."""
        self._chunks[-1].append(sample_index)
        if ns() - self._last >= CHUNK_NS:
            self._round.append(self.kernel.time_ms())
            self._chunks.append([])
            self._last = ns()

    def factors(self, count: int) -> list[float]:
        """End the round and return one ref factor per sample index."""
        self._round.append(self.kernel.time_ms())
        self.kernel_ms += self._round
        times = self._round
        half = self.WINDOW // 2
        out = [0.0] * count
        for j, idxs in enumerate(self._chunks):
            lo = max(0, min(j - half + 1, len(times) - self.WINDOW))
            f = self.ref_ms / statistics.median(times[lo:lo + self.WINDOW])
            for i in idxs:
                out[i] = f
        return out


# ---- timed rounds -------------------------------------------------------------


@dataclass
class Round:
    raw_ns: list[int]
    ref_ns: list[float]
    boundary: list[bool]
    stream: list
    endpoint_colors: list[tuple[int, int]]
    digests: dict[int, int]  # update index -> hash of the whole coloring
    adversary_ns: int
    error: str | None


def coloring_digest(engine: Engine) -> int:
    return hash(tuple(map(engine.color_of, range(engine.n))))


def timed_round(wl: Workload, seed: int, calib: Calibrator, stream=None, tracer=None) -> Round:
    """Process the workload's stream from a fresh engine, timing only `process`.

    With `stream` None the workload's adversary runs inline (its time is
    measured separately); otherwise the given stream is replayed.  A
    `tracer` records spans from after construction to the last update.
    """
    gc.collect()
    # as timeit does, keep the cyclic collector out of the timed region; its
    # pauses would land on arbitrary updates and blur the percentiles
    gc.disable()
    try:
        return _timed_round(wl, seed, calib, stream, tracer)
    finally:
        gc.enable()


def _timed_round(wl, seed, calib, stream, tracer) -> Round:
    engine = new_engine(wl, seed)
    adversary = new_adversary(wl, seed) if stream is None else None
    view = engine.coloring_view() if adversary is not None and adversary.adaptive else None
    count = wl.updates
    raw = [0] * count
    boundary = [False] * count
    out_stream = [] if stream is None else stream
    endpoint_colors = []
    digests: dict[int, int] = {}
    adv_ns = 0
    error = None
    process = engine.process
    color_of = engine.color_of
    if tracer is not None:
        tracer.attach(engine)
    calib.start()
    for i in range(count):
        if adversary is not None:
            a0 = ns()
            upd = adversary.next(view)
            adv_ns += ns() - a0
            out_stream.append(upd)
        else:
            upd = stream[i]
        try:
            t0 = ns()
            process(upd)
            t1 = ns()
        except Exception as exc:  # the run reports it as a failed update
            error = f"update {i} ({upd}) raised {type(exc).__name__}: {exc}"
            break
        raw[i] = t1 - t0
        endpoint_colors.append((color_of(upd.u), color_of(upd.v)))
        if engine.updates_in_phase == 0:
            boundary[i] = True
            digests[i] = coloring_digest(engine)
        calib.maybe_tick(i)
    if tracer is not None:
        tracer.detach()
    done = len(endpoint_colors)
    factors = calib.factors(count)
    ref = [raw[i] * factors[i] for i in range(done)]
    return Round(
        raw[:done], ref, boundary[:done], out_stream, endpoint_colors, digests,
        adv_ns, error,
    )


def time_setup(wl: Workload, seed: int, calib: Calibrator, min_reps=7, min_s=1.5):
    """Median raw and ref seconds of `Engine(n, delta, config)` over repeated builds."""
    gc.collect()
    gc.disable()  # construction makes no reference cycles, so nothing piles up
    raw: list[int] = []
    try:
        calib.start()
        while len(raw) < min_reps or (sum(raw) < min_s * 1e9 and len(raw) < 400):
            t0 = ns()
            engine = new_engine(wl, seed)
            raw.append(ns() - t0)
            del engine
            calib.maybe_tick(len(raw) - 1)
    finally:
        gc.enable()
    factors = calib.factors(len(raw))
    ref = [r * f for r, f in zip(raw, factors)]
    return statistics.median(raw) / 1e9, statistics.median(ref) / 1e9


# ---- untimed check pass -----------------------------------------------------------


@dataclass
class CheckResult:
    failed: set[int]  # indices of updates that failed
    problems: list[str]
    recourse: int
    verify_ok: bool
    verify_failed: list[str]
    verify_s: float
    engine_bytes: int
    metrics: object  # the check engine's Metrics


def check_pass(wl: Workload, seed: int, timed: Round) -> CheckResult:
    """Replay the timed run's stream under ProperWatch and compare outputs.

    Per update it checks properness (ProperWatch), that both endpoint
    colors match the timed run, and at every phase boundary that the whole
    coloring matches.  A color listener counts recourse: vertices whose
    public color differs after the update from before it.  The final
    `verify()` is the brute-force audit.
    """
    engine = new_engine(wl, seed)
    watch = ProperWatch(engine)
    first_old: dict[int, int] = {}

    def on_color(v: int, old: int, new: int) -> None:
        if v not in first_old:
            first_old[v] = old

    engine.colors.listeners.append(on_color)
    failed: set[int] = set()
    problems: list[str] = []
    recourse = 0
    color_of = engine.color_of
    for i, upd in enumerate(timed.stream):
        try:
            engine.process(upd)
        except Exception as exc:  # reported as a failed update, not a crash
            failed.update(range(i, len(timed.stream)))
            problems.append(f"check pass: update {i} raised {type(exc).__name__}: {exc}")
            break
        if not watch.check(upd):
            failed.add(i)
        recourse += sum(1 for v, old in first_old.items() if color_of(v) != old)
        first_old.clear()
        if i >= len(timed.endpoint_colors):
            continue  # the timed run stopped before this update
        diverged = (color_of(upd.u), color_of(upd.v)) != timed.endpoint_colors[i]
        if i in timed.digests and coloring_digest(engine) != timed.digests[i]:
            diverged = True
        if diverged:
            failed.add(i)
            problems.append(f"update {i}: replay diverged from the timed run")
    problems += watch.violations[:20]
    engine.colors.listeners.clear()
    t0 = time.perf_counter()
    report = verify(engine, boundary=engine.updates_in_phase == 0)
    verify_s = time.perf_counter() - t0
    return CheckResult(
        failed, problems, recourse, report.passed, report.failed_names(),
        verify_s, deep_size(engine, exclude=timed.stream), engine.metrics,
    )


# ---- memory ---------------------------------------------------------------------------

_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
           types.MethodType)


def deep_size(root, exclude=()) -> int:
    """Bytes of every object reachable from root, each counted once.

    Classes, modules and functions are shared with the rest of the process
    and skipped; objects in `exclude` (the stored stream) are not the
    root's to count.
    """
    seen = {id(x) for x in exclude}
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


# ---- baseline reference ---------------------------------------------------------------


def baseline_replay(wl: Workload, stream, calib: Calibrator):
    """Replay the stream into the rescan baseline; returns (ref us/update, work/update, proper)."""
    base = TrivialBaseline(wl.n, wl.delta)
    raw = [0] * len(stream)
    calib.start()
    for i, upd in enumerate(stream):
        t0 = ns()
        base.process(upd)
        raw[i] = ns() - t0
        calib.maybe_tick(i)
    factors = calib.factors(len(stream))
    ref_us = sum(r * f for r, f in zip(raw, factors)) / len(stream) / 1e3
    return ref_us, base.metrics.work / len(stream), base.is_proper()

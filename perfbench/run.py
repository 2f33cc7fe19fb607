"""dyncolor benchmark: calibrated update and rebuild latency, recourse, memory.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn-dense --seed 0 --seconds 10 --trace 0

One run builds the workload's inputs from the seed, times engine
construction, then processes the workload's fixed update stream from a
fresh engine in closed-loop rounds (one caller that waits for every
`process` call) until `--seconds` have passed, timing only `process`.
An untimed check pass replays the stream under `ProperWatch` and a final
`verify()`; the rescan baseline replays it too.  With `--trace 1` one more
round runs with every layer's public methods wrapped, and the per-layer
metrics replace the end-to-end ones in the JSON line.  The last line of
standard output is one JSON object; the exit code is 1 when any check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

# each run repeats the stream at least this often (more while --seconds last)
MIN_ROUNDS = 3

# name -> unit of every end-to-end metric the JSON line carries
END_TO_END = {
    "update_us_mean": "ref-us",
    "inphase_us_p50": "ref-us",
    "inphase_us_p99": "ref-us",
    "rebuild_ms_p50": "ref-ms",
    "rebuild_ms_p90": "ref-ms",
    "recourse_per_update": "vertices",
    "setup_s": "s",
    "engine_mem_mb": "MB",
}


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def summary(values, fn) -> float:
    """fn(values), or 0.0 when a failed run left fewer than two samples."""
    return fn(values) if len(values) >= 2 else 0.0


def per_update_median(rounds: list[list[float]]) -> list[float]:
    count = min(map(len, rounds))
    return [statistics.median(r[i] for r in rounds) for i in range(count)]


def import_engine() -> None:
    """Import dyncolor from this checkout's src/, and nowhere else."""
    try:
        import dyncolor
    except ImportError as exc:
        sys.exit(f"cannot import dyncolor from {SRC}: {exc}")
    if not Path(dyncolor.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"dyncolor was imported from {dyncolor.__file__}, not from {SRC}")


def run(name: str, wl, seed: int, seconds: float, trace: bool, out_dir: Path | None) -> dict:
    """One benchmark run; prints the metric table and returns the result object."""
    from harness import (
        CalibrationKernel, Calibrator, baseline_replay, check_pass, deep_size,
        new_adversary, time_setup, timed_round,
    )

    stages: dict[str, float] = {}
    clock = time.perf_counter()

    def stage(label):
        nonlocal clock
        now = time.perf_counter()
        stages[label] = now - clock
        clock = now

    calib = Calibrator(CalibrationKernel(wl.kernel_mb), wl.kernel_ref_ms)
    calib.kernel.time_ms()  # the first run pays for cold caches

    # set-up: oblivious streams are generated here, outside all timing
    stream = adversary_us = None
    adversary = new_adversary(wl, seed)
    if not adversary.adaptive:
        t0 = time.perf_counter_ns()
        stream = [adversary.next(None) for _ in range(wl.updates)]
        adversary_us = (time.perf_counter_ns() - t0) / wl.updates / 1e3
    setup_raw, setup_ref = time_setup(wl, seed, calib)
    stage("setup")

    problems: list[str] = []
    failed: set[int] = set()
    rounds = []
    t_end = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < t_end:
        r = timed_round(wl, seed, calib, stream)
        rounds.append(r)
        if r.error is not None:
            problems.append(r.error)
            failed.add(len(r.endpoint_colors))
            break
    first = rounds[0]
    stage("timed")
    if adversary_us is None:
        adversary_us = (
            sum(r.adversary_ns for r in rounds) / sum(len(r.stream) for r in rounds) / 1e3
        )
    for k, r in enumerate(rounds[1:], 2):
        if (r.stream != first.stream or r.endpoint_colors != first.endpoint_colors
                or r.digests != first.digests):
            problems.append(f"round {k} diverged from round 1 on the same seed")
            failed.add(next(
                (i for i, (a, b) in enumerate(zip(r.endpoint_colors, first.endpoint_colors))
                 if a != b),
                min(len(r.endpoint_colors), len(first.endpoint_colors)),
            ))

    check = check_pass(wl, seed, first)
    stage("check")
    failed |= check.failed
    problems += check.problems
    if not check.verify_ok:
        problems.append(f"final verify() failed: {check.verify_failed}")
    base_us, base_work, base_proper = baseline_replay(wl, first.stream, calib)
    if not base_proper:
        problems.append("baseline coloring is improper after the replay")
    stage("baseline")

    attempted = len(first.stream)
    # every round repeats the same computation, so each update's time is
    # the median of its repeats: a stall in one round does not move it
    ref = per_update_median([r.ref_ns for r in rounds])
    raw = per_update_median([r.raw_ns for r in rounds])
    inphase = [x for x, b in zip(ref, first.boundary) if not b]
    rebuild = [x for x, b in zip(ref, first.boundary) if b]
    update_us = summary(ref, statistics.fmean) / 1e3
    end_to_end = {
        "update_us_mean": update_us,
        "inphase_us_p50": summary(inphase, statistics.median) / 1e3,
        "inphase_us_p99": summary(inphase, lambda xs: quantile(xs, 0.99)) / 1e3,
        "rebuild_ms_p50": summary(rebuild, statistics.median) / 1e6,
        "rebuild_ms_p90": summary(rebuild, lambda xs: quantile(xs, 0.90)) / 1e6,
        "recourse_per_update": check.recourse / attempted,
        "setup_s": setup_ref,
        "engine_mem_mb": check.engine_bytes / 2**20,
    }
    diagnostics = {
        "failed_share": (len(failed) / attempted, "fraction"),
        "raw_update_us_mean": (summary(raw, statistics.fmean) / 1e3, "us"),
        "raw_setup_s": (setup_raw, "s"),
        "calib_ms": (statistics.median(calib.kernel_ms), "ms"),
        "rounds": (len(rounds), "count"),
        "updates_per_round": (attempted, "count"),
        "phase_boundaries": (sum(first.boundary), "count"),
    } | {f"wall_{k}_s": (v, "s") for k, v in stages.items()}

    print(f"# workload {name} seed {seed}: {wl.strategy} n={wl.n} delta={wl.delta}")
    for key, value in end_to_end.items():
        print(f"{key:24s} {value:14.4f} {END_TO_END[key]}")
    for key, (value, unit) in diagnostics.items():
        print(f"{key:24s} {value:14.4f} {unit}  (diagnostic)")

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    if trace:
        from tracing import PER_LAYER

        m = check.metrics  # exact counters; the check pass runs the same stream
        layers = traced(name, wl, seed, calib, first.stream, update_us, out_dir)
        layers |= {
            "engine.work_per_update": m.work / m.updates,
            "engine.init_work_mean": statistics.fmean(m.init_work) if m.init_work else 0.0,
            "engine.fallbacks": m.fallbacks,
            "engine.fallback_degraded": m.fallback_degraded,
            "engine.anchor_repairs": m.anchor_repairs,
            "adversary.us_per_update": adversary_us,
            "baseline.update_us_mean": base_us,
            "baseline.work_per_update": base_work,
            "verify.s": check.verify_s,
            "harness.calib_ms": statistics.median(calib.kernel_ms),
            "harness.calib_mb": deep_size(calib.kernel) / 2**20,
            "harness.raw_update_us_mean": summary(raw, statistics.fmean) / 1e3,
        }
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def traced(name, wl, seed, calib, stream, untraced_us, out_dir) -> dict:
    """One more round with every layer wrapped; prints the layer table."""
    from harness import timed_round
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        r = timed_round(wl, seed, calib, stream, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_us = statistics.fmean(r.ref_ns) / 1e3
    out, rows = layer_metrics(tracer, factor=sum(r.ref_ns) / sum(r.raw_ns))
    out["harness.tracing_overhead"] = traced_us / untraced_us - 1.0
    total = sum(ms for _, _, ms in rows) or 1.0
    print(f"# per-layer self time, traced round ({len(tracer.start)} spans)")
    for span, calls, ms in sorted(rows, key=lambda row: -row[2]):
        print(f"{span:32s} {calls:10d} calls {ms:12.3f} ref-ms {100 * ms / total:6.2f}%")
    for key, value in out.items():
        print(f"{key:36s} {value:16.4f}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{name}.csv")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_engine()
    from harness import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), HERE / "out")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

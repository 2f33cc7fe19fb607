"""Tiny-size smoke test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload's strategy at a small size, untraced and traced, twice
each, and checks that every metric BENCHMARK.json names is emitted with
its unit, that exact counts repeat between the two runs, and that the
check pass fails a deliberately broken engine: one that leaves a
monochromatic edge, one that raises, one whose randomness differs
between runs, and a final `verify()` that reports a failure.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (sets up the import path for dyncolor)

bench.import_engine()

import harness  # noqa: E402
from harness import Workload  # noqa: E402
from dyncolor.verify import CheckResult, Report  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

TINY = {
    "adaptive-sparse": Workload("adaptive-monochrome", 256, 64, 640, 1.0, 1.0),
    "churn-dense": Workload("clique-churn", 128, 16, 640, 1.0, 1.0),
    "deletion-wide": Workload("deletion-heavy", 512, 16, 640, 1.0, 1.0),
}
# counts that the same seed must reproduce exactly
EXACT_UNITS = {"count", "work", "draws", "vertices", "MB"}
# the kernel rewires its graph on every run, so its size is not an exact count
NOT_EXACT = {"harness.calib_mb"}


def expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def quiet_run(name, wl, trace, seed=3):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return bench.run(name, wl, seed, 0.0, trace, None)


def exact(result) -> dict:
    return {
        k: m["value"] for k, m in result["metrics"].items()
        if m["unit"] in EXACT_UNITS and k not in NOT_EXACT
    }


def check_emission_and_repeat(spec) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == bench.END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    expect(layers == PER_LAYER, "BENCHMARK.json per_layer differs from tracing.py")
    expect(set(TINY) == {w["name"] for w in spec["workloads"]}, "workload names differ")
    for name, wl in TINY.items():
        for trace, want in ((False, e2e), (True, layers)):
            a = quiet_run(name, wl, trace)
            b = quiet_run(name, wl, trace)
            label = f"{name} trace={int(trace)}"
            expect(a["correct"] and b["correct"], f"{label}: check pass failed")
            got = {k: m["unit"] for k, m in a["metrics"].items()}
            expect(got == want, f"{label}: emitted {sorted(got)} instead of {sorted(want)}")
            expect(exact(a) == exact(b), f"{label}: exact counts differ between runs")
            print(f"ok {label}: {len(got)} metrics, {len(exact(a))} exact counts repeat")


@contextlib.contextmanager
def patched(name, value):
    original = getattr(harness, name)
    setattr(harness, name, value)
    try:
        yield
    finally:
        setattr(harness, name, original)


def check_failures_are_caught() -> None:
    wl = TINY["deletion-wide"]
    original = harness.new_engine

    def monochrome(wl, seed):
        engine = original(wl, seed)
        process = engine.process

        def broken(upd):
            process(upd)
            if upd.insert and engine.updates_in_phase == 5:
                engine.colors.set_sparse(upd.v, engine.color_of(upd.u))

        engine.process = broken
        return engine

    with patched("new_engine", monochrome):
        result = quiet_run("deletion-wide", wl, False)
    expect(not result["correct"] and result["failed"] > 0, "a monochromatic edge passed")
    print(f"ok monochromatic edge caught: {result['failed']} failed updates")

    def raising(wl, seed):
        engine = original(wl, seed)
        process = engine.process

        def broken(upd):
            if engine.metrics.updates == 100:
                raise RuntimeError("injected failure")
            process(upd)

        engine.process = broken
        return engine

    with patched("new_engine", raising):
        result = quiet_run("deletion-wide", wl, False)
    expect(not result["correct"] and result["failed"] > 0, "a raising update passed")
    print(f"ok raising update caught: {result['failed']} failed updates")

    builds = iter(range(1, 10**6))

    def drifting(wl, seed):
        return original(wl, seed + next(builds))

    with patched("new_engine", drifting):
        result = quiet_run("deletion-wide", wl, False)
    expect(not result["correct"], "a replay divergence passed")
    print(f"ok replay divergence caught: {result['failed']} failed updates")

    def failing_verify(engine, boundary=True):
        report = Report()
        report.add(CheckResult("injected", False, ["injected failure"]))
        return report

    with patched("verify", failing_verify):
        result = quiet_run("deletion-wide", wl, False)
    expect(not result["correct"], "a failed verify() passed")
    print("ok failed verify() caught")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check_emission_and_repeat(spec)
    check_failures_are_caught()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Does calibration, not luck, keep the ref times steady while the machine drifts?

    python3 perfbench/drift_check.py --workload adaptive-sparse --seed 0 --runs 6

Runs the same workload and seed several times in this process, every
other run with a co-runner: a second Python process that flips bytes of
a 64 MB buffer at pseudo-random offsets on the other core.  For each run
it prints the kernel time and the raw and calibrated `update_us_mean`;
the summary gives how far each moved over all runs and between the quiet
and the loaded runs.  The co-runner is stopped and waited for after
every loaded run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

CORUNNER = """
import random
data = bytearray(64 * 2**20)
n = len(data)
i = 1
while True:
    i = (i * 1103515245 + 12345) % n
    data[i] ^= 1
"""


@contextlib.contextmanager
def corunner(active: bool):
    proc = subprocess.Popen([sys.executable, "-c", CORUNNER]) if active else None
    try:
        yield
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=30)


def one_run(name, wl, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.run(name, wl, seed, 0.0, False, None)
    diag = {}
    for line in out.getvalue().splitlines():
        if line.endswith("(diagnostic)"):
            key, value = line.split()[:2]
            diag[key] = float(value)
    return result["metrics"]["update_us_mean"]["value"], diag["raw_update_us_mean"], diag["calib_ms"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="adaptive-sparse")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=6)
    args = parser.parse_args(argv)
    bench.import_engine()
    from harness import WORKLOADS

    wl = WORKLOADS[args.workload]
    rows = {False: [], True: []}
    print(f"{'co-runner':10s} {'calib_ms':>9s} {'raw_us':>9s} {'ref_us':>9s}")
    for i in range(args.runs):
        loaded = i % 2 == 1
        with corunner(loaded):
            ref, raw, kernel = one_run(args.workload, wl, args.seed)
        rows[loaded].append((kernel, raw, ref))
        print(f"{'on' if loaded else 'off':10s} {kernel:9.3f} {raw:9.2f} {ref:9.2f}", flush=True)
    every = rows[False] + rows[True]
    print("range over all runs, max over min:")
    for j, label in enumerate(("kernel", "raw update_us_mean", "ref update_us_mean")):
        values = [r[j] for r in every]
        print(f"  {label:20s} {100 * (max(values) / min(values) - 1):+7.1f}%")
    if rows[True] and rows[False]:
        print("median change, loaded over quiet:")
        for j, label in enumerate(("kernel", "raw update_us_mean", "ref update_us_mean")):
            quiet = statistics.median(r[j] for r in rows[False])
            loaded = statistics.median(r[j] for r in rows[True])
            print(f"  {label:20s} {100 * (loaded / quiet - 1):+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shape gate for the committed benchmark records `BENCH_<n>_<sha7>.json`.

Each record holds the runs of `perfbench/run.py` on one source commit:
seeds 0-4 of every workload `BENCHMARK.json` declares at `--trace 0`, and
seed 0 of each at `--trace 1`.  Every run must have checked out correct
with no failed update, and the sha7 in the file name must be the commit
the record names.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record(path):
    record = json.loads(path.read_text())
    m = re.fullmatch(r"BENCH_\d+_([0-9a-f]{7})\.json", path.name)
    assert m and m.group(1) == record["commit"]
    runs = sorted((r["workload"], r["seed"], r["trace"]) for r in record["runs"])
    expected = sorted(
        [(w, seed, 0) for w in WORKLOADS for seed in range(5)]
        + [(w, 0, 1) for w in WORKLOADS]
    )
    assert runs == expected
    for r in record["runs"]:
        assert r["result"]["correct"] is True and r["result"]["failed"] == 0, r

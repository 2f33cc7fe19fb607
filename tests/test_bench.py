import csv

from dyncolor.adversary import make_adversary
from dyncolor.bench import COLUMNS, loglog_slope, run_cell, run_grid, slope_rows, write_csv
from dyncolor.params import ParamSet
from dyncolor.runner import build_engine, run_stream


def test_single_cell_single_algo_csv(tmp_path):
    rows = run_cell(
        {"n": 64, "delta": 16, "strategy": "oblivious-random", "steps": 200,
         "seed": 1, "algos": ("engine",)}
    )
    assert len(rows) == 1
    out = tmp_path / "one.csv"
    write_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the single row
    assert lines[0] == ",".join(COLUMNS)


def test_algorithm_and_adversary_times_are_split():
    engine = build_engine(64, 16, ParamSet(epsilon=0.2, seed=1))
    summary = run_stream(engine, make_adversary("adaptive-monochrome", 64, 16, seed=2), 200)
    assert summary["algo_s"] >= 0 and summary["adversary_s"] >= 0
    rows = run_cell(
        {"n": 64, "delta": 16, "strategy": "adaptive-monochrome", "steps": 200, "seed": 1}
    )
    for r in rows:
        assert r["wall_s"] >= 0 and r["adversary_s"] >= 0, r["algo"]


def test_engine_vs_baseline_both_proper_with_ratio():
    rows = run_cell(
        {"n": 96, "delta": 24, "strategy": "oblivious-random", "steps": 400, "seed": 2}
    )
    by_algo = {r["algo"]: r for r in rows}
    assert by_algo["engine"]["proper"] and by_algo["baseline"]["proper"]
    ratio = by_algo["engine"]["work_per_update"] / by_algo["baseline"]["work_per_update"]
    assert ratio > 0


def test_slope_separation_small_grid():
    cells = [
        {"n": n, "delta": n // 2, "strategy": "adaptive-monochrome",
         "steps": 2 * n, "seed": 0, "phase_len_t": max(64, n // 16),
         "tau": 0.2}
        for n in (256, 512, 1024)
    ]
    rows = run_grid(cells)
    slopes = {s["algo"]: s["slope"] for s in slope_rows(rows)}
    assert slopes["engine"] < slopes["baseline"]


def test_loglog_slope_exact_on_power_law():
    pts = [(2**k, 3.0 * (2**k) ** 1.5) for k in range(4, 9)]
    assert abs(loglog_slope(pts) - 1.5) < 1e-9

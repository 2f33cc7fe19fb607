"""Benchmark grid: engine vs the rescan baseline over (n, delta, strategy).

Emits one CSV row per (cell, algorithm) with the fixed column schema
below, plus log-log slope fits of mean work per update against n for
each (strategy, algorithm) series.
"""

from __future__ import annotations

import csv
import math

from .adversary import make_adversary
from .params import ParamSet
from .runner import build_engine, run_stream

COLUMNS = [
    "n", "delta", "strategy", "steps", "seed", "algo",
    "work_per_update", "wall_s", "adversary_s", "fallbacks", "fallback_rate",
    "phase_inits", "mean_init_work", "monochrome_hits", "proper",
]


def run_cell(cell: dict) -> list[dict]:
    """One grid cell: run both algorithms, return their rows.

    `ParamSet` gets only the settings the cell gives (a missing or None
    one takes its default).
    """
    n, delta = cell["n"], cell["delta"]
    steps, seed = cell["steps"], cell["seed"]
    strategy = cell["strategy"]
    given = {
        key: cell[key]
        for key in ("epsilon", "tau", "phase_len_t", "sample_count_k")
        if cell.get(key) is not None
    }
    rows = []
    for algo in cell.get("algos", ("engine", "baseline")):
        params = ParamSet(seed=seed, **given)
        mode = "full" if algo == "engine" else "baseline"
        engine = build_engine(n, delta, params, mode)
        adversary = make_adversary(strategy, n, delta, seed=seed + 7)
        summary = run_stream(engine, adversary, steps)
        m = engine.metrics
        done = max(summary["steps"], 1)
        rows.append(
            {
                "n": n,
                "delta": delta,
                "strategy": strategy,
                "steps": summary["steps"],
                "seed": seed,
                "algo": algo,
                "work_per_update": m.work / done,
                "wall_s": summary["algo_s"],
                "adversary_s": summary["adversary_s"],
                "fallbacks": m.fallbacks,
                "fallback_rate": m.fallbacks / done,
                "phase_inits": m.phase_inits,
                "mean_init_work": (
                    sum(m.init_work) / len(m.init_work) if m.init_work else 0.0
                ),
                "monochrome_hits": summary["monochrome_hits"],
                "proper": engine.is_proper(),
            }
        )
    return rows


def run_grid(cells: list[dict]) -> list[dict]:
    return [row for cell in cells for row in run_cell(cell)]


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln(y) against ln(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-12)) for _, y in points]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def slope_rows(rows: list[dict]) -> list[dict]:
    """Per (strategy, algo): slope of mean work/update over n."""
    series: dict[tuple[str, str], dict[int, list[float]]] = {}
    for r in rows:
        series.setdefault((r["strategy"], r["algo"]), {}).setdefault(r["n"], []).append(
            r["work_per_update"]
        )
    out = []
    for (strategy, algo), by_n in sorted(series.items()):
        pts = [(n, sum(ws) / len(ws)) for n, ws in sorted(by_n.items())]
        if len(pts) >= 2:
            out.append(
                {"strategy": strategy, "algo": algo, "slope": loglog_slope(pts), "points": pts}
            )
    return out


def write_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k) for k in COLUMNS})


def write_load_histogram(path, engine) -> None:
    """CSV of color -> sparse list length (phase-boundary export)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["color", "load"])
        for c, lst in enumerate(engine.colors.L):
            writer.writerow([c, len(lst)])


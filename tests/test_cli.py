import csv
import json

import pytest

from dyncolor.cli import main


def test_run_with_verify_and_reports(tmp_path):
    report = tmp_path / "report.json"
    load_csv = tmp_path / "load.csv"
    rc = main(
        [
            "run",
            "--n", "48", "--delta", "12", "--steps", "300",
            "--strategy", "oblivious-random", "--seed", "5",
            "--phase-len", "24", "--verify",
            "--report-json", str(report),
            "--load-csv", str(load_csv),
        ]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["verify_passed"] is True
    assert data["summary"]["steps"] == 300
    rows = list(csv.DictReader(load_csv.open()))
    assert len(rows) == 13  # one row per color
    assert {"color", "load"} <= set(rows[0])


def test_run_baseline_with_verify_and_load_csv(tmp_path):
    report = tmp_path / "report.json"
    load_csv = tmp_path / "load.csv"
    rc = main(
        [
            "run", "--mode", "baseline",
            "--n", "48", "--delta", "12", "--steps", "300",
            "--strategy", "adaptive-monochrome", "--seed", "5", "--verify",
            "--report-json", str(report),
            "--load-csv", str(load_csv),
        ]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["snapshot"]["mode"] == "baseline"
    assert data["verify_passed"] is True
    rows = list(csv.DictReader(load_csv.open()))
    assert len(rows) == 13  # one row per color
    assert sum(int(r["load"]) for r in rows) == 48


def test_run_baseline_writes_header_only_clique_and_branch_csvs(tmp_path):
    clique_csv = tmp_path / "cl.csv"
    branch_csv = tmp_path / "br.csv"
    rc = main(
        [
            "run", "--mode", "baseline",
            "--n", "32", "--delta", "8", "--steps", "50",
            "--clique-csv", str(clique_csv),
            "--branch-csv", str(branch_csv),
        ]
    )
    assert rc == 0
    # the baseline forms no cliques and dispatches no matches
    assert clique_csv.read_text().splitlines()[0].startswith("clique,size,k,")
    assert len(clique_csv.read_text().splitlines()) == 1
    assert branch_csv.read_text().splitlines() == ["call,clique,branch"]


def test_explicit_zero_sizes_are_not_replaced_by_defaults(tmp_path):
    for cmd in ("run", "verify"):
        with pytest.raises(ValueError, match="n must be positive"):
            main([cmd, "--n", "0", "--steps", "5"])
    report = tmp_path / "report.json"
    rc = main(["run", "--n", "16", "--delta", "0", "--steps", "5", "--report-json", str(report)])
    assert rc == 0
    snap = json.loads(report.read_text())["snapshot"]
    assert (snap["n"], snap["delta"], snap["edges"]) == (16, 0, 0)


def test_explicit_zero_epsilon_is_not_replaced_by_the_default(tmp_path):
    out = tmp_path / "bench.csv"
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        main(["run", "--epsilon", "0", "--n", "16", "--steps", "5"])
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        main(["bench", "--epsilon", "0", "--sizes", "16", "--steps", "5", "--out", str(out)])
    assert not out.exists()


def test_record_then_replay_check(tmp_path):
    trace = tmp_path / "run.trace"
    rc = main(
        [
            "record",
            "--n", "40", "--delta", "10", "--steps", "200",
            "--strategy", "adaptive-monochrome", "--seed", "3",
            "--phase-len", "16", "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    report = tmp_path / "replay.json"
    rc = main(["replay", "--trace", str(trace), "--check", "--report-json", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["mismatched_updates"] == []


def test_verify_subcommand(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--n", "40", "--delta", "10", "--steps", "200",
            "--strategy", "clique-churn", "--seed", "2", "--phase-len", "20",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_bench_subcommand(tmp_path):
    out_csv = tmp_path / "bench.csv"
    report = tmp_path / "bench.json"
    rc = main(
        [
            "bench",
            "--sizes", "64,128", "--delta-frac", "0.25",
            "--strategies", "adaptive-monochrome",
            "--steps", "300", "--seeds", "1",
            "--out", str(out_csv), "--report-json", str(report),
        ]
    )
    assert rc == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert {r["algo"] for r in rows} == {"engine", "baseline"}
    assert {int(r["n"]) for r in rows} == {64, 128}
    data = json.loads(report.read_text())
    assert len(data["slopes"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("n=32\ndelta=8\nepsilon=0.25\nphase-len=16\n")
    report = tmp_path / "r.json"
    rc = main(
        [
            "run", "--config", str(cfg), "--steps", "100",
            "--seed", "1", "--report-json", str(report),
        ]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["snapshot"]["n"] == 32
    assert data["snapshot"]["delta"] == 8

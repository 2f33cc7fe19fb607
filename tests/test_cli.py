import csv
import json

import pytest

from dyncolor.cli import main
from dyncolor.trace import TraceFile


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


@pytest.mark.parametrize("mode", ["baseline", "full"])
def test_run_report_holds_one_record_per_closed_phase(tmp_path, mode):
    report = tmp_path / "report.json"
    rc = main(
        [
            "run", "--mode", mode,
            "--n", "32", "--delta", "8", "--steps", "50", "--phase-len", "8",
            "--report-json", str(report),
        ]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    phases = data["summary"]["phases"]
    metrics = data["snapshot"]["metrics"]
    # the baseline has no phases; the engine closes one every 8 updates
    assert len(phases) == metrics["phase_inits"] == (0 if mode == "baseline" else 6)
    assert [r["rebuild_work"] for r in phases] == metrics["init_work"]
    assert all(r["updates"] == 8 and r["phase_inits"] == 1 for r in phases)


def test_explicit_zero_sizes_are_not_replaced_by_defaults(tmp_path, capsys):
    for cmd in ("run", "verify"):
        capsys.readouterr()
        assert main([cmd, "--n", "0", "--steps", "5"]) == 2
        assert capsys.readouterr().err == "dyncolor: n must be positive\n"
    report = tmp_path / "report.json"
    rc = main(["run", "--n", "16", "--delta", "0", "--steps", "5", "--report-json", str(report)])
    assert rc == 0
    snap = json.loads(report.read_text())["snapshot"]
    assert (snap["n"], snap["delta"], snap["edges"]) == (16, 0, 0)


def test_explicit_zero_epsilon_is_not_replaced_by_the_default(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    for argv in (
        ["run", "--epsilon", "0", "--n", "16", "--steps", "5"],
        ["bench", "--epsilon", "0", "--sizes", "16", "--steps", "5", "--out", str(out)],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "dyncolor: epsilon must lie in (0, 1)\n"
    assert not out.exists()


def test_phase_len_zero_is_refused(capsys):
    # --phase-len 0 once ran quietly with phase length 1
    assert main(["run", "--phase-len", "0", "--n", "16", "--steps", "5"]) == 2
    assert capsys.readouterr().err == "dyncolor: phase_len_t must be at least 1\n"


def test_nu_zero_is_refused(capsys):
    # --nu 0 once ran quietly with a collapse limit of 1
    assert main(["run", "--nu", "0", "--n", "16", "--steps", "5"]) == 2
    assert capsys.readouterr().err == "dyncolor: nu must be positive\n"


def test_bench_without_epsilon_takes_the_paramset_default(tmp_path):
    # ParamSet alone keeps epsilon's default: no --epsilon runs the grid that
    # --epsilon 0.2 runs, row for row, apart from the wall-clock columns
    # (clique-churn at n = 32 charges different work at epsilon 0.1 or 0.3)
    tables = []
    for extra in ([], ["--epsilon", "0.2"]):
        out = tmp_path / f"bench{len(extra)}.csv"
        argv = ["bench", "--strategies", "clique-churn", "--sizes", "32,64", "--steps", "150",
                "--out", str(out)]
        assert main(argv + extra + ["--report-json", str(tmp_path / "r.json")]) == 0
        rows = csv.DictReader(out.open())
        clock = ("wall_s", "adversary_s")
        tables.append([{k: v for k, v in r.items() if k not in clock} for r in rows])
    assert len(tables[0]) == 4 and tables[0] == tables[1]


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


def test_replay_check_of_a_trace_without_colors_fails_with_one_line(tmp_path, capsys):
    # `run --trace-out` writes no '!' lines; the check once compared nothing
    # and reported no mismatch
    trace = tmp_path / "t.trace"
    argv = ["run", "--n", "32", "--delta", "8", "--steps", "20", "--trace-out", str(trace)]
    assert main(argv) == 0
    assert not any(line.startswith("!") for line in trace.read_text().splitlines())
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace), "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dyncolor: the trace records no colors to check ('!' lines)\n"
    assert main(["replay", "--trace", str(trace)]) == 0


def _recorded_trace(tmp_path):
    trace = tmp_path / "run.trace"
    rc = main(
        [
            "record",
            "--n", "24", "--delta", "6", "--steps", "30",
            "--seed", "1", "--phase-len", "16", "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    return trace


def test_replay_of_a_bad_header_fails_with_one_line(tmp_path, capsys):
    # a misspelt key: the library raises MalformedTrace, the CLI reports it
    trace = _recorded_trace(tmp_path)
    text = trace.read_text().replace("phase_len_t=16", "phase_len=5")
    assert "phase_len=5" in text
    trace.write_text(text)
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err == "dyncolor: trace header: unknown key 'phase_len'\n"


def test_verify_of_a_trace_with_an_illegal_update_fails_with_one_line(tmp_path, capsys):
    # the first update inserted again right after it, with its color line:
    # the replay raises DuplicateEdge, a GraphError
    trace = _recorded_trace(tmp_path)
    lines = trace.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("+"))
    _, u, v = lines[i].split()
    assert lines[i + 1].startswith("!")
    lines[i + 2:i + 2] = lines[i:i + 2]
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err == f"dyncolor: edge ({u},{v}) already present\n"


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


@pytest.mark.parametrize(
    "line,error",
    [
        ("epsilom=0.1", "unknown key 'epsilom'"),  # once dropped: the run took the default
        ("mode=auto", "unknown key 'mode'"),  # the mode comes from --mode only
        ("profile=desk", "unknown key 'profile'"),  # a setting no longer read
        ("epsilon 0.1", "'epsilon 0.1' is not key=value"),
    ],
    ids=["misspelt-key", "mode-key", "profile-key", "no-equals-sign"],
)
def test_config_file_refuses_what_the_cli_does_not_read(tmp_path, capsys, line, error):
    cfg = tmp_path / "conf"
    cfg.write_text(f"# a comment\nn=16\n{line}\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--steps", "5"]) == 2
    assert capsys.readouterr().err == f"dyncolor: --config {cfg}: {error}\n"


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


# (setting, value, trace header key)
SETTINGS = [
    ("n", "24", "n"),
    ("delta", "10", "delta"),
    ("epsilon", "0.25", "epsilon"),
    ("tau", "0.05", "tau"),
    ("nu", "0.1", "nu"),
    ("phase-len", "16", "phase_len_t"),
    ("samples", "8", "sample_count_k"),
    ("seed", "5", "seed"),
]


@pytest.mark.parametrize("name,value,key", SETTINGS, ids=[s[0] for s in SETTINGS])
def test_a_flag_and_a_config_line_give_the_same_run(tmp_path, name, value, key):
    def record(*argv):
        trace = tmp_path / "run.trace"
        rc = main(["record", "--steps", "3", "--trace-out", str(trace), *argv])
        assert rc == 0
        return TraceFile.load(trace)

    by_flag = record(f"--{name}", value)
    cfg = tmp_path / "conf"
    cfg.write_text(f"{name}={value}\n")
    by_file = record("--config", str(cfg))
    assert by_flag.header == by_file.header
    assert by_flag.header[key] == value
    assert (by_flag.updates, by_flag.outputs) == (by_file.updates, by_file.outputs)


def test_the_profile_flag_is_refused(capsys):
    # one rule derives every threshold, so no flag picks a profile
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", "desk", "--steps", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --profile desk" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["run", "record", "verify"])
def test_strategy_scripted_is_refused_on_the_command_line(tmp_path, capsys, cmd):
    # no flag supplies its updates: it only replays a trace's stream
    argv = [cmd, "--strategy", "scripted", "--steps", "3"]
    if cmd == "record":
        argv += ["--trace-out", str(tmp_path / "run.trace")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'scripted'" in capsys.readouterr().err


def test_bench_refuses_a_strategy_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr("dyncolor.bench.run_cell", lambda cell: ran.append(cell) or [])
    out = tmp_path / "bench.csv"
    argv = ["bench", "--strategies", "oblivious-random,scripted", "--sizes", "16", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "dyncolor: unknown strategy 'scripted'; expected one of "
        "adaptive-monochrome, oblivious-random, deletion-heavy, clique-churn\n"
    )
    assert ran == [] and not out.exists()


@pytest.mark.parametrize(
    "argv,error",
    [
        (["run", "--config", "{missing}", "--steps", "3"], "No such file or directory: '{missing}'"),
        (["replay", "--trace", "{missing}"], "No such file or directory: '{missing}'"),
        (["record", "--steps", "3", "--trace-out", "{dir}"], "Is a directory: '{dir}'"),
    ],
    ids=["config", "trace", "trace-out"],
)
def test_a_file_that_cannot_be_read_or_written_fails_with_one_line(tmp_path, capsys, argv, error):
    paths = {"missing": tmp_path / "missing", "dir": tmp_path}
    argv = [a.format(**paths) for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dyncolor: [Errno ") and err.endswith(error.format(**paths) + "\n")
    assert err.count("\n") == 1

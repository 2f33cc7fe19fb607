"""Command-line harness: run, bench, verify, record, replay."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as benchmod
from .adversary import GENERATORS
from .params import DESK, PAPER, ParamSet
from .runner import MODES, record_run, replay_trace
from .errors import DynColorError
from .trace import TraceFile
from .verify import verify


# every setting a flag or a --config line may give: its type, the ParamSet
# field it fills (none for the sizes) and any further argparse keywords
SETTINGS = {
    "n": (int, None, {}),
    "delta": (int, None, {}),
    "epsilon": (float, "epsilon", {}),
    "tau": (float, "tau", {}),
    "nu": (float, "nu", {}),
    "phase-len": (int, "phase_len_t", {}),
    "samples": (int, "sample_count_k", {"help": "friend-estimate sample count"}),
    "profile": (str, "profile", {"choices": [DESK, PAPER]}),
    "seed": (int, "seed", {}),
}


def _load_config(path: str | None) -> dict:
    """A config file's `key=value` lines; a key not in `SETTINGS` or a
    line without `=` raises `ValueError`, a blank or `#` line is skipped."""
    if not path:
        return {}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"--config {path}: {line!r} is not key=value")
            k, _, v = line.partition("=")
            k = k.strip()
            if k not in SETTINGS:
                raise ValueError(f"--config {path}: unknown key {k!r}")
            out[k] = v.strip()
    return out


def _settings(args) -> tuple[int, int, ParamSet]:
    """(n, delta, params), each setting from its flag, else the config file.

    n defaults to 256, delta to n // 2, and a `ParamSet` field nobody gave
    to `ParamSet`'s own default.  An explicit zero is kept, so the library
    rejects or runs it as given.
    """
    cfg = _load_config(args.config)
    given = {}
    for name, (cast, _, _) in SETTINGS.items():
        val = getattr(args, name.replace("-", "_"))
        if val is None and name in cfg:
            val = cast(cfg[name])
        if val is not None:
            given[name] = val
    n = given.pop("n", 256)
    delta = given.pop("delta", n // 2)
    return n, delta, ParamSet(**{SETTINGS[k][1]: v for k, v in given.items()})


def _add_common(p):
    for name, (cast, _, extra) in SETTINGS.items():
        p.add_argument(f"--{name}", type=cast, **extra)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--config", help="key=value file; flags override")
    p.add_argument("--strategy", choices=GENERATORS, default="oblivious-random")
    p.add_argument("--steps", type=int, default=1000)


def cmd_run(args) -> int:
    engine, trace, summary = record_run(*_settings(args), args.strategy, args.steps, mode=args.mode)
    if args.trace_out:
        if not args.record_colors:
            trace.outputs = None
        trace.save(args.trace_out)
    out = {"summary": summary, "snapshot": engine.snapshot()}
    if args.verify:
        rep = verify(engine, boundary=engine.updates_in_phase == 0)
        print(rep.format_lines(), file=sys.stderr)
        out["verify"] = rep.to_dict()
        out["verify_passed"] = rep.passed
    if args.load_csv:
        benchmod.write_load_histogram(args.load_csv, engine)
    _emit(out, args.report_json)
    return 0


def cmd_replay(args) -> int:
    trace = TraceFile.load(args.trace)
    engine, mismatches = replay_trace(trace, check=args.check)
    out = {
        "updates": len(trace.updates),
        "snapshot": engine.snapshot(),
        "mismatched_updates": mismatches,
    }
    _emit(out, args.report_json)
    return 1 if (args.check and mismatches) else 0


def cmd_verify(args) -> int:
    if args.trace:
        trace = TraceFile.load(args.trace)
        engine, _ = replay_trace(trace)
    else:
        engine, _, _ = record_run(*_settings(args), args.strategy, args.steps, mode=args.mode)
    rep = verify(engine, boundary=engine.updates_in_phase == 0)
    print(rep.format_lines())
    _emit({"verify": rep.to_dict(), "passed": rep.passed}, args.report_json)
    return 0 if rep.passed else 1


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    strategies = args.strategies.split(",")
    for strategy in strategies:
        if strategy not in GENERATORS:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {', '.join(GENERATORS)}"
            )
    cells = []
    for strategy in strategies:
        for n in sizes:
            for seed in range(args.seeds):
                cells.append(
                    {
                        "n": n,
                        "delta": max(1, int(n * args.delta_frac)),
                        "strategy": strategy,
                        "steps": args.steps,
                        "seed": seed,
                        "epsilon": args.epsilon,
                        "tau": args.tau,
                    }
                )
    rows = benchmod.run_grid(cells)
    benchmod.write_csv(args.out, rows)
    slopes = benchmod.slope_rows(rows)
    for s in slopes:
        print(f"{s['strategy']:>20} {s['algo']:>9} slope={s['slope']:.3f}")
    _emit({"rows": len(rows), "slopes": slopes}, args.report_json)
    return 0


def _emit(obj, path) -> None:
    text = json.dumps(obj, indent=2, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dyncolor")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run an adversary stream through the engine")
    _add_common(p)
    p.add_argument("--trace-out")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--load-csv")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_run, record_colors=False)

    p = sub.add_parser("record", help="run and save a trace with color outputs")
    _add_common(p)
    p.add_argument("--trace-out", required=True)
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_run, record_colors=True, verify=False, load_csv=None)

    p = sub.add_parser("replay", help="replay a trace deterministically")
    p.add_argument("--trace", required=True)
    p.add_argument("--check", action="store_true", help="diff recorded color deltas")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("verify", help="run (or replay) then verify everything")
    _add_common(p)
    p.add_argument("--trace")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="engine vs baseline over a grid")
    p.add_argument("--sizes", default="256,512,1024")
    p.add_argument("--delta-frac", type=float, default=0.5)
    p.add_argument("--strategies", default="adaptive-monochrome")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DynColorError, ValueError, OSError) as exc:
        # a bad trace, an illegal update, a refused setting or a file that
        # cannot be read or written is the input's fault: one line, no traceback
        print(f"dyncolor: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

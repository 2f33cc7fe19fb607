"""Command-line harness: run, bench, verify, record, replay."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as benchmod
from .engine import Engine
from .params import ParamSet
from .runner import MODES, record_run, replay_trace
from .adversary import STRATEGIES
from .trace import TraceFile
from .verify import at_boundary, verify


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, _, v = line.partition("=")
            out[k.strip()] = v.strip()
    return out


def _params_from(args, cfg: dict) -> ParamSet:
    def pick(name, cast, default=None):
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None:
            return val
        if name in cfg:
            return cast(cfg[name])
        return default

    eps = pick("epsilon", float, 0.2)
    return ParamSet(
        epsilon=eps,
        tau=pick("tau", float),
        nu=pick("nu", float),
        phase_len_t=pick("phase-len", int),
        sample_count_k=pick("samples", int),
        profile=pick("profile", str, "desk"),
        seed=pick("seed", int, 0),
    )


def _size_from(args, cfg: dict) -> tuple[int, int]:
    """(n, delta) from the flags, else the config file, else 256 and n // 2.

    An explicit zero is kept, so the library rejects or runs it as given.
    """
    n = args.n if args.n is not None else int(cfg.get("n", 256))
    delta = args.delta if args.delta is not None else int(cfg.get("delta", n // 2))
    return n, delta


def _add_common(p):
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--phase-len", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, help="friend-estimate sample count")
    p.add_argument("--profile", choices=["desk", "paper"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--config", help="key=value file; flags override")


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    params = _params_from(args, cfg)
    n, delta = _size_from(args, cfg)
    engine, trace, summary = record_run(
        n, delta, params, args.strategy, args.steps, mode=args.mode,
        branch_log=bool(args.branch_csv),
    )
    if args.trace_out:
        if not args.record_colors:
            trace.outputs = None
        trace.save(args.trace_out)
    out = {"summary": summary, "snapshot": engine.snapshot()}
    if args.verify:
        rep = verify(engine, boundary=at_boundary(engine))
        print(rep.format_lines(), file=sys.stderr)
        out["verify"] = rep.to_dict()
        out["verify_passed"] = rep.passed
    if args.load_csv:
        benchmod.write_load_histogram(args.load_csv, engine)
    # the baseline has no cliques and no match dispatches: header-only files
    dense = engine.dense if isinstance(engine, Engine) else None
    if args.clique_csv:
        benchmod.write_clique_rows(args.clique_csv, dense.clique_rows() if dense else [])
    if args.branch_csv:
        benchmod.write_branch_log(args.branch_csv, dense.branch_log if dense else [])
    _emit(out, args.report_json)
    return 0


def cmd_record(args) -> int:
    args.record_colors = True
    args.verify = False
    args.load_csv = None
    args.clique_csv = None
    args.branch_csv = None
    return cmd_run(args)


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
        cfg = _load_config(args.config)
        params = _params_from(args, cfg)
        n, delta = _size_from(args, cfg)
        engine, _, _ = record_run(n, delta, params, args.strategy, args.steps, mode=args.mode)
    rep = verify(engine, boundary=at_boundary(engine))
    print(rep.format_lines())
    _emit({"verify": rep.to_dict(), "passed": rep.passed}, args.report_json)
    return 0 if rep.passed else 1


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    strategies = args.strategies.split(",")
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
    rows = benchmod.run_grid(cells, workers=args.workers)
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
    p.add_argument("--strategy", choices=STRATEGIES, default="oblivious-random")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trace-out")
    p.add_argument("--record-colors", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--load-csv")
    p.add_argument("--clique-csv")
    p.add_argument("--branch-csv")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("record", help="run and save a trace with color outputs")
    _add_common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="oblivious-random")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trace-out", required=True)
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("replay", help="replay a trace deterministically")
    p.add_argument("--trace", required=True)
    p.add_argument("--check", action="store_true", help="diff recorded color deltas")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("verify", help="run (or replay) then verify everything")
    _add_common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="oblivious-random")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trace")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="engine vs baseline over a grid")
    p.add_argument("--sizes", default="256,512,1024")
    p.add_argument("--delta-frac", type=float, default=0.5)
    p.add_argument("--strategies", default="adaptive-monochrome")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

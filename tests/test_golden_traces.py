"""Bit-identity gate: committed traces must replay with zero color mismatches.

Each trace under tests/data/ carries the full ParamSet in its header and
the color deltas every update produced when it was recorded.  A change
that alters RNG consumption, the order of color events or any coloring
shows up here as a mismatch.  Next to each trace, `<name>.counters.json`
holds the final `Metrics.to_dict()` of the recording run, so a change
that charges work, samples or any other counter differently shows up
too.  Re-record only on purpose, with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import json
from pathlib import Path

import pytest

from dyncolor.adversary import make_adversary
from dyncolor.metrics import SCALARS
from dyncolor.params import ParamSet
from dyncolor.runner import build_engine, record_run, replay_trace, run_stream
from dyncolor.trace import TraceFile

DATA = Path(__file__).parent / "data"

# file stem -> (strategy, n, delta, steps, ParamSet keywords)
GOLDEN = {
    # nearly empty graph: sparse draws probe the (empty) adjacency side
    "deletion-heavy": ("deletion-heavy", 512, 32, 320, dict(seed=11)),
    # every insertion is monochromatic; degrees outgrow the color lists
    "adaptive-monochrome": ("adaptive-monochrome", 256, 128, 480, dict(seed=12)),
    # almost-cliques form, get matched and recolored, and dissolve
    "clique-churn": (
        "clique-churn", 96, 24, 1200,
        dict(epsilon=0.15, tau=0.05, sample_count_k=192, fire_threshold=4.0,
             phase_len_t=20, seed=13),
    ),
}


def _path(name):
    return DATA / f"{name}.trace"


def _counters_path(name):
    return DATA / f"{name}.counters.json"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_replays_bit_identically(name):
    trace = TraceFile.load(_path(name))
    strategy, n, delta, steps, _ = GOLDEN[name]
    assert trace.header["strategy"] == strategy
    assert len(trace.updates) == steps and trace.outputs is not None
    engine, mismatches = replay_trace(trace, check=True)
    assert mismatches == []
    assert engine.is_proper()
    assert engine.metrics.to_dict() == json.loads(_counters_path(name).read_text())
    if name == "clique-churn":
        assert engine.metrics.vertex_moves > 0 and engine.metrics.dense_recolorings > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_rerecords_byte_for_byte(name):
    # the recording run reproduces the committed file, header included: the
    # adversary's stream and the header fields are as stable as the replay
    strategy, n, delta, steps, kw = GOLDEN[name]
    _, trace, _ = record_run(n, delta, ParamSet(**kw), strategy, steps)
    assert trace.dumps() == _path(name).read_text()


@pytest.mark.parametrize("name,closed", [("clique-churn", 60), ("adaptive-monochrome", 30)])
def test_phase_records_add_up_to_the_run(name, closed):
    strategy, n, delta, steps, kw = GOLDEN[name]
    params = ParamSet(**kw)
    engine = build_engine(n, delta, params)
    m = engine.metrics
    start = {key: getattr(m, key) for key in SCALARS}
    adversary = make_adversary(strategy, n, delta, seed=params.seed + 1)
    phases = run_stream(engine, adversary, steps)["phases"]
    # both runs end on a boundary, so the records cover every update
    assert len(phases) == closed == m.phase_inits
    for key in SCALARS:
        assert sum(r[key] for r in phases) == getattr(m, key) - start[key], key
    assert [r["rebuild_work"] for r in phases] == m.init_work
    if name == "clique-churn":
        assert sum(r["match_large_calls"] for r in phases) > 0
        assert max(r["cliques"] for r in phases) >= 1


def record_all():
    DATA.mkdir(exist_ok=True)
    for name, (strategy, n, delta, steps, kw) in GOLDEN.items():
        engine, trace, _ = record_run(n, delta, ParamSet(**kw), strategy, steps)
        trace.save(_path(name))
        _counters_path(name).write_text(json.dumps(engine.metrics.to_dict(), indent=1) + "\n")


if __name__ == "__main__":
    record_all()

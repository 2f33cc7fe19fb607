from dataclasses import fields

import pytest

from dyncolor.baseline import TrivialBaseline
from dyncolor.errors import DuplicateEdge, DynColorError, MalformedTrace
from dyncolor.graph import EdgeUpdate, ins
from dyncolor.params import ParamSet
from dyncolor.runner import (
    params_from_header,
    params_to_header,
    record_run,
    replay_trace,
)
from dyncolor.trace import TraceFile


def test_empty_trace_roundtrip(tmp_path):
    t = TraceFile(header={"n": "8", "delta": "3"})
    p = tmp_path / "t.trace"
    t.save(p)
    back = TraceFile.load(p)
    assert back == t
    assert back.updates == []


def test_three_update_roundtrip(tmp_path):
    ups = [EdgeUpdate(0, 1, True), EdgeUpdate(1, 2, True), EdgeUpdate(0, 1, False)]
    t = TraceFile(header={"n": "4", "delta": "3", "seed": "1"}, updates=ups)
    p = tmp_path / "t.trace"
    t.save(p)
    back = TraceFile.load(p)
    assert back.updates == ups
    assert back.header == t.header
    # byte-exact second roundtrip
    assert back.dumps() == t.dumps()


@pytest.mark.parametrize(
    "text,frag",
    [
        ("+ 0\n", "expected"),
        ("+ a b\n", "non-integer"),
        ("n=4\nwhatever\n", "unparseable"),
        ("! 0:1\n", "before any update"),
        ("n=4\n+ 0 1\n! 0:x\n", "bad output token"),
        ("+ 0 1\n! 0:1\n! 1:2\n", "second output line"),
    ],
)
def test_malformed_traces(text, frag):
    with pytest.raises(MalformedTrace) as err:
        TraceFile.loads(text)
    assert frag in str(err.value)


@pytest.mark.parametrize("op", ["+x", "-+", "++"])
def test_garbled_update_op_is_rejected(op):
    # only the bare tokens + and - name an update; "+x" once replayed as a deletion
    with pytest.raises(MalformedTrace) as err:
        TraceFile.loads(f"n=4\n{op} 0 1\n")
    assert "expected" in str(err.value) and err.value.lineno == 2


def test_replay_determinism_same_seed():
    params = ParamSet(epsilon=0.2, seed=42, phase_len_t=16)
    _, trace1, _ = record_run(48, 12, params, "oblivious-random", 400)
    _, trace2, _ = record_run(48, 12, params, "oblivious-random", 400)
    assert trace1.dumps() == trace2.dumps()
    # replaying the recorded trace reproduces every color delta
    engine, mismatches = replay_trace(trace1, check=True)
    assert mismatches == []
    assert engine.is_proper()


def test_replay_final_coloring_identical():
    params = ParamSet(epsilon=0.2, seed=7, phase_len_t=16)
    engine1, trace, _ = record_run(40, 10, params, "adaptive-monochrome", 300)
    engine2, _ = replay_trace(trace)
    assert [engine1.color_of(v) for v in range(40)] == [
        engine2.color_of(v) for v in range(40)
    ]


@pytest.mark.parametrize("mode", ["full", "baseline"])
def test_replay_rejects_a_repeated_insertion(mode):
    # the replay hands each update to the engine once, unchecked; the
    # engine's graph rejects the repeat before it changes anything
    trace = TraceFile(
        header={"n": "8", "delta": "3", "mode": mode},
        updates=[ins(0, 1), ins(1, 2), ins(0, 1)],
    )
    with pytest.raises(DuplicateEdge):
        replay_trace(trace)


def test_baseline_trace_records_and_replays_color_deltas():
    params = ParamSet(epsilon=0.2, seed=3)
    base, trace, _ = record_run(40, 10, params, "adaptive-monochrome", 300, mode="baseline")
    assert isinstance(base, TrivialBaseline)
    recorded = sum(len(d) for d in trace.outputs)
    assert recorded > 0 and recorded == base.metrics.sparse_recolorings
    replayed, mismatches = replay_trace(TraceFile.loads(trace.dumps()), check=True)
    assert mismatches == []
    assert replayed.colors.of == base.colors.of


def test_check_of_a_trace_without_colors_is_refused():
    # with no '!' lines there is nothing to compare: the check once passed
    _, trace, _ = record_run(32, 8, ParamSet(seed=1, phase_len_t=16), "oblivious-random", 40)
    trace.outputs = None
    bare = TraceFile.loads(trace.dumps())
    assert bare.outputs is None and len(bare.updates) == 40
    with pytest.raises(DynColorError, match=r"^the trace records no colors to check \('!' lines\)$"):
        replay_trace(bare, check=True)
    engine, mismatches = replay_trace(bare)
    assert mismatches == [] and engine.metrics.updates == 40


def test_header_round_trips_every_param_field():
    # every field away from its default; the paper profile pins tau = eps / 3
    p = ParamSet(
        profile="paper", epsilon=0.05, tau=0.05 / 3, nu=0.3, phase_len_t=7,
        sample_count_k=33, cap_factor=9, fire_threshold=2.5, regime_frac=0.07, seed=11,
    )
    default = ParamSet()
    assert all(getattr(p, f.name) != getattr(default, f.name) for f in fields(ParamSet))
    hdr = params_to_header(p)
    assert list(hdr) == [f.name for f in fields(ParamSet)]
    assert params_from_header(hdr) == p
    # an unset field is written as "none" and read back unset
    assert params_to_header(default)["phase_len_t"] == "none"
    assert params_from_header(params_to_header(default)) == default


def _recorded_trace():
    _, trace, _ = record_run(32, 8, ParamSet(seed=1, phase_len_t=16), "oblivious-random", 40)
    return TraceFile.loads(trace.dumps())


def test_unknown_header_key_is_rejected():
    # a misspelt field once replayed silently with its default (phase length 16)
    trace = _recorded_trace()
    del trace.header["phase_len_t"]
    trace.header["phase_len"] = "5"
    with pytest.raises(MalformedTrace, match="^trace header: unknown key 'phase_len'$") as err:
        replay_trace(trace)
    assert err.value.lineno is None


@pytest.mark.parametrize(
    "key,raw",
    [
        ("epsilon", "abc"),  # does not parse
        ("phase_len_t", "2.5"),  # parses, but not as the field's int
        ("cap_factor", "none"),  # only an optional field may be unset
        ("epsilon", "2.0"),  # parses, but ParamSet refuses it
        ("tau", "0.0"),  # likewise: the sample count would divide by zero
        ("phase_len_t", "0"),  # likewise: a phase needs at least one update
        ("nu", "0.0"),  # likewise: it was read as a collapse limit of 1
        ("n", "12x"),
    ],
)
def test_bad_header_value_is_rejected(key, raw):
    trace = _recorded_trace()
    trace.header[key] = raw
    with pytest.raises(MalformedTrace, match=rf"^trace header: {key}\b"):
        replay_trace(trace)


@pytest.mark.parametrize("key", ["n", "delta"])
def test_missing_size_in_header_is_rejected(key):
    trace = _recorded_trace()
    del trace.header[key]
    with pytest.raises(MalformedTrace, match=f"^trace header: missing key '{key}'$"):
        replay_trace(trace)

import hashlib
from array import array

import pytest

from dyncolor.adversary import STRATEGIES, make_adversary
from dyncolor.baseline import TrivialBaseline
from dyncolor.errors import Exhausted
from dyncolor.graph import DynamicGraph, EdgeUpdate, ins
from dyncolor.runner import build_engine, run_stream

from conftest import make_engine, sweep_params


def test_all_strategies_emit_only_legal_updates():
    n, delta = 40, 10
    for kind in ("adaptive-monochrome", "oblivious-random", "deletion-heavy", "clique-churn"):
        adv = make_adversary(kind, n, delta, seed=3)
        base = TrivialBaseline(n, delta)
        validator = DynamicGraph(n, delta)
        view = base.coloring_view()
        for _ in range(300):
            upd = adv.next(view)
            validator.check_legal(upd)  # raises on an illegal emission
            validator.apply(upd)
            base.process(upd)


def test_scripted_adversary_and_exhaustion():
    ups = [ins(0, 1), ins(1, 2)]
    adv = make_adversary("scripted", 4, 3, updates=ups)
    assert adv.next(None) == ups[0]
    assert adv.next(None) == ups[1]
    with pytest.raises(Exhausted):
        adv.next(None)


def test_scripted_adversary_hands_out_an_illegal_update_unchecked():
    # it keeps no mirror graph: the engine that consumes the stream rejects
    # the repeat (see test_trace's replay test), so the stream is applied once
    ups = [ins(0, 1), ins(0, 1)]
    adv = make_adversary("scripted", 4, 3, updates=ups)
    assert [adv.next(None), adv.next(None)] == ups


def test_two_vertex_monochrome_edge_cases():
    # distinct colors and no deletable edge: the stream must end
    base = TrivialBaseline(2, 1)
    base.colors.set_sparse(1, 1)
    assert base.colors.of == [0, 1]
    adv = make_adversary("adaptive-monochrome", 2, 1, seed=1)
    with pytest.raises(Exhausted):
        adv.next(base.coloring_view())
    # same colors: the legal monochromatic insert is found
    base2 = TrivialBaseline(2, 1)
    adv2 = make_adversary("adaptive-monochrome", 2, 1, seed=1)
    upd = adv2.next(base2.coloring_view())
    assert upd.insert and {upd.u, upd.v} == {0, 1}


def test_monochrome_hit_rate_against_baseline():
    n, delta = 4096, 64
    base = TrivialBaseline(n, delta)
    adv = make_adversary("adaptive-monochrome", n, delta, seed=5)
    view = base.coloring_view()
    inserts = hits = 0
    for _ in range(2000):
        upd = adv.next(view)
        if upd.insert:
            inserts += 1
            if base.colors.of[upd.u] == base.colors.of[upd.v]:
                hits += 1
        base.process(upd)
    assert inserts > 0
    assert hits / inserts >= 0.90


def test_clique_churn_reaches_dense_side():
    engine = make_engine(48, 12, eps=0.2, k=192, fire=2, phase_len=16, strict=False)
    adv = make_adversary("clique-churn", 48, 12, seed=7, target_size=13)
    run_stream(engine, adv, 700)
    assert engine.metrics.vertex_moves > 0


def test_strategy_registry():
    assert set(STRATEGIES) == {
        "adaptive-monochrome",
        "oblivious-random",
        "deletion-heavy",
        "clique-churn",
        "scripted",
    }
    with pytest.raises(ValueError):
        make_adversary("bogus", 4, 2)


# sha256 of (u, v, insert) per update, recorded on the generator that
# rebuilt its inside-edge and hole lists over all target pairs every step
CHURN_STREAMS = [
    ((256, 128, 1000), {}, 10_000,
     "81fb2ee00b6ddd9152397164e084a93e0d82a3676b7a644c4c70bf9cce6b6aa8"),
    ((256, 128, 1000), {"target_size": 130}, 10_000,
     "1e106e29d0a1a09db3677297ea05133e191dbc665b082664b71f1337277748d5"),
    ((1024, 128, 1000), {}, 20_000,
     "39d004450efca838111d64b3333ad16d67630a6236003f6db1aacbd0b7961978"),
]


@pytest.mark.parametrize(
    "args, kw, steps, digest", CHURN_STREAMS, ids=["n256", "n256-target130", "n1024"]
)
def test_clique_churn_stream_is_unchanged(args, kw, steps, digest):
    adv = make_adversary("clique-churn", *args, **kw)
    flat = array("q")
    for _ in range(steps):
        upd = adv.next()
        flat.extend((upd.u, upd.v, upd.insert))
    assert hashlib.sha256(flat.tobytes()).hexdigest() == digest


# sha256 of (u, v, insert) per update of adaptive-monochrome against each
# algorithm (delta = n / 2, 2n steps).  The baseline's were recorded while
# the adversary read a tuple copy of the whole color class on every try;
# the engine's follow its phase-start pass, one ascending pass over the
# sparse side before the greedy stage
MONOCHROME_STREAMS = [
    ("full", 256, "a99bd9fcd09f95dc5737c0e4fba5062e1d99d1574cdb6bc6959e08dc82dcce27"),
    ("full", 4096, "8b5e2f3c8a86efb9c43acb789e77d2a1c2fb733ac54320a9f6fc250342e0cce3"),
    ("full", 32768, "f9fab34d32c80528ae53e501c0d88d4c8a97b75f0d68552143ed5b935c2a64c8"),
    ("baseline", 256, "f903819c1f361df49909e851a5a9a413a45d955b858beeeaafc1338dd565ad24"),
    ("baseline", 4096, "54fd37f22d4b651d863a90ebe3d5e8de06acee6d14b311162947335a8b2daf79"),
    ("baseline", 32768, "ce354b260521d869b3c8d3fbdb0e1877653daf864c65d5ed60dbbcdcd616a9de"),
]


@pytest.mark.parametrize(
    "mode, n, digest", MONOCHROME_STREAMS, ids=[f"{m}-n{n}" for m, n, _ in MONOCHROME_STREAMS]
)
def test_adaptive_monochrome_stream_is_unchanged(mode, n, digest):
    delta = n // 2
    algo = build_engine(n, delta, sweep_params(0, delta), mode)
    adv = make_adversary("adaptive-monochrome", n, delta, seed=1000)
    view = algo.coloring_view()
    flat = array("q")
    for _ in range(2 * n):
        upd = adv.next(view)
        algo.process(upd)
        flat.extend((upd.u, upd.v, upd.insert))
    assert hashlib.sha256(flat.tobytes()).hexdigest() == digest


# sha256 of (u, v, insert) per update of the two oblivious random
# strategies, recorded while the adversary sampled deletions from the
# engine-shaped mirror's own neighbor lists: one run at deletion-wide's
# scale (its seed-0 stream) and one small run whose graph saturates its
# degree cap, so about half its updates are deletions
RANDOM_STREAMS = [
    ("deletion-heavy", (8192, 256, 1000), 6400,
     "abe6d081d0bee7e118f557339c829db00e0182139e11209f0992e0a70cb5a574"),
    ("deletion-heavy", (64, 8, 3), 6000,
     "97ce8691fac4d0fbae89aa43afbe30a4e31faf619fcec269fc99358c066a100b"),
    ("oblivious-random", (8192, 256, 1000), 6400,
     "93f5bbc3e3bf48a86f9e67e14bdfa1eb28de2513f59e4aa29871d4b6440985e9"),
    ("oblivious-random", (64, 8, 3), 6000,
     "ca74ee898c6680551567e9d0276ea296cc034995ed77260c2403366c378a4193"),
]


@pytest.mark.parametrize(
    "kind, args, steps, digest", RANDOM_STREAMS,
    ids=[f"{kind}-n{args[0]}" for kind, args, _, _ in RANDOM_STREAMS],
)
def test_random_stream_is_unchanged(kind, args, steps, digest):
    adv = make_adversary(kind, *args)
    flat = array("q")
    deletions = 0
    for _ in range(steps):
        upd = adv.next()
        deletions += not upd.insert
        flat.extend((upd.u, upd.v, upd.insert))
    assert deletions >= steps // 4
    assert hashlib.sha256(flat.tobytes()).hexdigest() == digest

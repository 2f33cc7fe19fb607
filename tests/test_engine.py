import copy
import itertools
import random
from dataclasses import replace

import pytest

from dyncolor.baseline import TrivialBaseline
from dyncolor.colors import BLANK, ColorState
from dyncolor.engine import Engine, EngineConfig
from dyncolor.errors import BadEndpoints, DynColorError
from dyncolor.graph import dele, ins
from dyncolor.journal import PhaseJournal
from dyncolor.params import ParamSet, auto_epsilon, trivial_cutoff
from dyncolor.runner import build_engine, replay_trace, run_stream
from dyncolor.sampleset import EMPTY_MAP
from dyncolor.trace import TraceFile
from dyncolor.adversary import make_adversary
from dyncolor.verify import ProperWatch, palette_identity_gap, verify

from conftest import clique_edges, dense_fixture, harness, make_engine, sweep_params


def test_phase_counter_triggers_single_initialization():
    t = 12
    e = make_engine(32, 8, phase_len=t)
    adv = make_adversary("oblivious-random", 32, 8, seed=1)
    run_stream(e, adv, t)
    assert e.metrics.phase_inits == 1
    assert e.updates_in_phase == 0
    run_stream(e, adv, t - 1)
    assert e.metrics.phase_inits == 1
    run_stream(e, adv, 1)
    assert e.metrics.phase_inits == 2


def test_first_insert_recolors_only_on_collision():
    recolored = {}
    for seed in range(40):
        e = make_engine(16, 8, seed=seed, phase_len=10**9)
        u, v = 3, 7
        collide = e.color_of(u) == e.color_of(v)
        before = e.metrics.sparse_recolorings
        e.process(ins(u, v))
        recolored[seed] = e.metrics.sparse_recolorings - before
        assert recolored[seed] == (1 if collide else 0)
        assert e.is_proper()
    assert any(recolored.values()) and not all(recolored.values())


def test_random_trace_proper_after_every_update():
    e = make_engine(200, 50, seed=2, phase_len=64)
    adv = make_adversary("oblivious-random", 200, 50, seed=3)
    res = run_stream(e, adv, 2000, watch=True)
    assert res["watch_violations"] == []
    rep = verify(e, boundary=(e.updates_in_phase == 0))
    assert rep.passed, rep.failed_names()


def structural_snapshot(engine):
    dec = engine.decomp
    return (
        copy.deepcopy(dec.n_c),
        {
            cid: (
                set(c.members),
                copy.deepcopy(c.nonedges),
                c.nonedge_count,
                dict(c.partner),
            )
            for cid, c in dec.cliques.items()
        },
    )


def test_journal_revert_is_identity():
    delta = 14
    members = list(range(delta + 1))
    holes = [(0, 1), (2, 3)]
    engine, (c,) = dense_fixture(40, delta, [members], holes=holes, seed=8)
    before = structural_snapshot(engine)
    start_matching = dict(c.partner)
    assert start_matching.get(2) == 3
    # a fallback breaks a pair in-phase; no update of the phase records that
    engine.trivial_recolor(2)
    assert 2 not in c.partner and 3 not in c.partner
    engine.process(ins(0, 1))  # a same-clique insertion fills a non-edge
    engine.process(dele(4, 5))  # a same-clique deletion opens one
    rng = random.Random(4)
    vertices = list(range(40))
    done = 0
    while done < 60:
        u, v = rng.sample(vertices, 2)
        upd = ins(u, v) if not engine.graph.has_edge(u, v) else dele(u, v)
        if not engine.graph.is_legal(upd):
            continue
        engine.process(upd)
        done += 1
    assert dict(c.partner) != start_matching
    engine.journal.revert(engine.decomp, engine.phase_updates)
    assert structural_snapshot(engine) == before


def frozen_views(engine):
    """The graph's adjacency, `n_c`, and each clique's non-edge lists and matching."""
    dec = engine.decomp
    return (
        [set(a) for a in engine.graph.adj],
        [dict(nc) for nc in dec.n_c],
        {
            cid: ({m: set(s) for m, s in c.nonedges.items()}, dict(c.partner))
            for cid, c in dec.cliques.items()
        },
    )


class PinnedJournal(PhaseJournal):
    """Pins the frozen views after each rebuild; checks each rewind restores them."""

    __slots__ = ("engine", "pinned", "rewinds", "same_clique")

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.pinned = frozen_views(engine)
        self.rewinds = self.same_clique = 0

    def start(self, decomp):
        super().start(decomp)
        self.pinned = frozen_views(self.engine)

    def revert(self, decomp, updates):
        clique_of = decomp.clique_of
        self.same_clique += sum(
            clique_of[x.u] is not None and clique_of[x.u] == clique_of[x.v] for x in updates
        )
        super().revert(decomp, updates)
        assert frozen_views(self.engine) == self.pinned
        self.rewinds += 1


def test_rewind_restores_every_boundary_of_a_clique_churn_stream():
    # churn-dense at seed 0 forms an almost-clique near update 8000 and
    # loses it near 13000; the phases between rewind thousands of
    # same-clique updates and the n_c views of the clique's neighbors
    wl = harness.WORKLOADS["churn-dense"]
    engine = harness.new_engine(wl, 0)
    adversary = harness.new_adversary(wl, 0)
    engine.journal = journal = PinnedJournal(engine)
    for _ in range(14_000):
        engine.process(adversary.next())
    assert journal.rewinds == engine.metrics.phase_inits > 200
    assert journal.same_clique > 1000


def test_sparse_updates_journal_nothing():
    # without a clique no update has a neighbor view or matching to rewind
    e = make_engine(64, 8, seed=5, phase_len=10**9)
    adv = make_adversary("oblivious-random", 64, 8, seed=6)
    run_stream(e, adv, 300)
    assert not e.decomp.cliques and e.metrics.updates == 300
    assert all(nc is EMPTY_MAP for nc in e.decomp.n_c)


def test_nonedges_change_at_most_one_per_update_in_phase():
    delta = 14
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(40, delta, [members], holes=[(0, 1)], seed=9)
    rng = random.Random(11)
    prev = c.nonedge_count
    for _ in range(80):
        u, v = rng.sample(members, 2)
        upd = ins(u, v) if not engine.graph.has_edge(u, v) else dele(u, v)
        if not engine.graph.is_legal(upd):
            continue
        engine.process(upd)
        assert abs(c.nonedge_count - prev) <= 1
        prev = c.nonedge_count


def test_trivial_recolor_isolated_and_saturated():
    e = make_engine(12, 5, phase_len=10**9)
    e.colors.blank_all()
    assert e.trivial_recolor(0) == 0  # smallest color on an isolated vertex
    # saturate: v adjacent to colors 0..delta-1 forces the last color
    e2 = make_engine(12, 5, phase_len=10**9)
    e2.colors.blank_all()
    for i, leaf in enumerate(range(1, 6)):
        e2.graph.apply(ins(0, leaf))
        e2.decomp.note_edge(ins(0, leaf))
        e2.colors.set_sparse(leaf, i)
    assert e2.trivial_recolor(0) == 5


def test_trivial_recolor_dense_degraded_pick():
    # K_{delta+1} without the edge (0, 1), which the rebuild matches, plus a
    # sparse neighbor x of 0 on the clique's one unused color: the only color
    # no neighbor of 0 holds is the pair's, which the partner keeps
    delta = 8
    x = delta + 1
    engine, (c,) = dense_fixture(
        12, delta, [list(range(delta + 1))], holes=[(0, 1)], extra_edges=[(0, x)]
    )
    assert c.partner.get(0) == 1 and palette_identity_gap(c, engine.colors) == 0
    (free,) = c.book.A
    old = engine.colors.of[x]
    engine.colors.set_sparse(x, free)
    engine.dense.update_edge_counts(x, old, free)
    shared = engine.colors.of[1]
    m = engine.metrics
    before = (m.fallback_degraded, m.work)
    assert engine.trivial_recolor(0) == shared
    # counted once, for a pick inside book.usage; its private holder, the old
    # partner, pairs with 0 again on it
    assert (m.fallback_degraded, m.work) == (
        before[0] + 1, before[1] + engine.palette + delta,
    )
    assert c.partner.get(0) == 1 and c.partner.get(1) == 0
    assert c.book.an[shared] == (0, 1) and shared not in c.book.mp
    assert 0 not in c.book.big_l and 1 not in c.book.big_l
    assert palette_identity_gap(c, engine.colors) == 0
    rep = verify(engine, boundary=False)
    assert rep.passed, rep.failed_names()


def test_lowest_free_skips_held_and_avoided_colors():
    cs = ColorState(4, 4)
    for v, col in ((0, 0), (1, 2)):
        cs.set_sparse(v, col)
    assert cs.lowest_free([0, 1, 3]) == 1  # a blank vertex holds nothing
    assert cs.lowest_free([0, 1], avoid={1}) == 3
    assert cs.lowest_free([0, 1], avoid={1, 3}) is None
    assert cs.lowest_free([]) == 0


def test_baseline_greedy_clique_matches_simulation():
    delta = 8
    base = TrivialBaseline(delta + 1, delta)
    sim = [0] * (delta + 1)  # independent straight-line simulation
    adj = {v: set() for v in range(delta + 1)}
    for u, v in clique_edges(range(delta + 1)):
        base.process(ins(u, v))
        adj[u].add(v)
        adj[v].add(u)
        if sim[u] == sim[v]:
            used = {sim[w] for w in adj[v]}
            sim[v] = next(c for c in range(delta + 1) if c not in used)
    assert base.colors.of == sim
    assert base.is_proper()
    assert sorted(sim) == list(range(delta + 1))


def test_case2_monochromatic_insertion_on_matched_endpoint():
    delta = 12
    members = list(range(delta + 1))
    s = delta + 4
    engine, (c,) = dense_fixture(
        30, delta, [members], holes=[(0, 1)], seed=3
    )
    shared = engine.colors.of[0]
    # force the sparse outsider to the pair's color, then connect it to 0
    engine.colors.clear_sparse(s)
    engine.colors.set_sparse(s, shared)
    assert c.book.an.get(shared) is not None
    engine.process(ins(s, 0))
    new = engine.colors.of[0]
    assert new != shared
    assert engine.colors.of[1] == new  # endpoints recolored together
    assert shared not in c.book.an  # old color returned to the pair palette
    assert new in c.book.an
    assert engine.is_proper()
    assert palette_identity_gap(c, engine.colors) == 0


def test_case3_deletion_colors_new_pair_and_rematches_displaced():
    delta = 12
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(30, delta, [members], seed=6)
    assert c.matching_size() == 0
    u, v = 4, 9
    mp_before = dict(c.book.mp)
    engine.process(dele(u, v))
    assert c.partner.get(u) == v  # deletion created and matched the non-edge
    assert engine.colors.of[u] == engine.colors.of[v]
    shared = engine.colors.of[u]
    assert c.book.an.get(shared) is not None
    # had the shared color displaced a privately colored member, that member
    # must be recolored; in all cases everyone stays colored and proper
    assert all(engine.colors.of[m] != BLANK for m in c.members)
    assert engine.is_proper()
    assert palette_identity_gap(c, engine.colors) == 0
    displaced = mp_before.get(shared)
    if displaced is not None and displaced not in (u, v):
        assert engine.colors.of[displaced] != shared


def test_auto_mode_picks_baseline_or_full():
    n = 256
    low = int(trivial_cutoff(n)) - 5
    e = build_engine(n, low, ParamSet(), mode="auto")
    assert isinstance(e, TrivialBaseline)
    hi = int(trivial_cutoff(n)) + 5
    e2 = build_engine(n, hi, ParamSet(), mode="auto")
    assert isinstance(e2, Engine)
    assert abs(e2.params.epsilon - auto_epsilon(n, hi)) < 1e-12
    assert abs(e2.params.tau - e2.params.epsilon / 3.0) < 1e-12


def test_auto_mode_keeps_pinned_params():
    # auto retunes epsilon, and tau and nu with it, and keeps every other field
    n, delta = 64, 60
    assert delta > trivial_cutoff(n)
    eps = auto_epsilon(n, delta)
    pinned = ParamSet(sample_count_k=7, phase_len_t=5, fire_threshold=3.0, seed=4)
    e = build_engine(n, delta, pinned, mode="auto")
    assert (e.tracker.k, e.phase_len, e.tracker.fire_limit) == (7, 5, 3.0)
    assert e.params == replace(pinned, epsilon=eps, tau=eps / 3.0, nu=2.0 * eps / 3.0)
    # nothing pinned: the balanced epsilon with every other field at its default
    plain = build_engine(n, delta, ParamSet(seed=4), mode="auto")
    assert plain.params == ParamSet(epsilon=eps, tau=eps / 3.0, seed=4)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        build_engine(16, 4, ParamSet(), mode="bogus")
    # a trace header's mode goes through the same factory
    trace = TraceFile(header={"n": "16", "delta": "4", "mode": "bogus"})
    with pytest.raises(ValueError, match="bogus"):
        replay_trace(trace)


def test_watch_and_audits_run_on_the_baseline():
    base = TrivialBaseline(64, 16)
    adv = make_adversary("adaptive-monochrome", 64, 16, seed=2)
    audits = []  # each audit's failed check names

    def audit_every_100(engine, upd, i):
        if (i + 1) % 100 == 0:
            audits.append(verify(engine).failed_names())

    res = run_stream(base, adv, 500, watch=True, per_update=audit_every_100)
    assert res["watch_violations"] == []
    assert audits == [[]] * 5
    assert base.metrics.sparse_recolorings > 0
    assert base.colors.listeners == []
    # the watch sees the baseline's color events: a forced clash is caught
    watch = ProperWatch(base)
    u, v = next(base.graph.edges())
    base.colors.set_sparse(v, base.color_of(u))
    assert not watch.check(dele(u, v))
    assert watch.violations


def test_initialization_after_dense_phase_keeps_verifier_green():
    engine = make_engine(
        64, 16, eps=0.15, tau=0.05, k=192, fire=4, phase_len=40, strict=False
    )
    adv = make_adversary("clique-churn", 64, 16, seed=5, target_size=17)
    res = run_stream(engine, adv, 1200, watch=True)
    assert res["watch_violations"] == []
    # run to a boundary for the strict audit
    while engine.updates_in_phase != 0:
        engine.process(adv.next(None))
    rep = verify(engine)
    assert rep.passed, {n: rep.checks[n].violations[:3] for n in rep.failed_names()}


def test_snapshot_shape():
    engine = make_engine(32, 8, phase_len=16)
    adv = make_adversary("oblivious-random", 32, 8, seed=2)
    run_stream(engine, adv, 40)
    snap = engine.snapshot()
    assert snap["mode"] == "full"
    assert {"n", "delta", "edges", "metrics", "decomposition"} <= set(snap)


def test_rebuild_work_scales_with_clique_size():
    # from-scratch recoloring cost per clique member stays within a constant
    # band as the clique grows (counter regression, not wall clock)
    import conftest

    per_member = []
    for delta in (12, 24, 48):
        members = list(range(delta + 1))
        engine, (c,) = conftest.dense_fixture(4 * delta, delta, [members], seed=1)
        w0 = engine.metrics.work
        engine.rebuild_colors()
        per_member.append((engine.metrics.work - w0) / len(members))
    ratio = max(per_member) / min(per_member)
    assert ratio <= 6.0, per_member


def test_match_counts_its_branch():
    import conftest

    delta = 12
    engine, (c,) = conftest.dense_fixture(28, delta, [list(range(delta + 1))], seed=2)
    v = min(c.book.big_l)
    engine.dense.release_private(c, v)
    m = engine.metrics
    before = (m.random_match_calls, m.match_large_calls, m.match_small_calls)
    engine.dense.match(v)
    # a clique of delta + 1 members with an empty matching takes the large branch
    assert (m.random_match_calls, m.match_large_calls, m.match_small_calls) == (
        before[0], before[1] + 1, before[2]
    )


def test_zero_update_phase_still_recolors_everything():
    e = make_engine(24, 8, seed=5, phase_len=10**9)
    before = [e.color_of(v) for v in range(24)]
    assert e.phase_updates == []
    e.initialization()  # replay is a no-op, the full recolor still runs
    after = [e.color_of(v) for v in range(24)]
    assert all(c != -1 for c in after)
    assert e.metrics.phase_inits == e.snapshot()["phase_index"] == 1
    assert before != after  # fresh randomness recolored from scratch


def test_frozen_matching_regime_live_churn_stays_proper():
    # regime_frac 0 freezes any clique with a nonempty matching: insertions
    # may strand unmatched endpoints, which must be rerouted immediately
    import conftest

    delta = 14
    members = list(range(delta + 1))
    holes = [(0, 1), (2, 3), (4, 5)]
    engine, (c,) = conftest.dense_fixture(
        34, delta, [members], holes=holes, seed=12, regime_frac=0.0
    )
    assert c.large_regime
    import random as _r

    rng = _r.Random(3)
    for _ in range(120):
        u, v = rng.sample(members, 2)
        upd = ins(u, v) if not engine.graph.has_edge(u, v) else dele(u, v)
        if not engine.graph.is_legal(upd):
            continue
        engine.process(upd)
        assert engine.is_proper()
        assert palette_identity_gap(c, engine.colors) == 0
    assert engine.metrics.anchor_repairs == 0


def test_phase_boundary_hooks_fire_per_rebuild():
    # per-boundary export: collect a color-load histogram after each rebuild
    hists = []

    def at_boundary(eng, upd, i):
        if eng.updates_in_phase == 0:
            hists.append([len(s) for s in eng.colors.L])

    e = make_engine(32, 8, seed=3, phase_len=10)
    adv = make_adversary("oblivious-random", 32, 8, seed=4)
    run_stream(e, adv, 35, per_update=at_boundary)
    assert len(hists) == 3
    assert all(sum(h) == 32 for h in hists)


def test_blank_all_reports_cleared_entries_and_fires_in_vertex_order():
    cs = ColorState(6, 3)
    cs.set_sparse(4, 1)
    cs.set_dense(2, 0)
    cs.set_sparse(5, 1)
    events = []
    cs.listeners.append(lambda v, old, new: events.append((v, old, new)))
    assert cs.blank_all() == 3
    assert events == [(2, 0, BLANK), (4, 1, BLANK), (5, 1, BLANK)]
    assert cs.of == [BLANK] * 6
    assert not any(len(s) for s in cs.L + cs.L_D)
    # the listener-free path blanks in place
    cs.listeners.clear()
    of = cs.of
    cs.set_sparse(0, 2)
    assert cs.blank_all() == 1
    assert cs.of is of and of == [BLANK] * 6
    assert cs.blank_all() == 0


@pytest.mark.parametrize(
    "strategy, n, delta", [("adaptive-monochrome", 256, 128), ("deletion-heavy", 512, 32)]
)
def test_clique_free_runs_leave_every_neighbor_view_and_dense_class_empty(strategy, n, delta):
    # the sparse-sparse dispatch skips the dense hooks while no clique
    # exists, and the replay skips `note_edge`: exact only while these hold
    e = make_engine(n, delta, phase_len=40, k=12, fire=8)
    adv = make_adversary(strategy, n, delta, seed=3)
    view = e.coloring_view() if adv.adaptive else None
    for _ in range(400):
        e.process(adv.next(view))
        assert not e.decomp.cliques
        assert not any(e.decomp.n_c)
        assert not any(e.colors.L_D)
    assert e.metrics.phase_inits == 10
    assert e.metrics.sparse_recolorings > 0


def test_monochromatic_sparse_insertion_next_to_a_clique_shifts_its_counters():
    delta = 12
    members = list(range(delta + 1))
    v, u = delta + 3, delta + 9  # v neighbors members 0-2; u is isolated
    holes = [(0, 3), (1, 4), (2, 5)]  # degree slack for the external edges
    engine, (c,) = dense_fixture(
        30, delta, [members], holes=holes, extra_edges=[(v, 0), (v, 1), (v, 2)]
    )
    colors = engine.colors
    old = colors.of[v]
    colors.clear_sparse(u)
    colors.set_sparse(u, old)
    before = dict(c.book.t_c)
    assert before[old] >= 3
    engine.process(ins(u, v))
    new = colors.of[v]
    assert new != old and engine.metrics.sparse_recolorings == 1
    assert c.book.t_c.get(old, 0) == before[old] - 3
    assert c.book.t_c.get(new, 0) == before.get(new, 0) + 3
    assert verify(engine, boundary=False).checks["edge_counters"].passed


@pytest.mark.parametrize("kind", ["engine", "baseline"])
@pytest.mark.parametrize("pair", [(3, 3), (-1, 2), (2, 16)], ids=["loop", "negative", "n"])
def test_bad_endpoints_raise_a_library_error_and_change_nothing(kind, pair):
    n = 16
    e = make_engine(n, 4, seed=1) if kind == "engine" else TrivialBaseline(n, 4)
    e.process(ins(0, 1))
    metrics, colors = e.metrics.to_dict(), list(e.colors.of)
    for upd in (ins(*pair), dele(*pair)):
        with pytest.raises(DynColorError) as info:
            e.process(upd)
        assert isinstance(info.value, BadEndpoints) and isinstance(info.value, ValueError)
        assert info.value.pair == pair
    assert e.metrics.to_dict() == metrics and list(e.colors.of) == colors


@pytest.mark.parametrize(
    "strategy,n,delta,updates",
    [("deletion-heavy", 600, 32, 1500), ("clique-churn", 512, 64, 2500)],
)
def test_phase_boundary_places_the_graphs_own_vertex_ids(strategy, n, delta, updates):
    # CPython caches the ints up to 256 only, so with n > 256 an id that a
    # pass counts afresh is a new object.  After every rebuild each sparse
    # occupant of L(c) must be the graph's own id object; the clique-churn
    # run forms a clique, so the filtered branch of `color_sparse` runs too
    engine = Engine(n, delta, EngineConfig(params=sweep_params(0, delta)))
    adv = make_adversary(strategy, n, delta, seed=1)
    vertices = engine.graph.vertices
    boundaries = with_clique = 0

    def own_ids(e):
        return all(v is vertices[v] for lst in e.colors.L for v in lst)

    assert own_ids(engine)
    for _ in range(updates):
        engine.process(adv.next(None))
        if engine.updates_in_phase == 0:
            boundaries += 1
            with_clique += bool(engine.decomp.cliques)
            assert own_ids(engine)
    assert boundaries >= 10
    assert (with_clique > 0) == (strategy == "clique-churn")
    assert vertices == list(range(n))


@pytest.mark.parametrize("adversary_seed,largest", [(10, 20), (24, 22)])
def test_a_clique_past_delta_plus_one_keeps_the_coloring_proper(adversary_seed, largest):
    # with one friend sample per pair (k = 1), a valid setting, the
    # decomposition grows an almost-clique of more members than the palette
    # has colors (delta + 1), so members must share colors; properness must
    # still hold after every update.  At k = 1 a pair's verdict is drawn
    # once from its common-neighbor count, read off the tracker's masks
    # where both degrees are at least 2.  `verify`'s structural audit fails
    # on these runs (a member far below its inside-degree floor), which
    # this test does not pin
    n, delta = 64, 16
    engine = Engine(n, delta, EngineConfig(params=ParamSet(seed=1, sample_count_k=1)))
    adv = make_adversary("clique-churn", n, delta, seed=adversary_seed)
    sizes = []
    res = run_stream(
        engine, adv, 400, watch=True,
        per_update=lambda e, upd, i: sizes.extend(
            len(c.members) for c in e.decomp.cliques.values()
        ),
    )
    assert res["steps"] == 400
    assert max(sizes) == largest > delta + 1
    assert res["watch_violations"] == []
    of = engine.colors.of
    assert all(of[u] != of[v] for u, v in engine.graph.edges())

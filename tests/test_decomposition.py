import random

import pytest

from dyncolor.adversary import make_adversary
from dyncolor.colors import ColorState
from dyncolor.decomposition import Decomposition
from dyncolor.dense_color import DenseColoring
from dyncolor.friends import FriendTracker
from dyncolor.graph import DynamicGraph, dele, ins
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet
from dyncolor.runner import run_stream
from dyncolor.verify import Finding, invariant_findings, partition_violations

from conftest import (
    STRICT_METRICS,
    add_edges,
    clique_edges,
    dense_fixture,
    install_clique,
    make_engine,
    oracle_fill_tracker,
)


def standalone(n, delta, eps=0.2, tau=None, k=256, fire=1, nu=None, seed=0, strict=True):
    params = ParamSet(
        epsilon=eps, tau=tau, nu=nu, sample_count_k=k, fire_threshold=fire, seed=seed
    )
    g = DynamicGraph(n, delta)
    metrics = Metrics()
    tracker = FriendTracker(g, params, random.Random(seed), metrics)
    dec = Decomposition(g, tracker, params, metrics)
    if strict:
        STRICT_METRICS.append(metrics)
    dense = DenseColoring(g, dec, ColorState(n, delta + 1), params, tracker.rng, metrics)

    def drive(upd):
        """Apply one update and run it through the decomposition, as the replay does.

        Returns what the update changed, read off `clique_of` and the clique
        ids: the vertices that became dense, the vertices that became
        sparse, and the cliques that collapsed.
        """
        of0, ids0 = list(dec.clique_of), set(dec.cliques)
        g.apply(upd)
        dec.update_decomposition(upd, dense.maintain_matching)
        of1 = dec.clique_of
        to_dense = [w for w in range(n) if of0[w] is None and of1[w] is not None]
        to_sparse = [w for w in range(n) if of0[w] is not None and of1[w] is None]
        return to_dense, to_sparse, sorted(ids0 - set(dec.cliques))

    return g, tracker, dec, drive


def test_sparse_insertion_changes_nothing():
    g, _, dec, drive = standalone(16, 8)
    assert drive(ins(0, 1)) == ([], [], [])
    assert dec.clique_of[0] is None and dec.clique_of[1] is None
    assert not dec.n_c[0] and not dec.n_c[1]
    assert partition_violations(dec) == []


def test_incremental_clique_build_first_dense_move():
    # grow a clique edge by edge; the first dense move must produce exactly
    # {v} union N_1(v) for the vertex v that entered the strict scale
    delta = 16
    g, tracker, dec, drive = standalone(24, delta, eps=0.2, tau=0.2 / 3, k=512)
    moved = None
    for u, v in clique_edges(range(delta + 1)):
        moved, _, _ = drive(ins(u, v))
        if moved:
            break
    assert moved, "no dense move while building a full clique"
    founders = [
        w for w in moved
        if tracker.in_v1(w) and {w} | set(tracker.n1[w]) == set(moved)
    ]
    assert founders
    cid = dec.clique_of[founders[0]]
    assert dec.cliques[cid].members == set(moved)
    assert partition_violations(dec) == []


def test_deletions_trigger_sparse_move_and_sigma():
    delta = 16
    g, tracker, dec, drive = standalone(24, delta, eps=0.2, tau=0.2 / 3, k=512, nu=0.9)
    for u, v in clique_edges(range(delta + 1)):
        drive(ins(u, v))
    assert dec.cliques, "clique should exist after the build"
    cid = next(iter(dec.cliques))
    sigma0 = dec.cliques[cid].sigma
    victim = max(dec.cliques[cid].members)
    moves = []
    for u in sorted(g.adj[victim]):
        moves += drive(dele(victim, u))[1]
        if victim in moves:
            break
    assert victim in moves
    assert dec.cliques[cid].sigma > sigma0
    assert partition_violations(dec) == []


def test_dense_move_type2_new_clique():
    delta = 12
    engine = make_engine(32, delta, eps=0.25, k=256, phase_len=10**9)
    add_edges(engine.graph, clique_edges(range(delta + 1)))
    oracle_fill_tracker(engine)
    dec = engine.decomp
    v = 0
    movers = dec.dense_move(v)
    cid = dec.clique_of[v]
    assert len(dec.cliques[cid].members) == 1 + len(engine.tracker.n1[v])
    assert movers[0] == v
    assert partition_violations(dec) == []


def test_dense_move_type1_joins_friends_clique():
    delta = 16
    eps = 0.25
    members = list(range(15))  # K_15, members keep two slots for v and w
    v, w = 20, 21
    shared = members[:13]
    extra = [(v, m) for m in shared] + [(w, m) for m in shared] + [(v, w)]
    engine, (c,) = dense_fixture(
        32, delta, [members], extra_edges=extra, eps=eps, k=256
    )
    dec = engine.decomp
    oracle_fill_tracker(engine)
    assert dec.clique_of[v] is None and dec.clique_of[w] is None
    assert engine.tracker.in_v1(v)
    size0 = len(c.members)
    movers = dec.dense_move(v)
    assert dec.clique_of[v] == c.id and dec.clique_of[w] == c.id
    assert len(c.members) == size0 + len(movers)
    assert w in movers  # sparse close friend rides along
    assert partition_violations(dec) == []


def test_dense_move_friends_in_one_clique_fuzz():
    # with conservative scale parameters, the dense friends of any mover
    # must always sit in a single clique; a strict run fails otherwise
    delta = 16
    for seed in range(6):
        g, tracker, dec, drive = standalone(
            48, delta, eps=0.09, tau=0.03, k=512, nu=0.05, seed=seed, strict=True
        )
        rng = random.Random(seed + 100)
        target = rng.sample(range(48), delta + 1)
        pairs = clique_edges(target)
        rng.shuffle(pairs)
        for u, v in pairs:
            if g.degree(u) < delta and g.degree(v) < delta and not g.has_edge(u, v):
                drive(ins(u, v))
        for _ in range(60):
            u = rng.choice(target)
            if g.degree(u):
                v = rng.choice(list(g.adj[u]))
                drive(dele(u, v))
        assert dec.metrics.estimator_gap_events == 0


def test_sparse_move_without_nonedges():
    delta = 12
    engine, (c,) = dense_fixture(24, delta, [list(range(delta + 1))], eps=0.25, k=128)
    dec = engine.decomp
    v = min(c.members)
    others = sorted(c.members - {v})
    nc_before = {u: dec.n_c[u][c.id] for u in others}
    assert not c.nonedges[v]
    dec.sparse_move(v)
    assert dec.clique_of[v] is None
    assert v not in c.members
    for u in others:
        assert dec.n_c[u][c.id] == nc_before[u] - 1
    assert partition_violations(dec) == []


def test_sparse_move_clears_nonedges():
    delta = 12
    members = list(range(delta + 1))
    holes = [(0, 1), (0, 2), (0, 3)]
    engine, (c,) = dense_fixture(24, delta, [members], holes=holes, eps=0.25, k=128)
    dec = engine.decomp
    assert c.nonedges[0] == {1, 2, 3}
    count0 = c.nonedge_count
    dec.sparse_move(0)
    assert c.nonedge_count == count0 - 3
    for u in (1, 2, 3):
        assert 0 not in c.nonedges[u]
    assert partition_violations(dec) == []


def test_check_invariants_empty_graph():
    _, _, dec, _ = standalone(8, 4)
    assert invariant_findings(dec) == []


def test_check_invariants_corrupted_pointer():
    delta = 12
    engine, (c,) = dense_fixture(24, delta, [list(range(delta + 1))], eps=0.25, k=128)
    dec = engine.decomp
    # orphan a member: it now looks like a sparse vertex of a dense clique
    victim = min(c.members)
    dec.clique_of[victim] = None
    report = invariant_findings(dec)
    finding = Finding("Density", victim, None, f"sparse vertex {victim} looks scale-1 dense")
    assert report == [finding]
    assert str(finding) == f"Density: sparse vertex {victim} looks scale-1 dense"
    assert partition_violations(dec) != []


def test_full_trace_sweep_invariants_and_exact_nonedges():
    # long churny run: exact structures, invariants at boundaries, and the
    # non-edge adjustment counter within the coarse 1/eps^4 budget
    engine = make_engine(
        64, 16, eps=0.15, tau=0.05, k=192, fire=4, phase_len=20, strict=False
    )
    from dyncolor.adversary import make_adversary
    from dyncolor.runner import run_stream

    adv = make_adversary("clique-churn", 64, 16, seed=3, target_size=17, erode_frac=0.5)
    audit_fail = []

    def per_update(e, upd, i):
        if e.updates_in_phase == 0:  # phase boundary just passed
            bad = partition_violations(e.decomp)
            if bad:
                audit_fail.append((i, bad[:2]))

    res = run_stream(engine, adv, 2500, per_update=per_update)
    assert res["steps"] == 2500
    assert audit_fail == []
    assert partition_violations(engine.decomp) == []
    eps = engine.params.epsilon
    per_upd = engine.metrics.nonedge_adjustments / res["steps"]
    assert per_upd <= 4.0 / eps**4
    if engine.updates_in_phase == 0:
        assert invariant_findings(engine.decomp) == []


def test_nonedge_degree_bound():
    delta = 16
    engine, (c,) = dense_fixture(
        32, delta, [list(range(delta + 1))],
        holes=[(0, v) for v in (1, 2, 3, 4)],
        eps=0.25, k=128,
    )
    c3 = engine.params.c3
    for v in c.members:
        assert len(c.nonedges[v]) <= 3 * c3 * delta


def test_dense_moves_read_the_current_friend_lists():
    # V_1 is written only when a vertex itself is refreshed, while its N_1
    # list also shrinks when a neighbor's refresh or a deletion drops a
    # pair.  On this churn stream the set still held a vertex with too few
    # scale-1 friends at two of the replay's dense moves, which founded
    # cliques below the size floor; every move must find its vertex dense
    # by the list as it stands
    engine = make_engine(
        64, 16, eps=0.15, tau=0.05, k=192, fire=4, phase_len=24,
        strict=False, seed=2, regime_frac=1.0,
    )
    adv = make_adversary("clique-churn", 64, 16, seed=52, target_size=17, erode_frac=0.5)
    dec, tracker = engine.decomp, engine.tracker
    moves = []
    real = dec.dense_move

    def spy(v):
        moves.append(tracker.in_v1(v))
        return real(v)

    dec.dense_move = spy
    run_stream(engine, adv, 3000)
    assert moves and all(moves)


def test_sparse_move_reads_the_current_scale_3_list():
    # member 0 refreshes first in the update and finds all its friends; the
    # members refreshed after it judge their pair with 0 false, so when the
    # density test runs, 0's N_3 list is below the V_3 floor while its scale-3
    # friends inside the clique still clear the friendship floor
    delta, m = 20, 17
    g, tracker, dec, drive = standalone(24, delta, eps=0.2, tau=0.2 / 3, nu=0.9)
    add_edges(g, clique_edges(range(m)))
    drop = set()

    def scripted(v, us):
        return [0 if (v, u) in drop else tracker.k for u in us]

    tracker._counts = scripted
    for v in range(m):
        tracker.update_vertex(v)
    assert tracker.in_v1(0)
    c = dec.clique(dec.dense_move(0)[0])
    assert c.members == set(range(m))
    later = range(1, 9)
    drop.update((z, 0) for z in later)
    assert 7 < tracker._dense_thr[1] <= 8 and 6 < dec.friend_floor < 7
    assert drive(dele(0, m - 1))[1] == [0]  # refreshes 0, 16, then 1..15
    assert len(tracker.n3[0]) == 7 and not tracker.in_v3(0)
    assert c.sigma == 1 and dec.clique_of[0] is None
    assert partition_violations(dec) == []


def test_sparse_move_counts_only_scale_3_friends_inside_the_clique():
    # member 0 stays in V_3 through two scale-3 friends outside its clique,
    # but a deletion's refresh leaves it exactly friend_floor friends inside:
    # friendship fails at equality, so 0 must sparse-move
    delta, m = 16, 15
    g, tracker, dec, drive = standalone(24, delta, eps=0.125, tau=0.125, nu=0.9)
    outside = (15, 16)
    add_edges(g, clique_edges(range(m)) + [(0, x) for x in outside])
    k = tracker.k
    scale_3_only = k * 3 // 4  # clears the scale-3 threshold, not the scale-1 one
    drop = set()

    def scripted(v, us):
        return [
            0 if (v, u) in drop else scale_3_only if max(u, v) >= m else k for u in us
        ]

    tracker._counts = scripted
    for v in range(m + len(outside)):
        tracker.update_vertex(v)
    c = dec.clique(dec.dense_move(0)[0])
    assert c.members == set(range(m))
    assert dec.friend_floor == 8.0 and tracker._dense_thr[1] == 10.0
    drop.update(p for z in range(1, 6) for p in ((0, z), (z, 0)))
    assert drive(dele(0, m - 1))[1] == [0]  # refreshes 0 first
    assert sorted(tracker.n3[0]) == list(range(6, m - 1)) + [15, 16]
    assert tracker.in_v3(0)
    assert c.sigma == 1 and dec.clique_of[0] is None
    assert partition_violations(dec) == []


def test_clique_collapse_and_refounding():
    # small collapse fraction: enough sparse moves dissolve the clique, and
    # still-dense members re-enter through fresh dense moves
    delta = 16
    g, tracker, dec, drive = standalone(24, delta, eps=0.2, tau=0.2 / 3, k=512, nu=0.12)
    for u, v in clique_edges(range(delta + 1)):
        drive(ins(u, v))
    assert dec.cliques
    collapsed = []
    rng = random.Random(2)
    victims = sorted(next(iter(dec.cliques.values())).members)[-3:]
    for victim in victims:
        for u in sorted(g.adj[victim]):
            if not g.has_edge(victim, u):
                continue
            collapsed += drive(dele(victim, u))[2]
            if collapsed:
                break
        if collapsed:
            break
    assert collapsed, "no collapse despite the tiny threshold"
    assert partition_violations(dec) == []

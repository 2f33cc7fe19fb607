"""Fault-injection coverage: every verifier check has a corruption that trips it."""

import pytest

from dyncolor.colors import BLANK
from dyncolor.graph import dele, ins
from dyncolor.runner import run_stream
from dyncolor.adversary import make_adversary
from dyncolor.baseline import TrivialBaseline
from dyncolor.verify import ProperWatch, verify

from conftest import dense_fixture, friend_set, make_engine, oracle_fill_tracker, install_clique


def fresh_dense(seed=3, **kw):
    delta = kw.pop("delta", 12)
    members = list(range(delta + 1))
    holes = kw.pop("holes", [(0, 1), (2, 3)])
    return dense_fixture(30, delta, [members], holes=holes, seed=seed, **kw)


def test_fresh_engine_all_pass():
    e = make_engine(24, 8, phase_len=10**9)
    rep = verify(e)
    assert rep.passed, rep.failed_names()


def test_verifier_is_pure():
    engine, _ = fresh_dense()
    a = verify(engine).to_dict()
    b = verify(engine).to_dict()
    assert a == b


def test_fault_properness_names_the_edge():
    engine = make_engine(24, 8, phase_len=10**9)
    engine.process(ins(0, 1))
    # recolor 1 onto 0's color through the legitimate mutators so only
    # properness can fail
    old = engine.colors.of[1]
    engine.colors.clear_sparse(1)
    engine.colors.set_sparse(1, engine.colors.of[0])
    engine.dense.update_edge_counts(1, old, engine.colors.of[0])
    rep = verify(engine)
    assert rep.failed_names() == ["properness"]
    assert any("(0,1)" in v or "(1,0)" in v for v in rep.checks["properness"].violations)


def test_fault_properness_on_the_baseline():
    base = TrivialBaseline(8, 3)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        base.process(ins(u, v))
    rep = verify(base)
    assert rep.passed and list(rep.checks) == ["properness"]
    base.colors.set_sparse(2, base.color_of(1))
    rep = verify(base)
    assert rep.failed_names() == ["properness"]
    assert any("(1,2)" in v for v in rep.checks["properness"].violations)


def small_sparse_engine():
    engine = make_engine(24, 8, phase_len=10**9)
    for u, v in ((0, 1), (0, 2), (3, 4)):
        engine.process(ins(u, v))
    return engine


def test_fault_graph_structure_degree():
    engine = small_sparse_engine()
    engine.graph.deg[0] += 1  # adj[0] still holds two neighbors
    rep = verify(engine)
    assert "graph_structure" in rep.failed_names()
    assert rep.checks["graph_structure"].violations == ["deg[0] = 3, but adj[0] holds 2"]


def test_fault_graph_structure_one_sided_edge():
    # adj[1] loses 0 through the SampleSet itself, and deg[1] follows it,
    # so only the symmetry and the edge count can tell
    engine = small_sparse_engine()
    g = engine.graph
    g.adj[1].discard(0)
    g.deg[1] -= 1
    rep = verify(engine)
    assert "graph_structure" in rep.failed_names()
    assert rep.checks["graph_structure"].violations == [
        "edge (0,1) is missing from adj[1]",
        "edge_count = 3, but the degrees sum to 5",
    ]


def test_fault_graph_structure_position_index():
    engine = small_sparse_engine()
    pos = engine.graph.adj[0]._pos
    pos[1], pos[2] = pos[2], pos[1]
    rep = verify(engine)
    assert rep.failed_names() == ["graph_structure"]
    assert rep.checks["graph_structure"].violations == [
        "adj[0]'s position index does not index its items"
    ]


def test_fault_partition_structures():
    engine, (c,) = fresh_dense()
    assert not engine.graph.has_edge(0, 1)
    engine.decomp.n_c[0][c.id].add(1)  # a non-neighbor listed as a dense neighbor
    rep = verify(engine)
    assert "partition_structures" in rep.failed_names()
    assert "n_c mismatch at 0" in rep.checks["partition_structures"].violations


def test_fault_occupancy_lists():
    engine, (c,) = fresh_dense()
    v = next(iter(c.members))
    engine.colors.L_D[engine.colors.of[v]].remove(v)
    rep = verify(engine)
    assert "occupancy_lists" in rep.failed_names()


def test_fault_occupancy_listed_twice():
    # a vertex listed a second time in its own class, at the end
    engine, _ = fresh_dense()
    cs = engine.colors
    c, lst = next((c, lst) for c, lst in enumerate(cs.L) if lst)
    v = lst[0]
    lst.append(v)
    rep = verify(engine)
    assert rep.failed_names() == ["occupancy_lists"]
    assert rep.checks["occupancy_lists"].violations == [f"L[{c}] lists {v} again"]


def test_fault_occupancy_wrong_color():
    # a sparse vertex moved into another color's class, its color unchanged
    engine, _ = fresh_dense()
    cs = engine.colors
    c, lst = next((c, lst) for c, lst in enumerate(cs.L) if lst)
    v = lst[-1]
    other = (c + 1) % engine.palette
    lst.pop()
    cs.L[other].append(v)
    rep = verify(engine)
    assert rep.failed_names() == ["occupancy_lists"]
    assert rep.checks["occupancy_lists"].violations == [f"L[{other}] holds {v}, whose color is {c}"]


def test_fault_occupancy_wrong_side():
    # a dense member moved from L_D(c) into L(c): its color still matches
    engine, (c,) = fresh_dense()
    cs = engine.colors
    v = min(c.book.mp.values())
    col = cs.of[v]
    cs.L_D[col].remove(v)
    cs.L[col].append(v)
    rep = verify(engine)
    assert rep.failed_names() == ["occupancy_lists"]
    assert rep.checks["occupancy_lists"].violations == [
        f"L[{col}] holds {v}, which is on the other side"
    ]


def test_fault_color_book_usage():
    engine, (c,) = fresh_dense()
    c.book.usage.setdefault(0, set()).add(99)
    rep = verify(engine)
    assert "color_book" in rep.failed_names()


def test_fault_palette_identity():
    engine, (c,) = fresh_dense()
    if len(c.book.A):
        c.book.A.discard(next(iter(c.book.A)))
    else:
        c.book.A.add(0)
    rep = verify(engine)
    assert "palette_identity" in rep.failed_names()


def test_fault_palette_identity_counts_blank_members_from_the_coloring():
    # a private member blanked in the coloring alone: the identity's blank
    # big-L count is read off the colors, so |A| now looks one too small
    engine, (c,) = fresh_dense()
    v = min(c.book.mp.values())
    engine.colors.clear_dense(v)
    rep = verify(engine)
    assert "palette_identity" in rep.failed_names()
    assert rep.checks["palette_identity"].violations == [f"clique {c.id}: |A| off by -1"]


def test_fault_edge_counters():
    engine, (c,) = fresh_dense()
    c.book.t_c[0] = c.book.t_c.get(0, 0) + 3
    rep = verify(engine)
    assert "edge_counters" in rep.failed_names()


def test_fault_matching_floor():
    engine, (c,) = fresh_dense()
    assert c.nonedge_count > 0
    for u, v in c.matching_pairs():
        c.partner.pop(u, None)
        c.partner.pop(v, None)
    rep = verify(engine)
    assert "matching_floors" in rep.failed_names()


def test_fault_matched_pair_is_edge():
    engine, (c,) = fresh_dense()
    u = min(c.members)
    w = max(c.members)
    assert engine.graph.has_edge(u, w)
    c.partner.clear()
    c.partner[u] = w
    c.partner[w] = u
    rep = verify(engine)
    assert "partition_structures" in rep.failed_names()
    violations = rep.checks["partition_structures"].violations
    assert f"matched pair ({u},{w}) of clique {c.id} invalid" in violations


def test_fault_nonedges_inexact():
    engine, (c,) = fresh_dense()
    a, b = 0, 2  # an actual edge of the clique, not one of the holes
    assert engine.graph.has_edge(a, b)
    c.nonedges[a].add(b)
    rep = verify(engine)
    assert "partition_structures" in rep.failed_names()
    violations = rep.checks["partition_structures"].violations
    assert violations == [f"non-edge lists of clique {c.id} inexact"]


def test_fault_friend_soundness():
    engine, (c,) = fresh_dense()
    # plant non-friends in the strict lists on every edge incident to the
    # sparse side; the mismatch rate crosses the floor
    for pair in ((24, 25), (26, 27), (28, 29)):
        engine.process(ins(*pair))  # isolated edges, zero common neighbors
    tr = engine.tracker
    g = engine.graph
    count = g.common_neighbor_counter()
    planted = 0
    for v in range(g.n):
        for u in g.adj[v]:
            if count(u, v) == 0:
                friend_set(tr.n1, v).add(u)
                friend_set(tr.n1, u).add(v)
                planted += 1
    assert planted > 0
    rep = verify(engine, soundness_floor=0.999)
    assert "friend_soundness" in rep.failed_names()


def test_fault_friend_lists():
    engine, (c,) = fresh_dense()
    tr = engine.tracker
    assert verify(engine).checks["friend_lists"].passed
    # a symmetric pair on the hole (0, 1) is stale: legal inside a phase,
    # where deletions wait for the boundary replay, and a fault at a boundary
    assert not engine.graph.has_edge(0, 1)
    friend_set(tr.n3, 0).add(1)
    friend_set(tr.n3, 1).add(0)
    assert verify(engine, boundary=False).checks["friend_lists"].passed
    rep = verify(engine)
    assert "friend_lists" in rep.failed_names()
    assert any("stale" in v for v in rep.checks["friend_lists"].violations)
    tr.n3[0].discard(1)
    tr.n3[1].discard(0)
    # a one-sided pair fails at any time
    u = next(x for x in range(engine.n) if tr.n3[x])
    v = next(iter(tr.n3[u]))
    tr.n3[v].discard(u)
    rep = verify(engine, boundary=False)
    found = rep.checks["friend_lists"].violations
    assert "friend_lists" in rep.failed_names()
    assert f"N_3: asymmetric friend pair ({u},{v})" in found


@pytest.mark.parametrize("scale", ["N_1", "N_3"])
def test_fault_friend_soundness_names_the_corrupted_scale(scale):
    engine, _ = fresh_dense()
    tr = engine.tracker
    clean = verify(engine).checks["friend_soundness"]
    assert clean.passed
    # forget every friend at one scale: the clique's edges, whose endpoints
    # share nearly all their neighbors, go missing from that scale only
    lists = {"N_1": tr.n1, "N_3": tr.n3}[scale]
    for v in range(engine.n):
        friend_set(lists, v).clear()
    check = verify(engine).checks["friend_soundness"]
    assert not check.passed
    assert [line.split()[0] for line in check.violations] == [scale]
    other = "N_3" if scale == "N_1" else "N_1"
    assert check.info["rates"][other] == clean.info["rates"][other]
    assert check.info["rates"][scale] < 0.98


def test_fault_friend_lists_not_nested():
    engine, _ = fresh_dense()
    tr = engine.tracker
    assert verify(engine).checks["friend_lists"].passed
    # a scale-1 pair must be a scale-3 pair too
    u = next(x for x in range(engine.n) if tr.n1[x])
    v = next(iter(tr.n1[u]))
    tr.n3[u].discard(v)
    tr.n3[v].discard(u)
    rep = verify(engine, boundary=False)
    assert "friend_lists" in rep.failed_names()
    assert f"N_1: friend pair ({u},{v}) missing from N_3" in rep.checks["friend_lists"].violations


def test_fault_invariants_hard_violation():
    # a truly dense vertex left on the sparse side is a hard Density miss
    delta = 12
    members = list(range(delta + 1))
    engine, _ = dense_fixture(30, delta, [members], seed=4)
    dec = engine.decomp
    c = dec.clique(members[0])
    # orphan one member structurally (and fix the views so only the
    # invariant audit can complain)
    victim = max(members)
    dec.sparse_move(victim)
    engine.dense.build_book(c)
    engine.rebuild_colors()
    rep = verify(engine)
    assert "decomposition_invariants" in rep.failed_names()
    found = rep.checks["decomposition_invariants"].violations
    assert f"Density: sparse vertex {victim} looks scale-1 dense" in found


def test_edgeless_graph_at_delta_zero_has_no_density_miss():
    # every threshold is 0 at delta = 0, and a vertex without a single
    # qualifying friend must not look dense
    engine = make_engine(8, 0)
    rep = verify(engine)
    assert rep.checks["decomposition_invariants"].violations == []
    assert rep.passed, rep.failed_names()


def test_fault_clique_size_bounds():
    engine, (c,) = fresh_dense()
    # shrink the clique below the size floor
    dec = engine.decomp
    for v in sorted(c.members)[: len(c.members) - 2]:
        dec.sparse_move(v)
    engine.dense.build_book(c)
    engine.rebuild_colors()
    rep = verify(engine)
    assert "clique_size_bounds" in rep.failed_names()


def test_fault_clique_level_miss_is_hard_when_its_id_is_a_gap_vertex():
    # a Size finding names no vertex; a gap vertex whose id equals the
    # clique's must not excuse it
    engine, (c,) = fresh_dense()
    assert c.id == 0
    dec = engine.decomp
    for v in sorted(c.members)[: len(c.members) - 2]:
        dec.sparse_move(v)
    engine.dense.build_book(c)
    engine.rebuild_colors()
    # vertex 0, now sparse, gets a scale-3 friend it shares no neighbor with
    engine.process(ins(0, 20))
    tr = engine.tracker
    friend_set(tr.n3, 0).add(20)
    friend_set(tr.n3, 20).add(0)
    rep = verify(engine, boundary=False)
    assert rep.checks["friend_soundness"].info["gap_vertices"] >= 2
    check = rep.checks["decomposition_invariants"]
    assert "Size: clique 0 has 2 members" in check.violations


def test_fault_good_colors_bound():
    # |C| = delta (k = 1): with the matching wiped, the external-edge bound
    # drops to |L|*k and enough external edges break it
    delta = 10
    members = list(range(delta))
    holes = [(0, 1), (2, 3)]
    ext = []
    nxt = delta + 2
    for v in members:
        slack = delta - (len(members) - 1 - sum(1 for h in holes if v in h))
        for _ in range(slack):
            ext.append((v, nxt))
            nxt += 1
    engine, (c,) = dense_fixture(40, delta, [members], holes=holes, extra_edges=ext, seed=6)
    rep = verify(engine)
    assert rep.passed, rep.failed_names()
    c.partner.clear()
    rep = verify(engine)
    assert "good_colors" in rep.failed_names()


def test_fault_color_load_ceiling():
    engine = make_engine(24, 8, phase_len=10**9)
    rep = verify(engine, load_ceiling=0)
    assert "color_load" in rep.failed_names()


def test_verify_after_long_run_passes():
    engine = make_engine(64, 16, eps=0.15, tau=0.05, k=192, fire=4, phase_len=32, strict=False)
    adv = make_adversary("clique-churn", 64, 16, seed=2, target_size=17)
    run_stream(engine, adv, 1500)
    while engine.updates_in_phase != 0:
        engine.process(adv.next(None))
    rep = verify(engine)
    assert rep.passed, {n: rep.checks[n].violations[:3] for n in rep.failed_names()}


# ---- ProperWatch: faults planted in the engine's in-phase sparse recolor --------------


def watch_with_fault(fault):
    """Run adaptive-monochrome under a `ProperWatch` with one planted fault.

    From update 100 on, the first in-phase sparse recolor that `fault`
    accepts (returns a detail for, not None) is replaced by `fault(engine,
    v)`; an update that closes its phase is passed over, since its rebuild
    recolors everything.  Every earlier check must pass.  Returns the
    engine, the planted update's index, the detail, that update's check
    result and the watch's violations.
    """
    engine = make_engine(64, 16, phase_len=32)
    adv = make_adversary("adaptive-monochrome", 64, 16, seed=4)
    watch = ProperWatch(engine)
    recolor_sparse = engine.sparse.recolor_sparse
    planted = []

    def recolor(v):
        in_phase = engine.updates_in_phase + 1 < engine.phase_len
        if not planted and engine.metrics.updates > 100 and in_phase:
            detail = fault(engine, v)
            if detail is not None:
                planted.append(detail)
                return engine.colors.of[v]
        return recolor_sparse(v)

    engine.sparse.recolor_sparse = recolor
    view = engine.coloring_view()
    for i in range(2000):
        upd = adv.next(view)
        engine.process(upd)
        ok = watch.check(upd)
        if planted:
            return engine, i, planted[0], ok, watch.violations
        assert ok, watch.violations
    raise AssertionError("no fault was planted")


def take_a_neighbors_color(engine, v):
    """Recolor v, skipping the feasibility check, onto a neighbor's color.

    v's old color is the inserted partner's, so the neighbor taken is
    another one: the clash is not on the inserted edge.
    """
    of = engine.colors.of
    w = next((w for w in engine.graph.adj[v] if of[w] != of[v]), None)
    if w is None:
        return None
    engine.colors.clear_sparse(v)
    engine.colors.set_sparse(v, of[w])
    return v, w


def leave_blank(engine, v):
    engine.colors.clear_sparse(v)
    return v


def test_watch_reports_a_recolor_onto_a_neighbors_color_at_its_update():
    engine, i, (v, w), ok, violations = watch_with_fault(take_a_neighbors_color)
    c = engine.colors.of[v]
    assert not ok
    assert violations == [f"update {i}: edge ({v},{w}) monochromatic ({c})"]


def test_watch_reports_a_vertex_left_blank_at_its_update():
    engine, i, v, ok, violations = watch_with_fault(leave_blank)
    assert engine.colors.of[v] == BLANK
    assert not ok
    assert violations == [f"update {i}: {v} left blank"]


def test_a_skipped_recolor_is_repaired_by_the_anchor():
    # skipping the recolor outright leaves the inserted edge monochromatic;
    # `Engine.process` repairs that before the watch looks
    engine, _, _, ok, violations = watch_with_fault(lambda engine, v: v)
    assert ok and violations == []
    assert engine.metrics.anchor_repairs == 1

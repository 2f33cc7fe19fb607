"""Rarely written containers start as shared read-only empties.

The friend lists and `Decomposition.n_c` give an entry a container of
its own on its first add and keep it from then on.  `ColorState.L_D`
is made up front, one list per color, and keeps its lists too.
"""

import random
import tracemalloc

import pytest

from dyncolor import journal as J
from dyncolor.colors import BLANK, ColorState
from dyncolor.engine import Engine
from dyncolor.friends import FriendTracker
from dyncolor.graph import DynamicGraph, dele
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet
from dyncolor.sampleset import EMPTY_MAP
from dyncolor.verify import partition_violations

from conftest import add_edges, clique_edges, dense_fixture, feed_edges, make_engine


def _untouched(engine):
    """Each lazy set of vertex/color 0 of a fresh engine, with its name."""
    tr = engine.tracker
    return [("N_1", tr.n1[0]), ("N_3", tr.n3[0])]


def test_untouched_containers_are_one_shared_empty_each():
    engine = make_engine(16, 4)
    dec, tr = engine.decomp, engine.tracker
    for name, first in _untouched(engine) + [("n_c", dec.n_c[0])]:
        assert len(first) == 0 and list(first) == [] and 3 not in first, name
    assert all(s is tr.n1[0] for lst in (tr.n1, tr.n3) for s in lst)
    assert all(m is dec.n_c[0] for m in dec.n_c)
    assert dec.n_c[0].get(7) is None and list(dec.n_c[0].items()) == []


def test_add_on_an_untouched_container_raises():
    engine = make_engine(16, 4)
    for name, empty in _untouched(engine):
        with pytest.raises(TypeError):
            empty.add(1)
        assert len(empty) == 0, name
    n_c = engine.decomp.n_c[0]
    with pytest.raises(TypeError):
        n_c.setdefault(0, 0)
    with pytest.raises(TypeError):
        n_c[0] = 1
    assert len(n_c) == 0


def test_discard_and_pop_on_an_untouched_container_are_no_ops():
    engine = make_engine(16, 4)
    for name, empty in _untouched(engine):
        assert not empty.discard(1), name
        assert len(empty) == 0, name
    n_c = engine.decomp.n_c[0]
    assert n_c.pop(5, None) is None and n_c.get(5) is None and len(n_c) == 0
    engine.tracker._drop_pair(0, 1)
    assert all(len(c) == 0 for _, c in _untouched(engine))


def _assert_classes_consistent(cs, dense):
    """Each colored vertex sits once, in the one class of its color and side."""
    for v in range(cs.n):
        held = [
            (side, c)
            for side, lists in (("L", cs.L), ("L_D", cs.L_D))
            for c, lst in enumerate(lists)
            for _ in range(lst.count(v))
        ]
        want = [] if cs.of[v] == BLANK else [("L_D" if v in dense else "L", cs.of[v])]
        assert held == want, v


def test_set_and_clear_dense_keep_classes_consistent():
    cs = ColorState(8, 4)
    dense = {1, 2, 5, 7}
    cs.set_dense(2, 3)
    assert cs.L_D[3] == [2] and not any(cs.L_D[c] for c in range(3))
    _assert_classes_consistent(cs, dense)
    for v in (5, 1, 7):
        cs.set_dense(v, 3)
    cs.set_sparse(0, 3)
    assert cs.L_D[3] == [2, 5, 1, 7] and cs.L[3] == [0]
    # a removal moves the list's last vertex into the hole
    assert cs.clear_dense(5) == 3
    assert cs.L_D[3] == [2, 7, 1]
    _assert_classes_consistent(cs, dense)
    # a recolor leaves the old list the same way and joins the new one at its end
    cs.set_dense(2, 1)
    assert cs.L_D[3] == [1, 7] and cs.L_D[1] == [2]
    _assert_classes_consistent(cs, dense)
    # setting a held color moves the vertex to the end of its list
    cs.set_dense(1, 3)
    assert cs.L_D[3] == [7, 1]
    # the last vertex leaves without a swap
    assert cs.clear_dense(1) == 3
    assert cs.L_D[3] == [7] and cs.of[1] == BLANK
    _assert_classes_consistent(cs, dense)
    assert cs.clear_dense(1) == BLANK
    cs.blank_all()
    _assert_classes_consistent(cs, dense)


def test_friend_list_keeps_its_set_after_it_empties():
    g = DynamicGraph(12, 6)
    add_edges(g, clique_edges(range(7)))
    params = ParamSet(epsilon=0.2, tau=0.2, sample_count_k=32, seed=1)
    tr = FriendTracker(g, params, random.Random(1), Metrics())
    tr.update_vertex(0)
    own = tr.n3[0]
    assert len(own) == 6 and type(own) is set
    untouched = tr.n3[11]
    for u in range(1, 7):
        upd = dele(0, u)
        g.apply(upd)
        tr.maintain_friends(upd)
    assert len(own) == 0 and tr.n3[0] is own
    assert tr.n3[11] is untouched and len(untouched) == 0


def test_neighbor_views_keep_their_containers_after_a_collapse():
    engine = make_engine(8, 4)
    feed_edges(engine, [(0, 1), (0, 5)])
    dec = engine.decomp
    assert dec.n_c[5] is EMPTY_MAP
    c = dec._new_clique()
    dec._join(c, 0)
    view = dec.n_c[5]
    assert view == {c.id: 1}
    dec.dissolve(c)
    assert len(view) == 0 and dec.n_c[5] is view
    assert dec.n_c[6] is EMPTY_MAP
    assert partition_violations(dec) == []


def test_dense_color_list_keeps_its_list_after_it_empties():
    cs = ColorState(6, 4)
    cs.set_dense(2, 3)
    own = cs.L_D[3]
    cs.clear_dense(2)
    assert len(own) == 0 and cs.L_D[3] is own
    cs.set_dense(4, 3)
    cs.blank_all()
    assert len(own) == 0 and cs.L_D[3] is own


def test_journal_revert_writes_into_untouched_neighbor_views():
    # an in-phase deletion drops a member from a neighbor's view and the
    # revert must re-add it, whatever container the neighbor holds
    delta = 12
    members = list(range(delta))
    engine, (c,) = dense_fixture(24, delta, [members], extra_edges=[(0, 20)], seed=3)
    dec = engine.decomp
    engine.graph.apply(dele(0, 20))
    dec.nc_remove(20, c.id)
    dec.n_c[20] = EMPTY_MAP  # as if never written
    J.PhaseJournal().revert(dec, [dele(0, 20)])
    assert engine.graph.has_edge(0, 20)
    assert dec.n_c[20] == {c.id: 1}
    assert len(EMPTY_MAP) == 0
    assert partition_violations(dec) == []


def test_engine_construction_stays_within_its_memory_budget():
    # with three friend sets, n_d, n_c and L_D made up front for every
    # entry, construction peaked at ~97 MB; made on first add, at ~39 MB;
    # without the sparse and dense neighbor sets n_s / n_d, at ~25 MB
    tracemalloc.start()
    try:
        Engine(2**16, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20

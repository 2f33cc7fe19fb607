"""Rarely written containers start as shared read-only empties.

The friend lists, `Decomposition.n_c` and `ColorState.L_D` give an
entry a container of its own on its first add and keep it from then on.
"""

import random
import tracemalloc

import pytest

from dyncolor import journal as J
from dyncolor.colors import ColorState
from dyncolor.engine import Engine
from dyncolor.friends import FriendTracker
from dyncolor.graph import DynamicGraph, dele
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet
from dyncolor.sampleset import EMPTY_MAP

from conftest import add_edges, clique_edges, dense_fixture, feed_edges, make_engine


def _untouched(engine):
    """Each lazy set of vertex/color 0 of a fresh engine, with its name."""
    tr = engine.tracker
    return [
        *((f"N_{i + 1}", tr.lists[i][0]) for i in range(3)),
        ("L_D", engine.colors.L_D[0]),
    ]


def test_untouched_containers_are_one_shared_empty_each():
    engine = make_engine(16, 4)
    dec, tr = engine.decomp, engine.tracker
    for name, first in _untouched(engine) + [("n_c", dec.n_c[0])]:
        assert len(first) == 0 and list(first) == [] and 3 not in first, name
    assert all(s is tr.lists[0][0] for lst in tr.lists for s in lst)
    assert all(m is dec.n_c[0] for m in dec.n_c)
    assert all(s is engine.colors.L_D[0] for s in engine.colors.L_D)
    assert dec.n_c[0].get(7) is None and list(dec.n_c[0].items()) == []
    ld = engine.colors.L_D[0]
    assert list(ld.items) == [] and 3 not in ld._pos


def test_add_on_an_untouched_container_raises():
    engine = make_engine(16, 4)
    for name, empty in _untouched(engine):
        with pytest.raises(TypeError):
            empty.add(1)
        assert len(empty) == 0, name
    n_c = engine.decomp.n_c[0]
    with pytest.raises(TypeError):
        n_c.setdefault(0, set())
    with pytest.raises(TypeError):
        n_c[0] = {1}
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


def test_first_add_gives_only_that_entry_a_container():
    cs = ColorState(6, 4)
    shared = cs.L_D[0]
    cs.set_dense(2, 3)
    assert list(cs.L_D[3]) == [2] and cs.L_D[3] is not shared
    assert all(cs.L_D[c] is shared for c in range(3))
    assert len(shared) == 0


def test_friend_list_keeps_its_set_after_it_empties():
    g = DynamicGraph(12, 6)
    add_edges(g, clique_edges(range(7)))
    params = ParamSet(epsilon=0.2, tau=0.2, sample_count_k=32, seed=1)
    tr = FriendTracker(g, params, random.Random(1), Metrics())
    tr.update_vertex(0)
    own = tr.lists[2][0]
    assert len(own) == 6 and type(own) is set
    untouched = tr.lists[2][11]
    for u in range(1, 7):
        upd = dele(0, u)
        g.apply(upd)
        tr.maintain_friends(upd)
    assert len(own) == 0 and tr.lists[2][0] is own
    assert tr.lists[2][11] is untouched and len(untouched) == 0


def test_neighbor_views_keep_their_containers_after_a_collapse():
    engine = make_engine(8, 4)
    feed_edges(engine, [(0, 1), (0, 5)])
    dec = engine.decomp
    assert dec.n_c[5] is EMPTY_MAP
    c = dec._new_clique()
    dec._join(c, 0)
    view = dec.n_c[5]
    assert view == {c.id: {0}}
    dec.dissolve(c)
    assert len(view) == 0 and dec.n_c[5] is view
    assert dec.n_c[6] is EMPTY_MAP
    assert dec.check_structures() == []


def test_dense_color_list_keeps_its_sampleset_after_it_empties():
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
    dec._nbr_remove(20, 0)
    dec.n_c[20] = EMPTY_MAP  # as if never written
    J.PhaseJournal().revert(dec, [dele(0, 20)])
    assert dec.n_c[20] == {c.id: {0}}
    assert len(EMPTY_MAP) == 0
    assert dec.check_structures() == []


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

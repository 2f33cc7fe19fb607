import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncolor.errors import BadEndpoints, DegreeCapExceeded, DuplicateEdge, GraphError, MissingEdge
from dyncolor.graph import DynamicGraph, EdgeUpdate, dele, ins

from conftest import add_edges, clique_edges, is_legal, make_engine, random_graph


def test_first_edge_insert():
    g = DynamicGraph(4, 3)
    g.apply(ins(0, 1))
    assert set(g.adj[0]) == {1}
    assert set(g.adj[1]) == {0}
    assert g.edge_count == 1


def test_delete_is_inverse():
    g = DynamicGraph(4, 3)
    g.apply(ins(0, 1))
    g.apply(dele(0, 1))
    assert set(g.adj[0]) == set() and set(g.adj[1]) == set()
    assert g.edge_count == 0


def test_degree_cap_boundary():
    delta = 3
    g = DynamicGraph(6, delta)
    for leaf in (1, 2, 3):
        g.apply(ins(0, leaf))
    with pytest.raises(DegreeCapExceeded):
        g.apply(ins(0, 4))
    # the other endpoint can hit the cap too
    with pytest.raises(DegreeCapExceeded):
        g.apply(ins(4, 0))


def test_duplicate_and_missing():
    g = DynamicGraph(4, 3)
    g.apply(ins(0, 1))
    with pytest.raises(DuplicateEdge):
        g.apply(ins(1, 0))
    with pytest.raises(MissingEdge):
        g.apply(dele(2, 3))


def test_self_loop_rejected():
    g = DynamicGraph(4, 3)
    with pytest.raises(ValueError):
        g.apply(ins(1, 1))


def test_check_legal_raises_graph_errors_only():
    g = DynamicGraph(4, 1)
    g.apply(ins(0, 1))
    g.check_legal(dele(0, 1))
    g.check_legal(ins(2, 3))
    illegal = [
        (ins(0, 1), DuplicateEdge),
        (dele(2, 3), MissingEdge),
        (ins(0, 2), DegreeCapExceeded),
        (ins(1, 1), BadEndpoints),
        (ins(0, 9), BadEndpoints),
    ]
    for upd, err in illegal:
        with pytest.raises(err) as exc:
            g.check_legal(upd)
        assert isinstance(exc.value, GraphError)
    # a programming error is not an illegal update
    with pytest.raises(AttributeError):
        g.check_legal(None)


def test_common_neighbors_k4():
    # oracle by enumeration: in K4 every edge has the remaining 2 as commons
    g = DynamicGraph(4, 3)
    add_edges(g, clique_edges(range(4)))
    count = g.common_neighbor_counter()
    for u, v in itertools.combinations(range(4), 2):
        brute = len(set(g.adj[u]) & set(g.adj[v]))
        assert brute == 2
        assert count(u, v) == brute


def test_common_neighbors_disjoint_and_path():
    g = DynamicGraph(4, 3)
    add_edges(g, [(0, 1), (2, 3)])
    assert g.common_neighbor_counter()(0, 2) == 0
    g = DynamicGraph(3, 2)
    add_edges(g, [(0, 1), (1, 2)])
    assert g.common_neighbor_counter()(0, 2) == 1


def test_common_neighbors_symmetry_random():
    for seed in range(3):
        n = 200
        g = random_graph(n, 24, 900, seed=seed)
        count = g.common_neighbor_counter()
        rng = random.Random(seed)
        for _ in range(300):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            assert count(u, v) == count(v, u)


def _degree_seen_by_others(g, v):
    # counted from the other endpoints' adjacency, independent of adj[v]
    return sum(1 for x in range(g.n) if x != v and v in g.adj[x])


def test_common_neighbor_counter_matches_exact_intersection():
    for seed in range(3):
        n = 200
        g = random_graph(n, 24, 900, seed=seed)
        count = g.common_neighbor_counter()
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(300)] + list(g.edges())
        for u, v in pairs:
            brute = len(set(g.adj[u]) & set(g.adj[v]))
            assert count(u, v) == brute


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60), st.randoms())
@settings(max_examples=60, deadline=None)
def test_symmetry_and_cap_hold_after_every_update(pairs, rnd):
    g = DynamicGraph(10, 4)
    for u, v in pairs:
        if u == v:
            continue
        upd = EdgeUpdate(u, v, not g.has_edge(u, v))
        if not is_legal(g, upd):
            continue
        g.apply(upd)
        assert (v in g.adj[u]) == (u in g.adj[v])
        assert all(g.degree(x) <= 4 for x in (u, v))
        assert _degree_seen_by_others(g, u) == g.degree(u)


def _state(adj, edge_count):
    return [list(s) for s in adj], edge_count


@pytest.mark.parametrize("seed", range(4))
def test_toggle_and_apply_agree_through_undo_and_replay(seed):
    # a legal stream, undone newest first and replayed, through `apply` on
    # one graph, through `toggle` on a second, and through plain dict
    # writes on a reference: adjacency dicts (with their iteration order)
    # and the edge count agree at every stage
    n, delta = 12, 5
    rng = random.Random(seed)
    checked, unchecked = DynamicGraph(n, delta), DynamicGraph(n, delta)
    ref = [{} for _ in range(n)]
    ref_edges = 0

    def ref_toggle(u, v, insert):
        nonlocal ref_edges
        for a, b in ((u, v), (v, u)):
            assert (b in ref[a]) != insert
            if insert:
                ref[a][b] = None
            else:
                del ref[a][b]
        ref_edges += 1 if insert else -1

    def agree():
        want = _state(ref, ref_edges)
        assert _state(checked.adj, checked.edge_count) == want
        assert _state(unchecked.adj, unchecked.edge_count) == want

    stream, inner = [], 0
    while len(stream) < 400:
        u, v = rng.sample(range(n), 2)
        upd = EdgeUpdate(u, v, not checked.has_edge(u, v))
        if not is_legal(checked, upd):
            continue
        if not upd.insert:
            # a deletion of a neighbor that is not the newest leaves the
            # others in insertion order
            inner += list(checked.adj[u])[-1] != v or list(checked.adj[v])[-1] != u
        checked.apply(upd)
        unchecked.toggle(u, v, upd.insert)
        ref_toggle(u, v, upd.insert)
        stream.append(upd)
        agree()
    assert inner > 50
    for upd in reversed(stream):
        checked.apply(EdgeUpdate(upd.u, upd.v, not upd.insert))
        unchecked.toggle(upd.u, upd.v, not upd.insert)
        ref_toggle(upd.u, upd.v, not upd.insert)
    agree()
    assert checked.edge_count == 0 and not any(checked.adj)
    for upd in stream:
        checked.apply(upd)
        unchecked.toggle(upd.u, upd.v, upd.insert)
        ref_toggle(upd.u, upd.v, upd.insert)
    agree()


def test_degree_reads_the_flat_list():
    g = DynamicGraph(5, 3)
    add_edges(g, [(0, 1), (0, 2), (3, 0)])
    g.apply(dele(0, 2))
    # the degrees, read as one flat list, are the sizes of the adjacency dicts
    assert [g.degree(v) for v in range(5)] == [2, 1, 0, 1, 0]
    assert [len(g.adj[v]) for v in range(5)] == [2, 1, 0, 1, 0]


EMPTY_DICT_BYTES = sys.getsizeof({})


def test_apply_that_empties_a_dict_gives_back_its_table():
    # CPython keeps a dict's grown table after its last key goes; a deletion
    # that empties a dict clears it, so an isolated vertex costs one empty
    # dict whatever its history, and stays the dict the constructor made
    g = DynamicGraph(12, 10)
    made = list(map(id, g.adj))
    add_edges(g, [(0, v) for v in range(1, 11)])
    g.apply(dele(0, 4))
    assert sys.getsizeof(g.adj[4]) == EMPTY_DICT_BYTES
    for v in (1, 2, 3, 5, 6, 7, 8, 9, 10):
        g.apply(dele(v, 0))
    assert g.edge_count == 0
    assert [sys.getsizeof(near) for near in g.adj] == [EMPTY_DICT_BYTES] * g.n
    assert list(map(id, g.adj)) == made
    add_edges(g, [(0, 7), (3, 0), (0, 9)])
    assert list(g.adj[0]) == [7, 3, 9]
    assert list(g.adj[3]) == [0]


def test_phase_rewind_and_replay_give_back_the_table_of_an_emptied_dict():
    # the phase inserts and deletes (0, 1); its boundary rewinds the graph
    # to phase start and replays the phase, each through `toggle`
    engine = make_engine(16, 6, phase_len=4)
    g = engine.graph
    made = list(map(id, g.adj))
    for upd in (ins(0, 1), ins(2, 3), dele(0, 1), ins(4, 5)):
        engine.process(upd)
    assert engine.metrics.phase_inits == 1 and engine.updates_in_phase == 0
    assert sys.getsizeof(g.adj[0]) == sys.getsizeof(g.adj[1]) == EMPTY_DICT_BYTES
    assert list(map(id, g.adj)) == made
    for upd in (ins(0, 6), ins(1, 0), ins(0, 2)):
        engine.process(upd)
    assert list(g.adj[0]) == [6, 1, 2]
    assert list(g.adj[1]) == [0]

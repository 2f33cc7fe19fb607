import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncolor.errors import DegreeCapExceeded, DuplicateEdge, MissingEdge
from dyncolor.graph import DynamicGraph, EdgeUpdate, dele, ins
from dyncolor.sampleset import SampleSet

from conftest import add_edges, clique_edges, random_graph


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
        if not g.is_legal(upd):
            continue
        g.apply(upd)
        assert (v in g.adj[u]) == (u in g.adj[v])
        assert all(g.degree(x) <= 4 for x in (u, v))
        assert _degree_seen_by_others(g, u) == g.degree(u)


def _state(adj, deg, edge_count):
    return [s.items for s in adj], [s._pos for s in adj], list(deg), edge_count


@pytest.mark.parametrize("seed", range(4))
def test_toggle_and_apply_agree_through_undo_and_replay(seed):
    # a legal stream, undone newest first and replayed, through `apply` on
    # one graph, through `toggle` on a second, and through SampleSet
    # add/discard on a reference: item orders, position indexes, degrees
    # and the edge count agree at every stage
    n, delta = 12, 5
    rng = random.Random(seed)
    checked, unchecked = DynamicGraph(n, delta), DynamicGraph(n, delta)
    ref = [SampleSet() for _ in range(n)]
    ref_deg, ref_edges = [0] * n, 0

    def ref_toggle(u, v, insert):
        nonlocal ref_edges
        for a, b in ((u, v), (v, u)):
            assert (ref[a].add(b) if insert else ref[a].discard(b))
            ref_deg[a] += 1 if insert else -1
        ref_edges += 1 if insert else -1

    def agree():
        want = _state(ref, ref_deg, ref_edges)
        assert _state(checked.adj, checked.deg, checked.edge_count) == want
        assert _state(unchecked.adj, unchecked.deg, unchecked.edge_count) == want

    stream, swaps = [], 0
    while len(stream) < 400:
        u, v = rng.sample(range(n), 2)
        upd = EdgeUpdate(u, v, not checked.has_edge(u, v))
        if not checked.is_legal(upd):
            continue
        if not upd.insert:
            # a deletion of a neighbor that is not last moves the last one
            swaps += checked.adj[u].items[-1] != v or checked.adj[v].items[-1] != u
        checked.apply(upd)
        unchecked.toggle(u, v, upd.insert)
        ref_toggle(u, v, upd.insert)
        stream.append(upd)
        agree()
    assert swaps > 50
    for upd in reversed(stream):
        checked.apply(EdgeUpdate(upd.u, upd.v, not upd.insert))
        unchecked.toggle(upd.u, upd.v, not upd.insert)
        ref_toggle(upd.u, upd.v, not upd.insert)
    agree()
    assert checked.edge_count == 0 and not any(checked.deg)
    for upd in stream:
        checked.apply(upd)
        unchecked.toggle(upd.u, upd.v, upd.insert)
        ref_toggle(upd.u, upd.v, upd.insert)
    agree()


def test_degree_reads_the_flat_list():
    g = DynamicGraph(5, 3)
    add_edges(g, [(0, 1), (0, 2), (3, 0)])
    g.apply(dele(0, 2))
    assert g.deg == [2, 1, 0, 1, 0]
    assert [g.degree(v) for v in range(5)] == g.deg

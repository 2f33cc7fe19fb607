import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncolor.colors import BLANK
from dyncolor.graph import dele, ins

from conftest import add_edges, clique_edges, make_engine, random_graph


def blank_engine(n, delta, **kw):
    kw.setdefault("phase_len", 10**9)
    e = make_engine(n, delta, **kw)
    e.colors.blank_all()
    return e


def sparse_proper(engine):
    of = engine.colors.of
    return all(
        of[u] != of[v] or of[u] == BLANK for u, v in engine.graph.edges()
    )


def list_consistency(engine):
    seen = set()
    for c, lst in enumerate(engine.colors.L):
        for v in lst:
            if engine.colors.of[v] != c or v in seen:
                return False
            seen.add(v)
    colored = {v for v in range(engine.n) if engine.colors.of[v] != BLANK}
    return seen == colored


def test_one_shot_no_internal_edges_colors_all():
    e = blank_engine(20, 6)
    assert e.sparse.one_shot_coloring(range(20)) == 0
    assert all(e.colors.of[v] != BLANK for v in range(20))
    assert list_consistency(e)


class _ForcedDraws:
    """Stub rng: every palette draw returns the same value (below the palette)."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        return self.value

    def random(self):
        raise AssertionError("a pick draw was made")


def test_coloring_passes_reject_a_colored_vertex():
    e = blank_engine(8, 4, seed=1)
    e.colors.set_sparse(3, 2)
    state = e.rng.getstate()
    for color_pass in (e.sparse.one_shot_coloring, e.sparse.greedy_coloring):
        with pytest.raises(ValueError):
            color_pass([3])
    # greedy's shuffle of one vertex draws nothing; neither pass drew a color
    assert e.rng.getstate() == state
    assert e.colors.of[3] == 2 and list(e.colors.L[2]) == [3]


def test_isolated_vertex_is_charged_what_feasible_charges():
    # the draw loop takes an isolated vertex's first draw without checking
    # it; it must still charge what a checked draw that walks nothing does:
    # vertex 1 has a neighbor and L(1) is empty, so its check walks L(1)
    e = blank_engine(6, 3)
    e.graph.apply(ins(1, 2))
    e.decomp.note_edge(ins(1, 2))
    e.sparse.rng = _ForcedDraws(1)
    m = e.metrics

    def charge(fn):
        before = (m.work, m.probes, m.samples)
        fn()
        return tuple(a - b for a, b in zip((m.work, m.probes, m.samples), before))

    # one draw: one sample and one unit, plus one unit for the empty walk
    assert charge(lambda: e.sparse.greedy_coloring([1])) == (2, 0, 1)
    e.colors.clear_sparse(1)
    assert charge(lambda: e.sparse.greedy_coloring([0])) == (2, 0, 1)
    assert e.colors.of[0] == 1


def test_isolated_vertex_takes_the_same_draw_through_the_walk():
    # greedy_coloring on an isolated vertex walks an empty adjacency and
    # keeps its first draw: the color, charge and generator state match
    # those of the phase-start pass's isolated-vertex loop, with L(c) empty
    # or occupied
    for seed in range(20):
        e = blank_engine(12, 5, seed=seed)
        for u in range(1, 6):
            e.graph.apply(ins(0, u))
            e.colors.set_sparse(u, u - 1)
        v = 9
        start = e.rng.getstate()
        got = []
        for color_pass in (e.sparse.color_sparse, e.sparse.greedy_coloring):
            e.rng.setstate(start)
            m = e.metrics
            before = (m.work, m.probes, m.samples)
            color_pass([v])
            charge = tuple(a - b for a, b in zip((m.work, m.probes, m.samples), before))
            got.append((e.colors.of[v], charge, e.rng.getstate()))
            e.colors.clear_sparse(v)
        assert got[0] == got[1] and got[0][1] == (2, 0, 1)


class _UnreadAdjacency:
    """Stands in for a vertex's SampleSet; any read of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the draw loop read adjacency attribute {name!r}")


def test_vertex_that_lost_its_last_edge_in_phase_takes_the_unchecked_draw():
    # its SampleSet exists but is empty; the phase-start pass reads deg,
    # leaves the adjacency alone, makes no pick draw, and charges what the
    # isolated-vertex test above pins
    e = make_engine(6, 3, phase_len=10**9)
    e.process(ins(1, 2))
    e.process(ins(1, 3))
    e.process(dele(1, 2))
    e.process(dele(3, 1))
    assert e.graph.deg[1] == 0 and e.updates_in_phase == 4
    c = next(c for c in range(e.palette) if e.colors.L[c] and c != e.colors.of[1])
    e.colors.clear_sparse(1)
    e.graph.adj[1] = _UnreadAdjacency()
    e.sparse.rng = _ForcedDraws(c)
    m = e.metrics
    before = (m.work, m.probes, m.samples)
    e.sparse.color_sparse([1])
    assert e.colors.of[1] == c
    assert tuple(a - b for a, b in zip((m.work, m.probes, m.samples), before)) == (2, 0, 1)


def test_color_sparse_rejects_a_colored_vertex():
    # vertices 0..9 are matched in pairs and 10, 11 are isolated; whichever
    # half a colored vertex with a neighbor falls in, and a colored
    # isolated vertex, the pass refuses it
    halves = set()
    for seed in range(8):
        for colored in (5, 11):
            e = blank_engine(12, 4, seed=seed)
            for u in range(0, 10, 2):
                e.graph.apply(ins(u, u + 1))
            e.colors.set_sparse(colored, 2)
            # the pass draws a color for each of 10 and 11, then picks the
            # one-shot half of 0..9
            ahead = random.Random()
            ahead.setstate(e.rng.getstate())
            for _ in range(2):
                ahead.randrange(e.palette)
            if colored == 5:
                halves.add([ahead.random() < 0.5 for _ in range(10)][5])
            with pytest.raises(ValueError):
                e.sparse.color_sparse()
            assert e.colors.of[colored] == 2
    assert halves == {True, False}


def test_one_shot_conflict_first_processed_wins():
    e = blank_engine(8, 6)
    e.graph.apply(ins(0, 1))
    e.decomp.note_edge(ins(0, 1))
    e.sparse.rng = _ForcedDraws(3)  # both endpoints sample color 3
    assert e.sparse.one_shot_coloring([0, 1]) == 1
    assert e.colors.of[0] == 3
    assert e.colors.of[1] == BLANK
    assert sparse_proper(e)


def test_capped_draws_fall_back_to_lowest_free_color():
    # every draw is color 3, which neighbor 1 holds: the loop runs out its
    # cap and the rescan takes the lowest color no neighbor holds
    e = blank_engine(8, 4, cap_factor=1)
    for u, c in ((1, 3), (2, 0)):
        e.graph.apply(ins(0, u))
        e.decomp.note_edge(ins(0, u))
        e.colors.set_sparse(u, c)
    e.sparse.rng = _ForcedDraws(3)
    m = e.metrics
    cap, palette = e.sparse.cap, e.sparse.palette
    before = (m.fallbacks, m.work, m.samples)
    assert e.sparse.recolor_sparse(0) == 1
    # each draw: one sample and one unit, plus the check walking L(3) (one
    # entry) for two; then the rescan charges the palette plus the degree
    assert (m.fallbacks, m.work, m.samples) == (
        before[0] + 1, before[1] + 3 * cap + palette + 2, before[2] + cap,
    )
    assert sparse_proper(e) and list_consistency(e)


def one_shot_reference_fraction(n_vertices, palette, adjacency, seed):
    """Independent straight-line simulation of the one-shot process."""
    rng = random.Random(seed)
    draws = [rng.randrange(palette) for _ in range(n_vertices)]
    kept = {}
    for v in range(n_vertices):
        if all(draws[v] != kept.get(u) for u in adjacency[v]):
            kept[v] = draws[v]
    return len(kept) / n_vertices


def test_one_shot_success_rate_matches_reference():
    delta = 24
    n = delta  # complete graph K_delta
    pairs = clique_edges(range(n))
    adjacency = {v: [u for u in range(n) if u != v] for v in range(n)}
    seeds = range(60)
    ref = sum(
        one_shot_reference_fraction(n, delta + 1, adjacency, 10_000 + s) for s in seeds
    ) / len(seeds)
    got = 0.0
    for s in seeds:
        e = blank_engine(n, delta, seed=s)
        add_edges(e.graph, pairs)
        for u, v in pairs:
            e.decomp.note_edge(ins(u, v))
        got += (n - e.sparse.one_shot_coloring(range(n))) / n
    got /= len(seeds)
    assert abs(got - ref) <= 0.05


def test_greedy_single_vertex():
    e = blank_engine(4, 3)
    e.sparse.greedy_coloring([2])
    assert e.colors.of[2] != BLANK
    assert list_consistency(e)


def test_greedy_path_proper_exhaustive():
    for seed in range(25):
        e = blank_engine(3, 2, seed=seed)
        add_edges(e.graph, [(0, 1), (1, 2)])
        for p in [(0, 1), (1, 2)]:
            e.decomp.note_edge(ins(*p))
        e.sparse.greedy_coloring([0, 1, 2])
        assert all(e.colors.of[v] != BLANK for v in range(3))
        assert sparse_proper(e)


def test_greedy_full_clique_uses_every_color_once():
    delta = 10
    e = blank_engine(delta + 1, delta, seed=4)
    add_edges(e.graph, clique_edges(range(delta + 1)))
    for u, v in clique_edges(range(delta + 1)):
        e.decomp.note_edge(ins(u, v))
    e.sparse.greedy_coloring(range(delta + 1))
    used = sorted(e.colors.of)
    assert used == list(range(delta + 1))  # pigeonhole: all colors, once each


def test_color_sparse_empty_and_edgeless():
    e = blank_engine(1, 0)
    e.sparse.color_sparse([])
    assert e.colors.of[0] == BLANK  # nothing to do

    e = blank_engine(30, 8, seed=2)
    rng = e.sparse.rng = _CountingRandom(2)
    ref = random.Random(2)
    m = e.metrics
    before = (m.work, m.probes, m.samples)
    e.sparse.color_sparse()
    assert all(e.colors.of[v] != BLANK for v in range(30))
    assert list_consistency(e)
    # one draw, one sample and two units per vertex; no pick, no shuffle
    assert e.colors.of == [ref.randrange(9) for _ in range(30)]
    assert rng.getstate() == ref.getstate() and rng.picks == 0
    assert tuple(a - b for a, b in zip((m.work, m.probes, m.samples), before)) == (60, 0, 30)


# isolated 0, 3, 6, 9; a triangle 1-4-7; a path 2-5-8; palette 4
LAW_N, LAW_DELTA = 10, 3
LAW_ISOLATED = [0, 3, 6, 9]
LAW_TRIANGLE = (1, 4, 7)
LAW_PATH = (2, 5, 8)
LAW_EDGES = [(1, 4), (4, 7), (1, 7), (2, 5), (5, 8)]


def law_engine(seed=0):
    e = blank_engine(LAW_N, LAW_DELTA, seed=seed)
    add_edges(e.graph, LAW_EDGES)
    return e


def reference_color_sparse(vertices, palette, cap, edges, rng, of):
    """The phase-start pass with every vertex in the pick, straight-line.

    Each of `vertices`, ascending, is picked for the one-shot pass with
    probability 1/2; picked vertices, ascending, keep one draw if no
    neighbor holds it; the rest, in shuffled order, take the first of up
    to `cap` draws no neighbor holds, else the lowest such color.  Colors
    `of` (None for blank) in place and returns the placement order.
    """
    nbrs = collections.defaultdict(set)
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    placed = []
    picked = [v for v in vertices if rng.random() < 0.5]
    for v in picked:
        c = rng.randrange(palette)
        if all(of[w] != c for w in nbrs[v]):
            of[v] = c
            placed.append(v)
    rest = [v for v in vertices if of[v] is None]
    rng.shuffle(rest)
    for v in rest:
        for _ in range(cap):
            c = rng.randrange(palette)
            if all(of[w] != c for w in nbrs[v]):
                break
        else:
            c = min(set(range(palette)) - {of[w] for w in nbrs[v]})
        of[v] = c
        placed.append(v)
    return placed


def _frequencies(colorings, key):
    counts = collections.Counter(key(of) for of in colorings)
    return {k: cnt / len(colorings) for k, cnt in counts.items()}


def _total_variation(p, q):
    return sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q)) / 2


def test_color_sparse_keeps_the_law_of_the_pass_without_an_isolated_loop():
    # the isolated-vertex loop changes which draws the pass consumes, not
    # the law of the coloring: over 20,000 seeds its per-vertex color
    # frequencies and the joint colors of the triangle and of the path
    # match a straight-line reference that picks every vertex.  The seeds
    # are fixed, so the test is deterministic.  The per-vertex bound is 4
    # standard errors of the difference of two 20,000-sample estimates of
    # a probability of 1/4 (0.017); the joint bounds are about twice the
    # total variation distance expected between two such samples over 24
    # (triangle) and 36 (path) outcomes (0.031, 0.038)
    runs = 20_000
    e = law_engine()
    palette, cap = e.palette, e.sparse.cap
    got, ref = [], []
    for seed in range(runs):
        e.colors.blank_all()
        e.sparse.rng = random.Random(seed)
        e.sparse.color_sparse()
        got.append(tuple(e.colors.of))
        of = [None] * LAW_N
        reference_color_sparse(
            range(LAW_N), palette, cap, LAW_EDGES, random.Random(runs + seed), of
        )
        ref.append(tuple(of))
    assert all(of[u] != of[v] for of in got for u, v in LAW_EDGES)
    for v in range(LAW_N):
        p = _frequencies(got, lambda of: of[v])
        q = _frequencies(ref, lambda of: of[v])
        assert max(abs(p.get(c, 0.0) - q.get(c, 0.0)) for c in range(palette)) <= 0.017
    for group, bound in ((LAW_TRIANGLE, 0.031), (LAW_PATH, 0.038)):
        p = _frequencies(got, lambda of: tuple(of[v] for v in group))
        q = _frequencies(ref, lambda of: tuple(of[v] for v in group))
        assert _total_variation(p, q) <= bound


class _CountingRandom(random.Random):
    """A generator that counts its `random()` calls, the pass's pick draws."""

    picks = 0

    def random(self):
        self.picks += 1
        return super().random()


def test_color_sparse_places_isolated_vertices_first_one_draw_each():
    # isolated vertices are placed first, ascending, each on exactly one
    # randrange(palette) draw and no pick draw; the rest are placed, draw
    # for draw, as the reference pass places them alone.  The listeners
    # see one (v, BLANK, c) per vertex in placement order, L(c)'s order
    linked = [v for v in range(LAW_N) if v not in LAW_ISOLATED]
    for seed in range(40):
        e = law_engine()
        rng = _CountingRandom(seed)
        ref = random.Random(seed)
        e.sparse.rng = rng
        events = []
        e.colors.listeners.append(
            lambda v, old, new: events.append((v, old, new, rng.getstate()))
        )
        samples0 = e.metrics.samples
        e.sparse.color_sparse()
        lone = len(LAW_ISOLATED)
        assert [ev[0] for ev in events[:lone]] == LAW_ISOLATED
        for v, old, new, state in events[:lone]:
            assert new == ref.randrange(e.palette) and state == ref.getstate()
        assert rng.picks == len(linked)
        of = [None] * LAW_N
        for v, _, new, _ in events[:lone]:
            of[v] = new
        placed = reference_color_sparse(
            linked, e.palette, e.sparse.cap, LAW_EDGES, ref, of
        )
        assert [ev[0] for ev in events[lone:]] == placed
        assert rng.getstate() == ref.getstate()
        assert of == e.colors.of
        assert all(old == BLANK and new == of[v] for v, old, new, _ in events)
        for c, lst in enumerate(e.colors.L):
            assert lst == [v for v, _, new, _ in events if new == c]
        # a pick for each vertex with neighbors, a draw for each vertex
        assert e.metrics.samples - samples0 >= len(linked) + LAW_N


def test_color_sparse_load_law_small_sweep():
    n, delta = 1200, 120
    bound = 8.0 * (n / delta) * math.log(n)
    for seed in range(6):
        e = blank_engine(n, delta, seed=seed)
        random_graph(n, delta, 24_000, seed=seed, g=e.graph)
        e.sparse.color_sparse()
        assert sparse_proper(e)
        max_load = max(len(lst) for lst in e.colors.L)
        assert max_load <= bound


def test_recolor_sparse_isolated_first_sample():
    e = blank_engine(8, 4, seed=1)
    e.sparse.color_sparse()
    samples0 = e.metrics.samples
    e.sparse.recolor_sparse(5)
    assert e.metrics.samples - samples0 == 1  # no neighbors, first draw accepted
    assert e.colors.of[5] != BLANK


def test_recolor_sparse_unique_available_color():
    # neighbors occupy all colors but one; the survivor is forced
    delta = 6
    e = blank_engine(delta + 2, delta, seed=3)
    v = 0
    for i, u in enumerate(range(1, delta + 1)):
        e.graph.apply(ins(v, u))
        e.decomp.note_edge(ins(v, u))
        e.colors.set_sparse(u, i)  # colors 0..delta-1
    survivor = delta  # brute force: the single free color
    brute = [
        c
        for c in range(delta + 1)
        if all(e.colors.of[u] != c for u in e.graph.adj[v])
    ]
    assert brute == [survivor]
    got = e.sparse.recolor_sparse(v)
    assert got == survivor


def test_recolor_sparse_phase_stress_within_caps():
    n, delta = 400, 40
    e = blank_engine(n, delta, seed=6)
    random_graph(n, delta, 4000, seed=6, g=e.graph)
    e.sparse.color_sparse()
    t = 60  # phase-scaled number of forced recolorings
    rng = random.Random(9)
    fallbacks0 = e.metrics.fallbacks
    for _ in range(t):
        e.sparse.recolor_sparse(rng.randrange(n))
        assert sparse_proper(e)
    assert e.metrics.fallbacks == fallbacks0


def test_excess_color_floor_after_color_sparse():
    n, delta = 400, 40
    eps = 0.3
    for seed in range(4):
        e = blank_engine(n, delta, eps=eps, seed=seed)
        random_graph(n, delta, 6000, seed=seed, g=e.graph)
        e.sparse.color_sparse()
        floor = eps * eps * delta  # floor knob pinned at 1.0 for the check
        for v in range(n):
            used = {e.colors.of[u] for u in e.graph.adj[v]}
            assert delta + 1 - len(used) >= floor


def test_in_phase_load_growth():
    n, delta = 1000, 100
    e = blank_engine(n, delta, seed=11)
    random_graph(n, delta, 15_000, seed=11, g=e.graph)
    e.sparse.color_sparse()
    start = [len(lst) for lst in e.colors.L]
    t = 80
    rng = random.Random(13)
    for _ in range(t):
        e.sparse.recolor_sparse(rng.randrange(n))
    growth = max(
        len(lst) - s0 for lst, s0 in zip(e.colors.L, start)
    )
    assert growth <= 8.0 * math.sqrt(math.log(n))


@given(st.randoms(use_true_random=False), st.integers(40, 160))
@settings(max_examples=40, deadline=None)
def test_feasible_matches_brute_force_in_both_probe_directions(rnd, m):
    # color 0 holds about half the vertices, more than any degree, while
    # the other lists stay short, so both the adjacency-side walk
    # (deg(v) < |L(c)|) and the list-side walk (deg(v) > |L(c)|) occur
    n, delta = 40, 10
    e = blank_engine(n, delta, cap_factor=1)
    random_graph(n, delta, m, seed=rnd.randrange(2**32), g=e.graph)
    for v in range(n):
        if rnd.random() < 0.5:
            e.colors.set_sparse(v, 0)
        elif rnd.random() < 0.8:
            e.colors.set_sparse(v, rnd.randrange(1, delta + 1))
    cap = e.sparse.cap
    directions = set()
    for v in range(n):
        adj = e.graph.adj[v]
        for c in range(delta + 1):
            old = e.colors.clear_sparse(v)
            lst = e.colors.L[c]
            brute = not any(w in lst for w in adj)
            walk = min(len(adj), len(lst))
            if len(adj) != len(lst):
                directions.add(len(adj) < len(lst))
            # every draw is c: v takes it at once, or after `cap` rejected
            # draws falls back to a color no neighbor holds
            e.sparse.rng = _ForcedDraws(c)
            probes0 = e.metrics.probes
            e.sparse.greedy_coloring([v])
            assert (e.colors.of[v] == c) == brute
            # each check is charged whole, on the shorter side
            assert e.metrics.probes - probes0 == walk * (1 if brute else cap)
            e.colors.clear_sparse(v)
            if old != BLANK:
                e.colors.set_sparse(v, old)
    assert directions == {True, False}

import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncolor.colors import BLANK
from dyncolor.errors import InvariantViolation
from dyncolor.graph import dele, ins

from conftest import add_edges, clique_edges, install_clique, make_engine, random_graph


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


class _ForcedDraws:
    """Stub rng: every palette draw returns the same value (below the palette)."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        return self.value

    def random(self):
        raise AssertionError("a pick draw was made")


class _ScriptedDraws:
    """Stub rng: palette and shuffle draws, and pick draws, come from two
    scripts in order; drawing past either script fails the test."""

    def __init__(self, draws, picks=()):
        self.draws = list(draws)
        self.picks = list(picks)

    def getrandbits(self, k):
        assert self.draws, "a draw past the script"
        return self.draws.pop(0)

    def random(self):
        assert self.picks, "a pick draw past the script"
        return self.picks.pop(0)

    def spent(self):
        return not self.draws and not self.picks


class _CountingRandom(random.Random):
    """A generator that counts its `random()` calls, the pass's pick draws."""

    picks = 0

    def random(self):
        self.picks += 1
        return super().random()


PICKED, UNPICKED = 0.0, 0.75


def test_one_shot_no_internal_edges_colors_all():
    # 0..19 each have a neighbor outside the pass and none inside it: every
    # picked vertex keeps its one draw, so nothing is left for the greedy
    # pass (an empty shuffle draws nothing)
    e = blank_engine(40, 6)
    add_edges(e.graph, [(v, v + 20) for v in range(20)])
    e.sparse.rng = rng = _ScriptedDraws(
        [v % e.palette for v in range(20)], [PICKED] * 20
    )
    e.sparse.color_sparse(range(20))
    assert rng.spent()
    assert e.colors.of[:20] == [v % e.palette for v in range(20)]
    assert list_consistency(e)


def test_coloring_passes_reject_a_colored_vertex():
    # the blank check comes before any pick or draw, for a vertex with a
    # neighbor (3) and without one (5)
    e = blank_engine(8, 4, seed=1)
    e.graph.apply(ins(3, 4))
    for v in (3, 5):
        e.colors.set_sparse(v, 2)
    e.sparse.rng = _ScriptedDraws([])
    for v in (3, 5):
        for color_pass in (e.sparse.color_sparse, e.sparse.greedy_coloring):
            with pytest.raises(InvariantViolation, match=f"vertex {v} is not blank"):
                color_pass([v])
    assert e.colors.of[3] == e.colors.of[5] == 2 and list(e.colors.L[2]) == [3, 5]


def test_isolated_vertex_is_charged_what_feasible_charges():
    # the draw loop takes an isolated vertex's first draw without checking
    # it; it must still charge what a feasible draw that walks nothing
    # does: vertex 1 has a neighbor and its draw lands on an empty L(1)
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
    # those of the phase-start pass's unchecked draw, with L(c) empty or
    # occupied
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
    """Stands in for a vertex's adjacency dict of `size` neighbors.

    Its size (`len` and truth) is the one thing the draw loop may read; a
    membership test, an iteration or an attribute read fails the test.
    """

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getattr__(self, name):
        raise AssertionError(f"the draw loop read adjacency attribute {name!r}")

    def _read(self, *args):
        raise AssertionError("the draw loop read the adjacency")

    __iter__ = __contains__ = __getitem__ = _read


def test_vertex_that_lost_its_last_edge_in_phase_takes_the_unchecked_draw():
    # its dict exists but is empty; the phase-start pass reads only its
    # size, walks nothing, makes no pick draw, and charges what the
    # isolated-vertex test above pins
    e = make_engine(6, 3, phase_len=10**9)
    e.process(ins(1, 2))
    e.process(ins(1, 3))
    e.process(dele(1, 2))
    e.process(dele(3, 1))
    assert e.graph.degree(1) == 0 and e.updates_in_phase == 4
    c = next(c for c in range(e.palette) if e.colors.L[c] and c != e.colors.of[1])
    e.colors.clear_sparse(1)
    e.graph.adj[1] = _UnreadAdjacency(0)
    e.sparse.rng = _ForcedDraws(c)
    m = e.metrics
    before = (m.work, m.probes, m.samples)
    e.sparse.color_sparse([1])
    assert e.colors.of[1] == c
    assert tuple(a - b for a, b in zip((m.work, m.probes, m.samples), before)) == (2, 0, 1)


def test_color_sparse_rejects_a_colored_vertex():
    # vertices 0..9 are matched in pairs and 10, 11 are isolated; whether
    # the pass picks or defers the vertices before it, a colored vertex
    # with a neighbor and a colored isolated vertex are refused, before the
    # pass draws for them
    for pick in (PICKED, UNPICKED):
        for colored in (5, 11):
            e = blank_engine(12, 4)
            for u in range(0, 10, 2):
                e.graph.apply(ins(u, u + 1))
            e.colors.set_sparse(colored, 2)
            linked = min(colored, 10)  # the vertices with a neighbor before it
            drawn = (linked if pick == PICKED else 0) + colored - linked
            e.sparse.rng = rng = _ScriptedDraws([3] * drawn, [pick] * linked)
            with pytest.raises(InvariantViolation, match=f"vertex {colored} is not blank"):
                e.sparse.color_sparse()
            assert rng.spent() and e.colors.of[colored] == 2


def test_one_shot_conflict_first_processed_wins():
    # both endpoints are picked and draw color 3: 0 keeps it, 1 is deferred
    # and takes its greedy draw, with no fallback
    e = blank_engine(8, 6)
    e.graph.apply(ins(0, 1))
    e.decomp.note_edge(ins(0, 1))
    e.sparse.rng = rng = _ScriptedDraws([3, 3, 2], [PICKED, PICKED])
    events = []
    e.colors.listeners.append(lambda v, old, new: events.append((v, new)))
    fallbacks0 = e.metrics.fallbacks
    e.sparse.color_sparse([0, 1])
    assert rng.spent() and e.metrics.fallbacks == fallbacks0
    assert events == [(0, 3), (1, 2)]
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


class _AllPicked(random.Random):
    """A generator whose pick draws all pick, without consuming state."""

    def random(self):
        return PICKED


def test_one_shot_success_rate_matches_reference():
    # every vertex is picked, so the pass is the one-shot process on all of
    # K_delta; the deferred vertices it hands to the greedy pass are its misses
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
        e = blank_engine(n, delta)
        add_edges(e.graph, pairs)
        for u, v in pairs:
            e.decomp.note_edge(ins(u, v))
        e.sparse.rng = _AllPicked(s)
        missed = []
        e.sparse.greedy_coloring = missed.extend
        e.sparse.color_sparse()
        assert sparse_proper(e)
        assert all((e.colors.of[v] == BLANK) == (v in missed) for v in range(n))
        got += (n - len(missed)) / n
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
    nbrs = neighbor_sets(edges)
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
        of[v] = reference_greedy_color(v, palette, cap, nbrs, rng, of)
        placed.append(v)
    return placed


def neighbor_sets(edges):
    nbrs = collections.defaultdict(set)
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def reference_greedy_color(v, palette, cap, nbrs, rng, of):
    """The first of up to `cap` draws no neighbor of v holds, else the
    lowest such color."""
    for _ in range(cap):
        c = rng.randrange(palette)
        if all(of[w] != c for w in nbrs[v]):
            return c
    return min(set(range(palette)) - {of[w] for w in nbrs[v]})


def reference_phase_start(palette, cap, edges, rng, of):
    """The phase-start pass as `color_sparse` makes it, straight-line.

    Over the vertices of `of`, ascending: a vertex without neighbors takes
    one draw; one with neighbors is picked with probability 1/2 and, if
    picked, keeps one draw if no neighbor holds it; the vertices left
    blank, in shuffled order, take their greedy color.  Colors `of` (None
    for blank) in place and returns (v, color, generator state) for each
    placement, in order.
    """
    nbrs = neighbor_sets(edges)
    placed, deferred = [], []
    for v in range(len(of)):
        if not nbrs[v]:
            c = rng.randrange(palette)
        elif rng.random() < 0.5:
            c = rng.randrange(palette)
            if any(of[w] == c for w in nbrs[v]):
                deferred.append(v)
                continue
        else:
            deferred.append(v)
            continue
        of[v] = c
        placed.append((v, c, rng.getstate()))
    rng.shuffle(deferred)
    for v in deferred:
        of[v] = reference_greedy_color(v, palette, cap, nbrs, rng, of)
        placed.append((v, of[v], rng.getstate()))
    return placed


def _frequencies(colorings, key):
    counts = collections.Counter(key(of) for of in colorings)
    return {k: cnt / len(colorings) for k, cnt in counts.items()}


def _total_variation(p, q):
    return sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q)) / 2


def test_color_sparse_keeps_the_law_of_the_pass_without_an_isolated_loop():
    # the ascending phase-start pass changes which draws are consumed, not
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


def test_color_sparse_makes_one_ascending_pass_draw_for_draw():
    # the phase-start pass gives each isolated vertex one draw and no pick,
    # gives each vertex with neighbors its pick and, if picked, one draw,
    # and places the vertices it leaves blank greedily after one shuffle.
    # Colors, the listeners' (v, BLANK, c) events, each L(c)'s order and the
    # generator state after every placement match the reference draw for
    # draw
    for seed in range(40):
        e = law_engine()
        rng = e.sparse.rng = random.Random(seed)
        events = []
        e.colors.listeners.append(
            lambda v, old, new: events.append((v, old, new, rng.getstate()))
        )
        e.sparse.color_sparse()
        of = [None] * LAW_N
        placed = reference_phase_start(
            e.palette, e.sparse.cap, LAW_EDGES, random.Random(seed), of
        )
        assert events == [(v, BLANK, c, state) for v, c, state in placed]
        assert e.colors.of == of
        for c, lst in enumerate(e.colors.L):
            assert lst == [v for v, new, _ in placed if new == c]


def charged(metrics, fn):
    """The (work, probes, samples) that running fn charges."""
    before = (metrics.work, metrics.probes, metrics.samples)
    fn()
    after = (metrics.work, metrics.probes, metrics.samples)
    return tuple(a - b for a, b in zip(after, before))


def test_phase_start_pass_charges_picks_draws_walks_and_swaps():
    # edges 0-1, 2-3, 2-4 and isolated 5, palette 4.  The pass: 0 is picked
    # and takes 1 on an empty L(1); 1 is deferred; 2 is picked and keeps 1
    # after walking L(1) = [0]; 3 is picked and refused 1 after walking its
    # adjacency [2]; 4 is deferred; 5 takes 0 unchecked.  The shuffle of
    # [1, 3, 4] draws j = 0 for i = 2 and j = 1 for i = 1: [4, 3, 1].  Then
    # 4 takes 2 on an empty L(2); 3 is refused 1 again and takes 3 on an
    # empty L(3); 1 is refused 1 after walking [0] and takes 2 after walking
    # L(2) = [4].  9 palette draws (a sample and two units each), 5 probes
    # (a unit each), 5 picks (a sample and a unit each), 2 swaps (a unit each)
    e = blank_engine(6, 3)
    add_edges(e.graph, [(0, 1), (2, 3), (2, 4)])
    e.sparse.rng = rng = _ScriptedDraws(
        [1, 1, 1, 0, 0, 1, 2, 1, 3, 1, 2],
        [PICKED, UNPICKED, PICKED, PICKED, UNPICKED],
    )
    events = []
    e.colors.listeners.append(lambda v, old, new: events.append(v))
    assert charged(e.metrics, e.sparse.color_sparse) == (30, 5, 14)
    assert rng.spent()
    assert events == [0, 2, 5, 4, 3, 1]
    assert e.colors.of == [1, 2, 1, 3, 2, 0]


def test_draw_on_an_empty_class_does_not_read_adjacency():
    # 0's neighbor 1 holds color 2; a draw of the empty color 3 is feasible
    # whatever 0's neighbors are, so the in-phase recolor and the
    # phase-start pass place 0 on it reading only the size of 0's adjacency,
    # charging a walk of nothing (and, in the pass, the pick)
    e = blank_engine(4, 3)
    e.graph.apply(ins(0, 1))
    e.colors.set_sparse(1, 2)
    e.graph.adj[0] = _UnreadAdjacency(1)
    e.sparse.rng = _ForcedDraws(3)
    assert charged(e.metrics, lambda: e.sparse.recolor_sparse(0)) == (2, 0, 1)
    assert e.colors.of[0] == 3
    e.colors.clear_sparse(0)
    e.sparse.rng = rng = _ScriptedDraws([3], [PICKED])
    assert charged(e.metrics, lambda: e.sparse.color_sparse([0])) == (3, 0, 2)
    assert rng.spent() and e.colors.of[0] == 3


def color_sparse_record(engine, *args):
    """What `color_sparse(*args)` did: its events, each with the generator
    state after it, the coloring, every L(c), the final generator state and
    the charges."""
    rng = engine.sparse.rng
    events = []
    engine.colors.listeners.append(
        lambda v, old, new: events.append((v, new, rng.getstate()))
    )
    cost = charged(engine.metrics, lambda: engine.sparse.color_sparse(*args))
    L = [list(lst) for lst in engine.colors.L]
    return events, list(engine.colors.of), L, rng.getstate(), cost


@pytest.mark.parametrize("members", [(), (3, 7, 8, 12, 20)], ids=["no-clique", "clique"])
def test_default_vertex_list_is_every_sparse_vertex_ascending(members):
    # with no argument `color_sparse` hands on the graph's id list while no
    # clique exists and filters it by `clique_of` otherwise.  Either way it
    # makes the pass the ascending sparse ids make, draw for draw, and
    # leaves the clique's members blank
    n = 30
    sparse = [v for v in range(n) if v not in members]
    runs = []
    for args in ((), (sparse if members else range(n),)):
        e = blank_engine(n, 6, seed=3)
        random_graph(n, 6, 60, seed=3, g=e.graph)
        if members:
            install_clique(e, members)
        runs.append(color_sparse_record(e, *args))
        assert all(e.colors.of[v] == BLANK for v in members)
        assert BLANK not in (e.colors.of[v] for v in sparse)
    assert runs[0] == runs[1]


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

import random
from functools import lru_cache

import pytest

from dyncolor.colors import BLANK
from dyncolor.errors import IterationCapExceeded
from dyncolor.graph import dele, ins
from dyncolor.verify import ProperWatch, palette_identity_gap, verify

from conftest import dense_fixture, make_engine


def maximum_matching_size(pairs):
    """Exact maximum matching by branch-and-memo; fine for small graphs."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    @lru_cache(maxsize=None)
    def rec(avail: frozenset):
        for u in sorted(avail):
            mates = [w for w in adj.get(u, ()) if w in avail]
            if not mates:
                continue
            best = rec(avail - {u})
            for w in mates:
                best = max(best, 1 + rec(avail - {u, w}))
            return best
        return 0

    return rec(frozenset(adj))


def perfect_matching_holes(members):
    ms = sorted(members)
    return [(ms[i], ms[i + 1]) for i in range(0, len(ms) - 1, 2)]


def globally_proper(engine):
    of = engine.colors.of
    return all(of[u] != of[v] for u, v in engine.graph.edges())


def identity_ok(engine, clique):
    return palette_identity_gap(clique, engine.colors) == 0


# ---- non-edge matching initialization -------------------------------------------


def test_init_matchings_no_nonedges():
    delta = 12
    engine, (c,) = dense_fixture(24, delta, [list(range(delta + 1))])
    assert c.nonedge_count == 0
    assert c.matching_size() == 0


def test_init_matchings_perfect_matching_of_holes():
    delta = 13
    members = list(range(delta + 1))  # even count
    holes = perfect_matching_holes(members)
    engine, (c,) = dense_fixture(28, delta, [members], holes=holes)
    # disjoint non-edges: the maximal matching must take all of them
    assert c.matching_size() == len(holes)
    assert c.matching_pairs() == sorted(holes)


def test_init_matchings_vs_maximum_oracle():
    delta = 16
    members = list(range(delta + 1))
    rng = random.Random(5)
    holes = set()
    for v in members:
        for u in rng.sample([m for m in members if m != v], 3):
            holes.add((min(u, v), max(u, v)))
    engine, (c,) = dense_fixture(34, delta, [members], holes=sorted(holes))
    m = c.matching_size()
    opt = maximum_matching_size(c_pairs(c))
    maxdeg = max(len(s) for s in c.nonedges.values())
    assert m >= opt / 2  # maximal is a 2-approximation
    assert m >= c.nonedge_count / (2 * maxdeg)


def c_pairs(clique):
    return [
        (u, v)
        for u, ps in clique.nonedges.items()
        for v in ps
        if u < v
    ]


# ---- maintain-matching -------------------------------------------------------------


def test_maintain_matching_deletion_matches_free_pair():
    delta = 12
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(26, delta, [members])
    u, v = 4, 9
    engine.graph.apply(dele(u, v))
    engine.decomp.note_edge(dele(u, v))
    added = engine.dense.maintain_matching(c, dele(u, v))
    assert added == [(min(u, v), max(u, v))] or added == [(u, v)]
    assert c.partner[u] == v


def test_maintain_matching_insertion_rematches_both_sides():
    delta = 12
    members = list(range(delta + 1))
    holes = [(0, 1), (0, 2), (1, 3)]
    engine, (c,) = dense_fixture(26, delta, [members], holes=holes)
    assert c.matching_pairs() == [(0, 1)]  # greedy takes the lowest pair
    engine.graph.apply(ins(0, 1))
    engine.decomp.note_edge(ins(0, 1))
    added = engine.dense.maintain_matching(c, ins(0, 1))
    assert sorted(added) == [(0, 2), (1, 3)]
    assert c.matching_size() == 2


def test_maintain_matching_insertion_on_unmatched_pair():
    delta = 12
    members = list(range(delta + 1))
    holes = [(0, 1), (0, 2)]
    engine, (c,) = dense_fixture(26, delta, [members], holes=holes)
    assert c.matching_pairs() == [(0, 1)]
    engine.graph.apply(ins(0, 2))
    engine.decomp.note_edge(ins(0, 2))
    added = engine.dense.maintain_matching(c, ins(0, 2))
    assert added == []
    assert c.matching_pairs() == [(0, 1)]


# ---- update-non-edges ----------------------------------------------------------------


def test_update_non_edges_large_regime_insertion_unmatches():
    delta = 12
    members = list(range(delta + 1))
    holes = [(0, 1), (2, 3)]
    engine, (c,) = dense_fixture(26, delta, [members], holes=holes)
    c.large_regime = True
    engine.graph.apply(ins(0, 1))
    engine.decomp.note_edge(ins(0, 1))
    assert engine.dense.update_non_edges(c, ins(0, 1)) == []
    assert 0 not in c.partner and 1 not in c.partner
    assert c.matching_pairs() == [(2, 3)]


def test_update_non_edges_small_regime_deletion():
    delta = 12
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(26, delta, [members])
    assert not c.large_regime
    engine.graph.apply(dele(5, 6))
    engine.decomp.note_edge(dele(5, 6))
    assert engine.dense.update_non_edges(c, dele(5, 6)) == [(5, 6)]
    assert c.partner[5] == 6 and c.matching_pairs() == [(5, 6)]


def test_update_non_edges_untouched_matching():
    delta = 12
    members = list(range(delta + 1))
    holes = [(0, 1), (0, 2)]
    engine, (c,) = dense_fixture(26, delta, [members], holes=holes)
    engine.graph.apply(ins(0, 2))  # (0,2) is an unmatched non-edge
    engine.decomp.note_edge(ins(0, 2))
    assert engine.dense.update_non_edges(c, ins(0, 2)) == []
    assert c.matching_pairs() == [(0, 1)]


# ---- recolor-non-edge -------------------------------------------------------------------


def test_recolor_non_edge_isolated_first_sample():
    delta = 12
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(26, delta, [members], holes=[(0, 1)])
    assert c.matching_pairs() == [(0, 1)]
    samples0 = engine.metrics.samples
    col = engine.dense.recolor_non_edge(c, 0, 1)
    assert engine.metrics.samples - samples0 == 1
    assert engine.colors.of[0] == engine.colors.of[1] == col


def test_recolor_non_edge_unique_survivor():
    delta = 10
    members = list(range(delta + 1))
    ext0, ext1 = delta + 2, delta + 3
    engine, (c,) = dense_fixture(
        26, delta, [members], holes=[(0, 1)],
        extra_edges=[(0, ext0), (1, ext1)],
    )
    book = c.book
    shared = engine.colors.of[0]
    survivor = (shared + 1) % engine.palette
    # fence off every color except the survivor and the pair's own color,
    # then block the pair's own color through the external neighbors
    for col in range(engine.palette):
        if col in (shared, survivor) or col in book.an:
            continue
        book.an[col] = (2, 3)
    for ext in (ext0, ext1):
        engine.colors.clear_sparse(ext)
        engine.colors.set_sparse(ext, shared)
    # brute-force the survivor: releasing the endpoints frees `shared` from
    # the pair table, but the external neighbors still block it
    feasible = [
        col
        for col in range(engine.palette)
        if (col not in book.an or col == shared) and col != shared
    ]
    assert feasible == [survivor]
    got = engine.dense.recolor_non_edge(c, 0, 1)
    assert got == survivor
    assert engine.colors.of[0] == engine.colors.of[1] == survivor


def test_recolor_non_edge_acceptance_floor():
    # worst-case shape: half the palette burnt by pair colors, a few more
    # blocked externally; the exact acceptance ratio stays >= 0.45
    delta = 100
    members = list(range(delta + 1))
    holes = [(0, 1)]  # both endpoints keep one degree slot for a blocker
    ext = [(0, delta + 2), (1, delta + 3)]
    engine, (c,) = dense_fixture(
        120, delta, [members], holes=holes, extra_edges=ext
    )
    book = c.book
    pair_color = engine.colors.of[0]
    filler = [col for col in range(engine.palette) if col != pair_color][:50]
    for col in filler:
        book.an.setdefault(col, (2, 3))
    blocked = {engine.colors.of[delta + 2], engine.colors.of[delta + 3]}
    feasible = sum(
        1
        for col in range(engine.palette)
        if (col not in book.an or col == pair_color) and col not in blocked
    )
    assert feasible / engine.palette >= 0.45
    # Monte-Carlo agreement: mean sample count tracks 1/p
    total = 0
    trials = 40
    for _ in range(trials):
        s0 = engine.metrics.samples
        engine.dense.recolor_non_edge(c, 0, 1)
        total += engine.metrics.samples - s0
    assert total / trials <= 1.5 / (feasible / engine.palette)


# ---- the pair path ---------------------------------------------------------------------------


def cap_pair(engine, pair, shared=True):
    """Make the capped draw give up at once on `pair`, as past its cap.

    Without `shared`, the palette scan finds no color for it either.
    """
    dense = engine.dense
    draw, feasible = dense.recolor_non_edge, dense._pair_external_feasible

    def capped(clique, u, v):
        if {u, v} == set(pair):
            raise IterationCapExceeded("recolor_non_edge", (u, v))
        return draw(clique, u, v)

    dense.recolor_non_edge = capped
    if not shared:
        dense._pair_external_feasible = (
            lambda clique, u, v, col: {u, v} != set(pair) and feasible(clique, u, v, col)
        )


def test_pair_scan_takes_a_private_color_and_evicts_its_owner():
    # the deletion opens the non-edge (11,12), which the small regime
    # matches in-phase (regime_frac pins it); past
    # the draw's cap the pair takes the lowest color no pair holds, which a
    # member holds privately
    engine, (c,) = dense_fixture(
        28, 12, [list(range(13))], holes=[(0, 1)], seed=3, regime_frac=1.0
    )
    cap_pair(engine, (11, 12))
    book = c.book
    want = min(col for col in range(engine.palette) if col not in book.an)
    owner = book.mp[want]
    assert owner not in (11, 12)
    fallbacks = engine.metrics.fallbacks
    engine.process(dele(11, 12))
    of = engine.colors.of
    assert c.partner.get(11) == 12 and book.an[want] == (11, 12)
    assert of[11] == of[12] == want
    assert of[owner] not in (BLANK, want) and book.mp[of[owner]] == owner
    assert engine.metrics.fallbacks == fallbacks + 1
    rep = verify(engine, boundary=False)
    assert rep.passed, rep.failed_names()


def test_pair_without_a_shared_color_is_dissolved_and_rescanned():
    # as above, but no color fits the new pair: it leaves the matching and
    # each endpoint is rescanned onto a private color
    engine, (c,) = dense_fixture(
        28, 12, [list(range(13))], holes=[(0, 1)], seed=3, regime_frac=1.0
    )
    cap_pair(engine, (2, 3), shared=False)
    fallbacks = engine.metrics.fallbacks
    engine.process(dele(2, 3))
    of = engine.colors.of
    assert 2 not in c.partner and 3 not in c.partner
    # the matching stays non-maximal until the next boundary: the free
    # endpoints keep their own non-edge
    assert 3 in c.nonedges[2] and 2 in c.nonedges[3]
    assert {2, 3} <= set(c.book.big_l)
    assert BLANK not in (of[2], of[3]) and of[2] != of[3]
    assert c.book.mp[of[2]] == 2 and c.book.mp[of[3]] == 3
    assert engine.metrics.fallbacks == fallbacks + 1
    rep = verify(engine, boundary=False)
    assert rep.passed, rep.failed_names()


def test_rebuild_evicts_the_owner_of_a_color_a_pair_takes():
    # the rebuild dissolves (0,1) and rescans both onto private colors; a
    # later pair drawing one of them must evict its owner, or the owner and
    # the pair, its neighbors, share a color
    for seed in range(60):
        engine, (c,) = dense_fixture(
            28, 12, [list(range(13))], holes=[(0, 1), (2, 3)], seed=seed
        )
        cap_pair(engine, (0, 1), shared=False)
        engine.rebuild_colors()
        assert 0 not in c.partner and c.partner.get(2) == 3
        rep = verify(engine)
        assert rep.passed, (seed, rep.failed_names())


# ---- edge counters --------------------------------------------------------------------------


def test_update_edge_counts_no_dense_neighbors():
    delta = 12
    engine, (c,) = dense_fixture(30, delta, [list(range(delta + 1))])
    v = delta + 3
    before = dict(c.book.t_c)
    engine.dense.update_edge_counts(v, 0, 1)
    assert c.book.t_c == before


def test_update_edge_counts_shift_by_neighbor_count():
    delta = 12
    members = list(range(delta + 1))
    v = delta + 3
    holes = [(0, 3), (1, 4), (2, 5)]  # degree slack for the external edges
    engine, (c,) = dense_fixture(
        30, delta, [members], holes=holes, extra_edges=[(v, 0), (v, 1), (v, 2)]
    )
    old = engine.colors.of[v]
    assert c.book.t_c.get(old, 0) >= 3
    before_old = c.book.t_c.get(old, 0)
    new = (old + 1) % engine.palette
    before_new = c.book.t_c.get(new, 0)
    engine.dense.update_edge_counts(v, old, new)
    assert c.book.t_c.get(old, 0) == before_old - 3
    assert c.book.t_c.get(new, 0) == before_new + 3
    engine.dense.update_edge_counts(v, new, old)  # restore


def test_edge_counts_full_recount_after_random_recolors(rng):
    delta = 12
    members = list(range(delta + 1))
    holes = perfect_matching_holes(members[:12])  # slack on members 0..11
    outside = [delta + 2 + i for i in range(4)]
    extra = [(o, m) for i, o in enumerate(outside) for m in members[3 * i : 3 * i + 3]]
    engine, (c,) = dense_fixture(34, delta, [members], holes=holes, extra_edges=extra)
    for _ in range(40):
        v = rng.choice(outside)
        old = engine.colors.of[v]
        new = engine.sparse.recolor_sparse(v)
        engine.dense.update_edge_counts(v, old, new)
    want = {}
    for m in members:
        for u in engine.graph.adj[m]:
            if engine.decomp.clique_of[u] is None:
                col = engine.colors.of[u]
                want[col] = want.get(col, 0) + 1
    assert want == c.book.t_c


# ---- the dispatcher ----------------------------------------------------------------------------


def test_match_dispatch_branches(monkeypatch):
    delta = 20
    calls = []

    def rig(engine):
        monkeypatch.setattr(engine.dense, "random_match", lambda v: calls.append("random"))
        monkeypatch.setattr(engine.dense, "match_large", lambda v: calls.append("large"))
        monkeypatch.setattr(engine.dense, "match_small", lambda v: calls.append("small"))

    # matching exactly delta/10 -> random branch
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(44, delta, [members], holes=[(0, 1), (2, 3)])
    assert c.matching_size() == 2 == engine.dense.dispatch_limit
    rig(engine)
    engine.dense.match(min(c.book.big_l))
    # empty matching, |C| = delta + 1 > delta -> large branch
    engine2, (c2,) = dense_fixture(44, delta, [members])
    assert c2.matching_size() == 0 and len(c2.members) > delta
    rig(engine2)
    engine2.dense.match(min(c2.book.big_l))
    # empty matching, |C| = delta -> small branch
    engine3, (c3,) = dense_fixture(44, delta, [list(range(delta))])
    assert c3.matching_size() == 0 and len(c3.members) == delta
    rig(engine3)
    engine3.dense.match(min(c3.book.big_l))
    assert calls == ["random", "large", "small"]


# ---- random-match ----------------------------------------------------------------------------


def test_random_match_floor_and_success():
    delta = 20
    members = list(range(delta + 1))
    holes = [(0, 1), (2, 3), (4, 5)]
    engine, (c,) = dense_fixture(44, delta, [members], holes=holes)
    assert c.matching_size() == 3 >= engine.dense.dispatch_limit
    v = min(c.book.big_l)
    engine.dense.release_private(c, v)
    feasible = sum(
        1 for col in c.book.A if engine.dense.full_feasible(v, col)
    )
    assert feasible / engine.palette >= 0.08
    engine.dense.random_match(v)
    assert engine.colors.of[v] != BLANK
    assert globally_proper(engine) and identity_ok(engine, c)


def test_random_match_unique_survivor():
    delta = 20
    members = list(range(delta + 1))
    blocker = delta + 3
    engine, (c,) = dense_fixture(
        44, delta, [members], holes=[(0, 1), (0, 2)], extra_edges=[(blocker, 2)]
    )
    v = 2  # unmatched hole endpoint: it has degree slack for the blocker
    assert v in c.book.big_l
    engine.dense.release_private(c, v)
    avail = sorted(c.book.A)
    assert len(avail) == 2  # freed color plus the palette slack
    # block one of the two through the external sparse neighbor
    engine.colors.clear_sparse(blocker)
    engine.colors.set_sparse(blocker, avail[0])
    survivor = avail[1]
    brute = [col for col in avail if engine.dense.full_feasible(v, col)]
    assert brute == [survivor]
    engine.dense.random_match(v)
    assert engine.colors.of[v] == survivor


def test_random_match_cap_exceeded_and_engine_fallback():
    delta = 20
    members = list(range(delta + 1))
    blocker = delta + 3
    engine, (c,) = dense_fixture(
        44, delta, [members], holes=[(0, 1), (0, 2)], extra_edges=[(blocker, 2)]
    )
    v = 2
    assert v in c.book.big_l
    engine.dense.release_private(c, v)
    for col in sorted(c.book.A):
        engine.colors.clear_sparse(blocker)
        engine.colors.set_sparse(blocker, col)
        if len(c.book.A) == 1:
            break
    # every available color is now blocked via the external neighbor only if
    # |A| == 1; rig it down to that state
    while len(c.book.A) > 1:
        col = next(iter(c.book.A))
        c.book.A.discard(col)
    engine.colors.clear_sparse(blocker)
    engine.colors.set_sparse(blocker, next(iter(c.book.A)))
    with pytest.raises(IterationCapExceeded):
        engine.dense.random_match(v)
    # the dispatcher may still rescue v via an augmenting path; force the
    # cap on the whole matcher to exercise the member path's rescan fallback
    orig = engine.dense.match
    engine.dense.match = lambda w: (_ for _ in ()).throw(IterationCapExceeded("match", w))
    try:
        engine.dense.rematch(c, v)
    finally:
        engine.dense.match = orig
    assert engine.colors.of[v] != BLANK
    assert globally_proper(engine)
    assert engine.metrics.fallbacks >= 1


# ---- match-large ------------------------------------------------------------------------------


def test_match_large_direct_assignment():
    delta = 12
    members = list(range(delta + 1))
    engine, (c,) = dense_fixture(28, delta, [members])
    v = min(c.book.big_l)
    freed = engine.dense.release_private(c, v)
    engine.dense.match_large(v)
    assert engine.colors.of[v] == freed  # only free color, feasible directly
    assert identity_ok(engine, c) and globally_proper(engine)


def test_match_large_swap_two_blocking():
    # v's only unused color is blocked externally: a length-3 swap through a
    # random member must fire, verified against properness brute force
    delta = 12
    members = list(range(delta + 1))
    blocker = delta + 4
    engine, (c,) = dense_fixture(
        30, delta, [members], holes=[(7, 8), (7, 9)], extra_edges=[(blocker, 9)]
    )
    v = 9  # unmatched hole endpoint, still in big_l, with degree slack
    assert v in c.book.big_l
    freed = engine.dense.release_private(c, v)
    engine.colors.clear_sparse(blocker)
    engine.colors.set_sparse(blocker, freed)
    assert not engine.dense.full_feasible(v, freed)
    engine.dense.match_large(v)
    assert engine.colors.of[v] != BLANK and engine.colors.of[v] != freed
    assert globally_proper(engine) and identity_ok(engine, c)
    # the displaced member took the freed color
    assert c.book.mp.get(freed) is not None


def test_match_large_palette_identities():
    delta = 14
    members = list(range(delta + 2))  # large clique needs holes for the cap
    holes = perfect_matching_holes(members)
    engine, (c,) = dense_fixture(34, delta, [members], holes=holes)
    k = len(c.members) - delta  # size above the cap
    assert k == 2
    t_ext = sum(
        1 for v in c.members for u in engine.graph.adj[v]
        if engine.decomp.clique_of[u] != c.id
    )
    eps = engine.params.epsilon
    m = c.matching_size()
    assert c.nonedge_count >= (k - 1) * delta / 2 + t_ext / 2
    assert m >= (k - 1) / (100 * eps) + t_ext / (100 * eps * delta)
    r_size = engine.palette - len(c.book.an)
    assert r_size >= engine.palette - m


# ---- match-small -------------------------------------------------------------------------------


def test_match_small_palette_identity_counts():
    # |C| = delta (k = 1), empty matching, one blank vertex: |A| must equal
    # k + |M_N| + |U| = 2, then drop to 1 once the vertex is colored
    delta = 12
    members = list(range(delta))
    engine, (c,) = dense_fixture(28, delta, [members])
    v = min(c.book.big_l)
    engine.dense.release_private(c, v)
    assert len(c.book.A) == 1 + 0 + 1
    engine.dense.match_small(v)
    assert len(c.book.A) == 1
    assert identity_ok(engine, c) and globally_proper(engine)


def test_match_small_isolated_succeeds_quickly():
    delta = 12
    members = list(range(delta))
    engine, (c,) = dense_fixture(28, delta, [members])
    for seed in range(20):
        engine.rng.seed(seed)
        v = max(c.book.big_l)
        engine.dense.release_private(c, v)
        engine.dense.match_small(v)
        assert engine.colors.of[v] != BLANK
        assert globally_proper(engine) and identity_ok(engine, c)
        # private matching stays a matching
        assert len(set(c.book.mp.values())) == len(c.book.mp)


def test_match_small_with_external_blockers_over_seeds():
    delta = 12
    members = list(range(delta))
    blockers = [delta + 2, delta + 3]
    extra = [(blockers[0], 0), (blockers[1], 1)]
    engine, (c,) = dense_fixture(30, delta, [members], extra_edges=extra)
    for seed in range(30):
        engine.rng.seed(seed)
        v = 0
        engine.dense.release_private(c, v)
        engine.dense.match_small(v)
        assert engine.colors.of[v] != BLANK
        assert globally_proper(engine) and identity_ok(engine, c)


# ---- cross-op invariants -----------------------------------------------------------------------


def test_color_discipline_after_update_volley(rng):
    delta = 14
    members = list(range(delta + 1))
    holes = [(0, 1), (2, 3), (4, 5)]
    engine, (c,) = dense_fixture(34, delta, [members], holes=holes, seed=5)
    for step in range(120):
        u, v = rng.sample(members, 2)
        upd = ins(u, v) if not engine.graph.has_edge(u, v) else dele(u, v)
        if not engine.graph.is_legal(upd):
            continue
        engine.process(upd)
        by_color = {}
        for m in c.members:
            by_color.setdefault(engine.colors.of[m], []).append(m)
        for col, vs in by_color.items():
            assert len(vs) <= 2
            if len(vs) == 2:
                assert c.partner.get(vs[0]) == vs[1]
                assert c.book.an.get(col) is not None
        assert identity_ok(engine, c)
        assert globally_proper(engine)
        m = c.matching_size()
        eps = engine.params.epsilon
        assert m >= c.nonedge_count / (50 * eps * delta)


# ---- two adjacent cliques ---------------------------------------------------------------------

TWO_A = list(range(15))
TWO_B = list(range(15, 30))
TWO_SPARSE = list(range(30, 60))


def spy_on_dense_paths(engine):
    """Count four dense paths by wrapping the engine's methods on the instance.

    - "cross": a conflict resolved for an inserted edge between two cliques;
    - "evict": a member resolved by `evict_conflicts`;
    - "full_ld": `full_feasible` rejecting on a dense neighbor, L(c) clear;
    - "pair_ld": `_pair_external_feasible` rejecting on a dense neighbor of
      u or v outside the clique, L(c) clear of both.
    """
    counts = dict.fromkeys(("cross", "evict", "full_ld", "pair_ld"), 0)
    dense = engine.dense
    clique_of, adj, L = engine.decomp.clique_of, engine.graph.adj, engine.colors.L
    state = {"upd": None, "evicting": False}
    process, resolve, evict = engine.process, dense.resolve_conflict, dense.evict_conflicts
    full, pair = dense.full_feasible, dense._pair_external_feasible

    def spy_process(upd):
        state["upd"] = upd
        process(upd)

    def spy_resolve(d):
        upd = state["upd"]
        cu, cv = clique_of[upd.u], clique_of[upd.v]
        if state["evicting"]:
            counts["evict"] += 1
        elif upd.insert and None not in (cu, cv) and cu != cv:
            counts["cross"] += 1
        resolve(d)

    def spy_evict(v, c):
        state["evicting"] = True
        try:
            evict(v, c)
        finally:
            state["evicting"] = False

    def spy_full(v, c, exclude=()):
        ok = full(v, c, exclude)
        if not ok and not any(w in adj[v] for w in L[c]):
            counts["full_ld"] += 1
        return ok

    def spy_pair(clique, u, v, c):
        ok = pair(clique, u, v, c)
        if not ok and not any(w in adj[u] or w in adj[v] for w in L[c]):
            counts["pair_ld"] += 1
        return ok

    engine.process = spy_process
    dense.resolve_conflict = spy_resolve
    dense.evict_conflicts = spy_evict
    dense.full_feasible = spy_full
    dense._pair_external_feasible = spy_pair
    return counts


def two_clique_update(engine, rng):
    """One update next to or between the two cliques, or None.

    A monochromatic edge between the cliques (either endpoint gives way),
    an edge from a sparse vertex to a member, a monochromatic sparse edge
    whose recolored endpoint has a dense neighbor, else the deletion of an
    edge that is not inside a clique.
    """
    g, of, clique_of = engine.graph, engine.colors.of, engine.decomp.clique_of
    delta = g.delta

    def free(x):
        return g.degree(x) < delta

    r = rng.random()
    if r < 0.4:
        a = rng.choice(TWO_A + TWO_B)
        other = TWO_B if a in TWO_A else TWO_A
        cands = [b for b in other if of[b] == of[a] and not g.has_edge(a, b) and free(b)]
        if cands and free(a):
            b = rng.choice(cands)
            return ins(a, b) if rng.random() < 0.5 else ins(b, a)
    elif r < 0.6:
        s, m = rng.choice(TWO_SPARSE), rng.choice(TWO_A + TWO_B)
        if not g.has_edge(s, m) and free(s) and free(m):
            return ins(s, m)
    elif r < 0.8:
        near = [x for x in TWO_SPARSE if any(clique_of[w] is not None for w in g.adj[x])]
        s = rng.choice(near or TWO_SPARSE)
        cands = [
            x for x in TWO_SPARSE
            if x != s and of[x] == of[s] and not g.has_edge(s, x) and free(x)
        ]
        if cands and free(s):
            return ins(rng.choice(cands), s)  # s, the second endpoint, recolors
    edges = [
        (u, v) for u, v in g.edges()
        if clique_of[u] is None or clique_of[u] != clique_of[v]
    ]
    return dele(*rng.choice(edges)) if edges else None


def test_two_adjacent_cliques_stay_proper_on_every_dense_path():
    """Monochromatic edges between two cliques and sparse edges beside them.

    Each clique has three holes, so three pairs are matched, and its last
    nine members each have a sparse neighbor.  Over the seeds the run must
    reach all four counted paths, with no watch violation, no anchor
    repair and a clean in-phase audit at the end of every run.
    """
    holes = [(0, 1), (2, 3), (4, 5), (15, 16), (17, 18), (19, 20)]
    extra = [(30 + i // 3, m) for i, m in enumerate(TWO_A[6:] + TWO_B[6:])]
    total = dict.fromkeys(("cross", "evict", "full_ld", "pair_ld"), 0)
    for seed in range(20):
        engine, cliques = dense_fixture(
            60, 16, [TWO_A, TWO_B], holes=holes, extra_edges=extra, seed=seed
        )
        assert [c.matching_size() for c in cliques] == [3, 3]
        counts = spy_on_dense_paths(engine)
        watch = ProperWatch(engine)
        rng = random.Random(seed)
        for _ in range(60):
            upd = two_clique_update(engine, rng)
            if upd is None:
                continue
            engine.process(upd)
            watch.check(upd)
        assert watch.violations == [], f"seed {seed}"
        assert engine.metrics.anchor_repairs == 0, f"seed {seed}"
        rep = verify(engine, boundary=False)
        assert rep.passed, f"seed {seed}: {rep.failed_names()}"
        for key, n in counts.items():
            total[key] += n
    assert all(total.values()), total

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from dyncolor import Engine, EngineConfig, make_adversary
from dyncolor.friends import MASK_DEGREE_PER_SAMPLE, FriendTracker, binomial_tails
from dyncolor.graph import DynamicGraph, dele, ins
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet

from conftest import add_edges, clique_edges, friend_set, random_graph, sweep_params


def make_tracker(g, eps, tau, k=None, fire=None, seed=0):
    params = ParamSet(epsilon=eps, tau=tau, sample_count_k=k, fire_threshold=fire, seed=seed)
    return FriendTracker(g, params, random.Random(seed), Metrics())


def paper_k(n, tau, c=3.0):
    return math.ceil(12.0 * c * math.log(n) / tau**2)


@cache
def fraction_tails(k, m, s, cuts):
    """P(Bin(k, s/m) >= j) for each j in cuts, as exact `Fraction`s."""
    p = Fraction(s, m)
    pmf = [math.comb(k, i) * p**i * (1 - p) ** (k - i) for i in range(k + 1)]
    return tuple(sum(pmf[max(j, 0) :]) for j in cuts)


def judge(tr, u, v):
    """Judge the edge (u, v) the way an insertion does; its membership per scale.

    The tracker's fire limit must exceed 1, so the one insertion fires no
    refresh: this is exactly one k-sample count from N(u), judged at the
    production thresholds of the two kept scales, 1 and 3.
    """
    assert tr.maintain_friends(ins(u, v)) == []
    return [u in tr.n1[v], u in tr.n3[v]]


def test_insertion_judges_clique_edge_friend_at_every_scale():
    # K_{delta+1}: every edge has delta-1 commons, far above the accept line;
    # with the analysis-grade sample count no trial among 1000 may miss
    delta = 64
    n = delta + 1
    eps, tau = 0.25, 1.0 / 12.0
    g = DynamicGraph(n, delta)
    add_edges(g, clique_edges(range(n)))
    assert g.common_neighbor_counter()(0, 1) == delta - 1
    assert delta - 1 >= (1 - eps + tau) * delta
    k = paper_k(n, tau)
    hits = 0
    trials = 1000
    for seed in range(trials):
        tr = make_tracker(g, eps, tau, k=k, fire=2, seed=seed)
        if judge(tr, 0, 1) == [True] * 2:
            hits += 1
    assert hits == trials  # failure probability is below n^-3 per trial


def test_insertion_judges_zero_commons_no_friend():
    g = DynamicGraph(4, 3)
    add_edges(g, [(0, 1)])
    tr = make_tracker(g, 0.25, 1.0 / 12.0, k=64, fire=2)
    assert judge(tr, 0, 1) == [False] * 2
    assert 1 not in tr.n1[0] and 1 not in tr.n3[0]


def test_insertion_judgement_gap_region_no_crash():
    # exactly (1-eps)*delta commons sits in the contract's gap: any outcome,
    # but the lists must stay consistent
    delta = 16
    eps, tau = 0.25, 1.0 / 12.0
    commons = int((1 - eps) * delta)  # 12
    n = 2 + commons + 2 * (delta - commons - 1)
    g = DynamicGraph(n, delta)
    u, v = 0, 1
    g.apply(ins(u, v))
    w = 2
    for _ in range(commons):
        g.apply(ins(u, w))
        g.apply(ins(v, w))
        w += 1
    for _ in range(delta - commons - 1):
        g.apply(ins(u, w))
        w += 1
        g.apply(ins(v, w))
        w += 1
    assert g.degree(u) == delta and g.degree(v) == delta
    assert g.common_neighbor_counter()(u, v) == commons
    for seed in range(20):
        tr = make_tracker(g, eps, tau, k=256, fire=2, seed=seed)
        judge(tr, u, v)
        assert tr.check_consistency() == []


def test_update_vertex_dense_clique_and_star():
    delta = 24
    n = delta + 1
    eps, tau = 0.2, 0.05
    g = DynamicGraph(n, delta)
    add_edges(g, clique_edges(range(n)))
    tr = make_tracker(g, eps, tau, k=128)
    tr.update_vertex(0)
    # all delta neighbors qualify as friends, at the strictest scale too
    assert tr.in_v1(0) and tr.in_v3(0)

    star = DynamicGraph(delta + 1, delta)
    add_edges(star, [(0, leaf) for leaf in range(1, delta + 1)])
    tr2 = make_tracker(star, eps, tau, k=128)
    tr2.update_vertex(0)
    # leaves share nothing with the center: not dense even at the loosest scale
    assert not tr2.in_v3(0)


def test_update_vertex_dense_at_threshold_friends():
    # vertex with exactly ceil((1-eps+tau)*delta) clique-certified friends,
    # its degree padded to delta with pendant leaves
    delta = 20
    eps, tau = 0.25, 1.0 / 12.0
    good = math.ceil((1 - eps + tau) * delta)  # friends inside a big clique
    g = DynamicGraph(2 * delta + 1, delta)
    v = 0
    add_edges(g, clique_edges(range(good + 1)))  # v plus its clique friends
    nxt = good + 1
    while g.degree(v) < delta:
        g.apply(ins(v, nxt))
        nxt += 1
    hits = 0
    for seed in range(50):
        tr = make_tracker(g, eps, tau, k=paper_k(g.n, tau), seed=seed)
        tr.update_vertex(v)
        hits += tr.in_v1(v)
    assert hits >= 48  # dense w.h.p. at the strictest scale: friends >= (1-eps)*delta


def test_maintain_friends_below_threshold():
    g = DynamicGraph(8, 4)
    tr = make_tracker(g, 0.2, 0.05, k=16, fire=3)
    g.apply(ins(0, 1))
    refreshed = tr.maintain_friends(ins(0, 1))
    assert refreshed == []
    assert tr.direct[0] == 1 and tr.direct[1] == 1


def test_maintain_friends_fire_threshold_one():
    g = DynamicGraph(8, 4)
    tr = make_tracker(g, 0.2, 0.05, k=16, fire=1)
    g.apply(ins(0, 1))
    refreshed = tr.maintain_friends(ins(0, 1))
    assert set(refreshed) >= {0, 1}
    assert tr.direct[0] == 0 and tr.direct[1] == 0


def test_maintain_friends_deletion_drops_all_scales():
    delta = 8
    g = DynamicGraph(delta + 1, delta)
    add_edges(g, clique_edges(range(delta + 1)))
    tr = make_tracker(g, 0.2, 0.05, k=64, fire=100)
    tr.update_vertex(0)
    assert 1 in tr.n3[0]
    g.apply(dele(0, 1))
    tr.maintain_friends(dele(0, 1))
    for lists in (tr.n1, tr.n3):
        assert 1 not in lists[0]
        assert 0 not in lists[1]


def test_counter_bound_between_updates():
    # direct + indirect stays below twice the firing limit at all times
    delta = 12
    g = DynamicGraph(40, delta)
    tr = make_tracker(g, 0.3, 0.1, k=8, fire=4)
    rng = random.Random(5)
    limit = tr.fire_limit
    for _ in range(1500):
        u, v = rng.randrange(40), rng.randrange(40)
        if u == v:
            continue
        upd = ins(u, v) if not g.has_edge(u, v) else dele(u, v)
        if not g.is_legal(upd):
            continue
        g.apply(upd)
        tr.maintain_friends(upd)
        for w in range(40):
            assert tr.direct[w] < limit
            assert tr.indirect[w] < limit
            assert tr.direct[w] + tr.indirect[w] <= 2 * limit - 2
    assert tr.check_consistency() == []


def test_soundness_against_oracle():
    # certificates: list membership implies many commons; many commons imply
    # membership (both up to tau slack), measured as a pass rate
    delta = 16
    n = 60
    eps, tau = 0.25, 1.0 / 12.0
    g = random_graph(n, delta, 300, seed=1)
    # plant a clique to get true friends in range
    for u, v in clique_edges(range(10)):
        if not g.has_edge(u, v) and g.degree(u) < delta and g.degree(v) < delta:
            g.apply(ins(u, v))
    tr = make_tracker(g, eps, tau, k=paper_k(n, tau), seed=3)
    for v in range(n):
        tr.update_vertex(v)
    count = g.common_neighbor_counter()
    for i, lists in ((1, tr.n1), (3, tr.n3)):
        checked = mism = 0
        hi = (1 - (i * eps + tau)) * delta
        lo = (1 - (i * eps - tau)) * delta
        for v in range(n):
            for u in g.adj[v]:
                checked += 1
                commons = count(u, v)
                if u in lists[v] and commons < hi:
                    mism += 1
                if u not in lists[v] and commons >= lo:
                    mism += 1
        assert checked > 0
        assert mism / checked <= 0.01, i


def test_amortized_work_shape():
    # sampling work per update stays within a constant of the analysis shape
    delta = 16
    n = 64
    eps, tau = 0.3, 0.1
    g = DynamicGraph(n, delta)
    params = ParamSet(epsilon=eps, tau=tau, sample_count_k=8)
    metrics = Metrics()
    tr = FriendTracker(g, params, random.Random(2), metrics)
    rng = random.Random(7)
    steps = 4000
    done = 0
    for _ in range(steps * 3):
        if done >= steps:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        upd = ins(u, v) if not g.has_edge(u, v) else dele(u, v)
        if not g.is_legal(upd):
            continue
        g.apply(upd)
        tr.maintain_friends(upd)
        done += 1
    f = tr.fire_limit
    k = tr.k
    shape = 3 * k + 2 * delta * k / f + 2 * delta * delta * k / (f * f)
    per_update = metrics.samples / done
    assert per_update <= 2.0 * shape


# ---- the batched refresh against the per-pair refresh it replaced ---------------


class _PerPairTracker(FriendTracker):
    """The refresh as one verdict draw and four set writes per pair.

    Reference for the batched refresh: it counts common neighbors with a
    set intersection and draws the pair's two verdicts with one `random()`
    against exact `Fraction` tails, or not at all when they are certain, so
    it shares no counting, tail or list-writing code with the tracker under
    test.
    """

    def _refresh_pair(self, u, v):
        nu = self.graph.adj[u]
        in1 = in3 = False
        if nu:
            self.metrics.samples += self.k
            self.metrics.work += self.k
            s = len(set(nu) & set(self.graph.adj[v]))
            cuts = tuple(math.ceil(t) for t in self._maintain_thr)
            q1, q3 = fraction_tails(self.k, len(nu), s, cuts)
            if q1 == 1:
                in1 = in3 = True
            elif q3:
                x = self.rng.random()
                in1, in3 = x < q1, x < q3
        for lst, inside in zip((self.n1, self.n3), (in1, in3)):
            if inside:
                friend_set(lst, u).add(v)
                friend_set(lst, v).add(u)
            else:
                lst[u].discard(v)
                lst[v].discard(u)

    def _drop_pair(self, u, v):
        for lst in (self.n1, self.n3):
            lst[u].discard(v)
            lst[v].discard(u)

    def update_vertex(self, v):
        for u in list(self.graph.adj[v]):
            self._refresh_pair(u, v)
        self.metrics.tracker_updates += 1

    def maintain_friends(self, upd):
        u, v = upd.u, upd.v
        self.direct[u] += 1
        self.direct[v] += 1
        if upd.insert:
            self._refresh_pair(u, v)
        else:
            self._drop_pair(u, v)
        fired = []
        for w in (u, v):
            if self.direct[w] >= self.fire_limit:
                self.update_vertex(w)
                self.direct[w] = 0
                fired.append(w)
        result = list(fired)
        if fired:
            spread = set()
            for y in fired:
                spread.update(self.graph.adj[y])
            for z in sorted(spread):
                self.indirect[z] += 1
                if self.indirect[z] >= self.fire_limit:
                    self.update_vertex(z)
                    self.indirect[z] = 0
                    if z not in fired:
                        result.append(z)
        return result


def _tracker_state(tr):
    # list(s) keeps each set's iteration order, which skipped no-op writes
    # must not change either
    return (
        [[list(s) for s in lst] for lst in (tr.n1, tr.n3)],
        tr.direct,
        tr.indirect,
        tr.metrics.samples,
        tr.metrics.work,
        tr.metrics.tracker_updates,
        tr.rng.getstate(),
    )


@pytest.mark.parametrize("seed", range(5))
def test_batched_refresh_matches_the_per_pair_refresh(seed):
    # dyadic eps and tau make the thresholds 13 and 5 of k = 16 samples
    # exactly, so a count on a threshold tells >= from >
    n, delta = 24, 16
    iso = n  # never gets an edge
    g = random_graph(n, delta, 150, seed=seed, g=DynamicGraph(n + 1, delta))
    params = ParamSet(epsilon=0.25, tau=0.25, sample_count_k=16, fire_threshold=3, seed=seed)
    new, ref = (
        cls(g, params, random.Random(seed), Metrics()) for cls in (FriendTracker, _PerPairTracker)
    )
    assert new._maintain_thr == [13.0, 5.0]
    edges = list(g.edges())
    for tr in (new, ref):
        pick = random.Random(seed + 1)
        for lst in (tr.n1, tr.n3):
            # symmetric lists: half of them edges, the rest arbitrary pairs
            for _ in range(60):
                u, v = pick.choice(edges) if pick.random() < 0.5 else pick.sample(range(n), 2)
                friend_set(lst, u).add(v)
                friend_set(lst, v).add(u)
            friend_set(lst, iso).add(0)
            friend_set(lst, 0).add(iso)
    assert _tracker_state(new) == _tracker_state(ref)
    # the isolated endpoint draws nothing and its stale pair goes
    state = new.rng.getstate()
    new._refresh(0, (iso,))
    ref._refresh_pair(iso, 0)
    assert new.rng.getstate() == state
    assert iso not in new.n1[0] and iso not in new.n3[0]
    assert _tracker_state(new) == _tracker_state(ref)
    ops = random.Random(seed + 2)
    for _ in range(400):
        if ops.random() < 0.2:
            v = ops.randrange(n)
            new.update_vertex(v)
            ref.update_vertex(v)
        else:
            u, v = ops.sample(range(n), 2)
            upd = dele(u, v) if g.has_edge(u, v) else ins(u, v)
            if not g.is_legal(upd):
                continue
            g.apply(upd)
            assert new.maintain_friends(upd) == ref.maintain_friends(upd)
        assert _tracker_state(new) == _tracker_state(ref)
    assert new.metrics.tracker_updates > 80


def _per_draw_counts(g, rng, k, v, us):
    """Per u in us, the hits among k draws of `rng.choices(N(u), k=k)` on N(v)."""
    near = g.adj[v]
    return [
        sum(w in near for w in rng.choices(list(g.adj[u]), k=k)) if g.adj[u] else 0
        for u in us
    ]


def _path(g, u, v, cap):
    """Where `_counts` takes s for the pair: the masks or a walk of one side."""
    du, dv = g.degree(u), g.degree(v)
    return "masks" if min(du, dv) >= cap else "walk u" if du <= dv else "walk v"


@pytest.mark.parametrize("seed", range(4))
def test_counts_match_the_per_draw_sampler(seed):
    # the per-draw sampler's charge, k samples and k units per pair whose u
    # has a neighbor, and its verdicts wherever they are certain; a doubtful
    # pair takes exactly one random() against the exact tails, a certain one
    # none.  k = 2 puts the mask degree at 4, inside these graphs' degree
    # range, so s comes from the masks and from a walk of either side
    n, delta, k = 60, 16, 2
    iso = n
    cap = MASK_DEGREE_PER_SAMPLE * k
    g = random_graph(n, delta, 220, seed=seed, g=DynamicGraph(n + 1, delta))
    tracker = FriendTracker(g, ParamSet(sample_count_k=k), random.Random(seed), Metrics())
    (t1, t3), cuts = tracker._maintain_thr, tracker._cuts
    ref = random.Random(seed)
    pick = random.Random(~seed)
    kinds = set()
    charged = 0
    for _ in range(200):
        v = pick.randrange(n)
        us = list(g.adj[v]) + pick.sample(range(n), 4) + [iso]
        for u, cnt in zip(us, tracker._counts(v, us)):
            if not g.adj[u]:
                assert cnt == 0
                continue
            charged += k
            s = len(set(g.adj[u]) & set(g.adj[v]))
            q1, q3 = fraction_tails(k, g.degree(u), s, cuts)
            doubt = 0 < q3 and q1 < 1
            if doubt:
                x = ref.random()
                assert (cnt >= t1, cnt >= t3) == (x < q1, x < q3)
            else:
                # no draw of the per-draw sampler can change a certain verdict
                (per,) = _per_draw_counts(g, random.Random(0), k, v, (u,))
                assert (cnt >= t1, cnt >= t3) == (per >= t1, per >= t3)
            kinds.add((_path(g, u, v, cap), doubt))
        assert tracker.rng.getstate() == ref.getstate()
    assert kinds == {(p, d) for p in ("masks", "walk u", "walk v") for d in (False, True)}
    assert tracker.metrics.samples == tracker.metrics.work == charged


# ---- the verdict law: tails, and s from the masks or a walk ----------------------


@pytest.mark.parametrize("k", [2, 12])
@pytest.mark.parametrize("m", [24, 64, 128])
def test_tail_tables_equal_the_exact_binomial_sums(k, m):
    # eps = tau = 0.2 puts the cuts at (2, 1) for k = 2 and (11, 6) for
    # k = 12; the cuts 0 and k + 1 read the certain verdicts
    g = DynamicGraph(m + 1, m)
    tr = make_tracker(g, 0.2, 0.2, k=k)
    cuts = tr._cuts
    assert cuts == {2: (2, 1), 12: (11, 6)}[k]
    table = tr._tail_table(m)
    assert tr._tails[m] is table and len(table) == 2 * (m + 1)
    # a row is built when a pair first reads it
    assert all(math.isnan(q) for q in table)
    for s in range(m + 1):
        assert tr._tail_row(table, m, 2 * s) == list(table[2 * s : 2 * s + 2])
        for col, q in enumerate(fraction_tails(k, m, s, cuts)):
            assert abs(table[2 * s + col] - float(q)) <= 1e-12, (s, cuts[col])
        assert binomial_tails(k, m, s, (0, k + 1)) == [1.0, 0.0]


def _integer_tails(coef, m, s, cuts):
    """P(Bin(k, s/m) >= j) per cut, coef = [C(k, 0), .., C(k, k)], as the double
    nearest the exact rational: the terms C(k, i) s^i (m - s)^(k - i) summed
    as integers, i from k down, and divided by m^k once."""
    k = len(coef) - 1
    cuts = [min(max(j, 0), k + 1) for j in cuts]
    tail = [0] * (k + 2)  # tail[i]: the sum of the terms from i up to k
    acc, rp = 0, 1
    for i in range(k, min(cuts) - 1, -1):
        acc += coef[i] * s**i * rp
        tail[i] = acc
        rp *= m - s
    return [tail[j] / m**k for j in cuts]


@pytest.mark.parametrize("k", [96, 192, 512])
def test_tail_rows_equal_the_integer_sums_at_large_k(k):
    # the tracker's cuts at eps = tau = 0.2 and at the default eps, a cut
    # at the mean and the two ends, for every s of three degrees
    coef = [math.comb(k, i) for i in range(k + 1)]
    cut_sets = [
        make_tracker(DynamicGraph(2, 1), eps, tau, k=k)._cuts
        for eps, tau in ((0.2, 0.2), (0.25, 1.0 / 12.0))
    ]
    for m in (7, 64, 300):
        for s in range(m + 1):
            cuts = [j for pair in cut_sets for j in pair] + [k * s // m, 1, k]
            got = binomial_tails(k, m, s, cuts)
            want = _integer_tails(coef, m, s, cuts)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (m, s)


def test_tail_rows_at_the_papers_k_are_probabilities_that_fall_with_s():
    # at n = 65, tau = 1/12 the paper's k is about 21,640: every row of a
    # degree-64 table lies in [0, 1], has q1 <= q3 and falls as s falls,
    # and the rows around s = 0.77 m are in doubt at the looser cut
    n, tau = 65, 1.0 / 12.0
    k = paper_k(n, tau)
    assert k > 21_000
    tr = make_tracker(DynamicGraph(n, n - 1), 0.25, tau, k=k)
    m = n - 1
    table = tr._tail_table(m)
    rows = [tr._tail_row(table, m, 2 * s) for s in range(m + 1)]
    assert all(0.0 <= q1 <= q3 <= 1.0 for q1, q3 in rows)
    for (a1, a3), (b1, b3) in zip(rows, rows[1:]):
        assert a1 <= b1 and a3 <= b3
    assert rows[0] == [0.0, 0.0] and rows[m] == [1.0, 1.0]
    assert any(0.0 < q1 < 1.0 for q1, _ in rows)


def _pair_graph(k, m, s, dv):
    """u (vertex 0) with m neighbors and v (vertex 1) with dv, s of them shared.

    Every edge reaches the tracker through `maintain_friends`, as the
    boundary replay hands it over.  No pair of two vertices of degree at
    least 2k has been judged yet, so no mask exists.
    """
    n = 2 + m + dv - s
    g = DynamicGraph(n, max(m, dv))
    tr = make_tracker(g, 0.2, 0.2, k=k, fire=10**9)
    shared = range(2, 2 + s)
    edges = [(0, w) for w in shared] + [(1, w) for w in shared]
    edges += [(0, w) for w in range(2 + s, 2 + m)]
    edges += [(1, w) for w in range(2 + m, n)]
    for a, b in edges:
        g.apply(ins(a, b))
        tr.maintain_friends(ins(a, b))
    assert (g.degree(0), g.degree(1)) == (m, dv)
    assert g.common_neighbor_counter()(0, 1) == s
    assert tr.masks == {}
    return g, tr


@pytest.mark.parametrize(
    "s,m,dv",
    [
        (12, 24, 24), (30, 36, 40), (40, 42, 60), (5, 30, 28), (0, 30, 28),  # masks
        (10, 12, 30), (0, 12, 30),  # a walk of u's side, of degree below 2k
        (12, 40, 16),  # a walk of v's side, of degree below 2k
    ],
)
def test_exact_verdicts_follow_the_per_draw_law(s, m, dv):
    # one uniform draw against the tails gives the pair of verdicts
    # (count >= t1, count >= t3) the law of k draws does, whether s comes
    # from the masks or from a walk; each outcome's frequency agrees within
    # 5 sigma, and in1 without in3 never occurs
    k, trials = 12, 20_000
    g, tr = _pair_graph(k, m, s, dv)
    t1, t3 = tr._maintain_thr
    exact, drawn = Counter(), Counter()
    samples = tr.metrics.samples
    for seed in range(trials):
        tr.rng.seed(seed)
        (cnt,) = tr._counts(1, (0,))
        exact[cnt >= t1, cnt >= t3] += 1
        (cnt,) = _per_draw_counts(g, random.Random(seed), k, 1, (0,))
        drawn[cnt >= t1, cnt >= t3] += 1
    assert tr.metrics.samples - samples == k * trials
    if min(m, dv) >= MASK_DEGREE_PER_SAMPLE * k:
        # the first judgement made both endpoints' masks from the adjacency
        assert tr.masks == {0: g.neighbor_mask(0), 1: g.neighbor_mask(1)}
    else:
        assert tr.masks == {}
    assert exact[True, False] == 0
    for outcome in ((True, True), (False, True), (False, False)):
        pooled = (exact[outcome] + drawn[outcome]) / (2 * trials)
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / trials)
        assert abs(exact[outcome] - drawn[outcome]) / trials <= 5 * sigma + 1e-12, outcome
    # a verdict in doubt takes exactly one random() draw, a certain one none
    q1, q3 = fraction_tails(k, m, s, tr._cuts)
    tr.rng.seed(7)
    tr._counts(1, (0,))
    ref = random.Random(7)
    if 0 < q3 and q1 < 1:
        ref.random()
    else:
        assert s == 0 and exact[False, False] == trials
    assert tr.rng.getstate() == ref.getstate()


def test_a_certain_exact_verdict_draws_nothing():
    # no common neighbor: q3 == 0; a shared neighborhood of 24: q1 == 1
    for s, verdict in ((0, 0), (24, 11)):
        g, tr = _pair_graph(12, 24, s, 24)
        state = tr.rng.getstate()
        assert tr._counts(1, (0,)) == [verdict]
        assert tr.rng.getstate() == state
        assert tr.metrics.samples >= 12
    # at the paper's k, s = m / 2 puts q1 == 0.0 and q3 == 1.0: certain too
    g, tr = _pair_graph(paper_k(65, 1.0 / 12.0), 64, 32, 64)
    state = tr.rng.getstate()
    assert tr._counts(1, (0,)) == [tr._cuts[1]]
    assert tr.rng.getstate() == state


def test_masks_are_made_on_demand_and_follow_later_updates():
    # a mask is made when a pair of two vertices of degree >= 2k is first
    # judged, and from then on follows every update the tracker is handed
    delta = 6
    g = DynamicGraph(delta + 2, delta)
    tr = make_tracker(g, 0.2, 0.2, k=2, fire=10**9)
    for u, v in clique_edges(range(delta + 1)):
        g.apply(ins(u, v))
        tr.maintain_friends(ins(u, v))
    # the pairs judged from masks were the inserted ones whose endpoints
    # both had degree >= 4 by then
    made = sorted(tr.masks)
    assert made and len(made) < delta + 1
    tr.update_vertex(0)
    assert sorted(tr.masks) == list(range(delta + 1))
    assert tr.check_consistency() == []
    for upd in (dele(0, 1), ins(0, delta + 1)):
        g.apply(upd)
        tr.maintain_friends(upd)
    assert delta + 1 not in tr.masks
    assert all(mask == g.neighbor_mask(x) for x, mask in tr.masks.items())


def test_mask_audit_names_a_planted_fault():
    delta = 6
    g = DynamicGraph(delta + 1, delta)
    tr = make_tracker(g, 0.2, 0.2, k=2, fire=10**9)
    for u, v in clique_edges(range(delta + 1)):
        g.apply(ins(u, v))
        tr.maintain_friends(ins(u, v))
    tr.update_vertex(0)
    assert sorted(tr.masks) == list(range(delta + 1))
    assert tr.check_consistency() == []
    tr.masks[3] ^= 1 << 5
    assert tr.check_consistency() == ["mask: vertex 3's mask differs from its adjacency"]
    # in a phase the masks lag the graph, as the lists do: no audit
    assert tr.check_consistency(boundary=False) == []
    # a vertex without a mask is not a fault: its first exact pair makes one
    tr.masks[3] ^= 1 << 5
    del tr.masks[4]
    assert tr.check_consistency() == []


def test_masks_follow_the_graph_across_phase_boundaries():
    # clique-churn forms an almost-clique; at every boundary each mask is
    # its vertex's neighbor bitmask, the one `common_neighbor_counter`
    # snapshots
    n, delta = 512, 64
    engine = Engine(n, delta, EngineConfig(params=sweep_params(0, delta)))
    adv = make_adversary("clique-churn", n, delta, seed=1)
    g, tr = engine.graph, engine.tracker
    boundaries = with_clique = with_masks = 0
    for _ in range(2500):
        engine.process(adv.next(None))
        if engine.updates_in_phase == 0:
            boundaries += 1
            with_clique += bool(engine.decomp.cliques)
            with_masks += bool(tr.masks)
            for x, mask in tr.masks.items():
                assert mask == g.neighbor_mask(x), x
            assert tr.check_consistency() == []
    assert boundaries >= 10 and with_clique > 0 and with_masks > 0

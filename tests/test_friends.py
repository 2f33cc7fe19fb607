import math
import random

import pytest

from dyncolor.friends import DISJOINT_TEST_PER_SAMPLE, FriendTracker
from dyncolor.graph import DynamicGraph, dele, ins
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet

from conftest import add_edges, clique_edges, friend_set, random_graph


def make_tracker(g, eps, tau, k=None, fire=None, seed=0):
    params = ParamSet(epsilon=eps, tau=tau, sample_count_k=k, fire_threshold=fire, seed=seed)
    return FriendTracker(g, params, random.Random(seed), Metrics())


def paper_k(n, tau, c=3.0):
    return math.ceil(12.0 * c * math.log(n) / tau**2)


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
    """The refresh as one sampler call and four set writes per pair.

    Reference for the batched refresh: it draws through `rng.choices`, so it
    shares no sampling or list-writing code with the tracker under test.
    """

    def _refresh_pair(self, u, v):
        items = self.graph.adj[u].items
        cnt = 0
        if items:
            self.metrics.samples += self.k
            self.metrics.work += self.k
            cnt = sum(w in self.graph.adj[v] for w in self.rng.choices(items, k=self.k))
        for lst, thr in zip((self.n1, self.n3), self._maintain_thr):
            if cnt >= thr:
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
        for u in list(self.graph.adj[v].items):
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
                spread.update(self.graph.adj[y].items)
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
        sum(w in near for w in rng.choices(g.adj[u].items, k=k)) if g.adj[u].items else 0
        for u in us
    ]


@pytest.mark.parametrize("seed", range(4))
def test_counts_match_the_per_draw_sampler(seed):
    # k = 2 puts the disjointness test's cap at 4 neighbors, inside these
    # graphs' degree range; each v is counted against its neighbors, a few
    # arbitrary vertices and the isolated one
    n, delta, k = 60, 16, 2
    iso = n
    limit = DISJOINT_TEST_PER_SAMPLE * k
    g = random_graph(n, delta, 220, seed=seed, g=DynamicGraph(n + 1, delta))
    tracker = FriendTracker(g, ParamSet(sample_count_k=k), random.Random(seed), Metrics())
    ref = random.Random(seed)
    pick = random.Random(~seed)
    kinds = set()
    charged = 0
    for _ in range(200):
        v = pick.randrange(n)
        us = list(g.adj[v].items) + pick.sample(range(n), 4) + [iso]
        assert tracker._counts(v, us) == _per_draw_counts(g, ref, k, v, us)
        assert tracker.rng.getstate() == ref.getstate()
        for u in us:
            if g.adj[u].items:
                charged += k
                shares = not set(g.adj[u]).isdisjoint(g.adj[v])
                kinds.add((shares, min(g.degree(u), g.degree(v)) <= limit))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert tracker.metrics.samples == tracker.metrics.work == charged

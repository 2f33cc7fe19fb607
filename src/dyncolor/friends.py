"""Sampling-based maintenance of close-friend edges and dense vertices.

For scales c_i = i*eps + tau the tracker keeps per-vertex lists N_i(v)
of neighbors whose common neighborhood with v is large, at the two
scales the algorithm reads: N_1 founds almost-cliques, N_3 keeps them.
Friendship at the stricter scale implies friendship at the looser one,
so N_1(v) <= N_3(v) <= N(v).  v is in the dense set V_i when N_i(v), as
it stands, holds enough friends (`in_v1`, `in_v3`).  Nothing reads N_2,
and a stored V_i flag would go stale when a neighbor's refresh shrinks
v's list; a check that needs scale 2 belongs in `verify`'s oracle.

The lists are symmetric: every writer updates both endpoints, so u is in
N_i(v) exactly when v is in N_i(u).  A refresh takes one k-sample count
per pair (or its exact stand-in, below), judges it at both scales, and
writes a pair's lists only when its membership at a scale changes, which
it reads from v's side.

Every list starts as the shared read-only `EMPTY_SET` and becomes a set
of the vertex's own on its first add (`_link`); most vertices never gain
a friend, so an untouched vertex costs one list slot, not two sets.  A
list is never dropped once it exists, even when it empties: a set that
grew and shrank can iterate in a different order from a fresh one, and
the order of a list decides the order of later writes.

Recomputation is driven by per-vertex update counters: each vertex fires
a full refresh of its incident estimates after enough direct updates
(touching it) or indirect updates (a neighbor fired a direct refresh).
Indirect credit is propagated only by direct firings, never by indirect
ones, which is what keeps the amortized work bounded.

A refresh reads only two verdicts of a pair's count, count >= t1 and
count >= t3, where the count of k uniform samples of N(u) that fall in
N(v) is Binomial(k, s/m) with s = |N(u) cap N(v)| and m = |N(u)|.  For a
pair whose endpoints both have degree at least `DISJOINT_TEST_PER_SAMPLE
* k` the tracker draws the verdicts from that law directly (`_counts`):
it keeps an int bitmask of N(x) for every vertex x it has seen at that
degree (`masks`), so s is one AND and popcount.  A mask is made from the
adjacency when `maintain_friends` first sees its vertex at that degree,
then follows every update the tracker is handed, and is never dropped.
The tracker sees the graph only through the phase-boundary replay, which
is continuous across phases, so at every refresh the masks describe the
graph exactly as the replay has it; the in-phase path pays nothing.
"""

from __future__ import annotations

from array import array
from math import ceil, comb, floor

from .sampleset import EMPTY_SET

# `_counts` tests a pair for a common neighbor only while the smaller of
# the two neighborhoods has at most this many entries per sample, and
# judges it exactly from bitmasks once both have at least this many
DISJOINT_TEST_PER_SAMPLE = 2


def binomial_tails(k: int, m: int, cuts) -> array:
    """P(Bin(k, s/m) >= j) for s = 0..m and each j in `cuts`, row by row.

    The value for (s, cuts[i]) sits at s * len(cuts) + i.  Each is the
    double nearest the exact rational: the terms C(k, i) s^i (m - s)^(k - i)
    are summed as integers and divided by m^k once.  A cut at or below 0
    reads 1.0, a cut above k reads 0.0.
    """
    coef = [comb(k, i) for i in range(k + 1)]
    den = m**k
    cuts = [min(max(j, 0), k + 1) for j in cuts]
    low = min(cuts)
    tail = [0] * (k + 2)  # tail[i]: the sum of the terms from i up to k
    tab = array("d")
    for s in range(m + 1):
        r = m - s
        acc = 0
        for i in range(k, low - 1, -1):
            acc += coef[i] * s**i * r ** (k - i)
            tail[i] = acc
        for j in cuts:
            tab.append(tail[j] / den)
    return tab


def _link(lst, v: int, u: int) -> set:
    """Add the pair (v, u) to one scale's lists; returns v's list.

    An endpoint still on the shared empty gets a set of its own first.
    """
    a = lst[v]
    if a is EMPTY_SET:
        a = lst[v] = set()
    a.add(u)
    b = lst[u]
    if b is EMPTY_SET:
        b = lst[u] = set()
    b.add(v)
    return a


class FriendTracker:
    def __init__(self, graph, params, rng, metrics):
        self.graph = graph
        self.rng = rng
        self.metrics = metrics
        n = graph.n
        self.n = n
        self.n1 = [EMPTY_SET] * n
        self.n3 = [EMPTY_SET] * n
        self.direct = [0] * n
        self.indirect = [0] * n
        self.k = params.sample_count(n)
        self.fire_limit = params.fire_limit(graph.delta)
        eps, tau, delta = params.epsilon, params.tau, graph.delta
        # u is a scale-i friend of v when its count reaches k(1 - (i*eps - tau/4)),
        # v is scale-i dense with at least (1 - i*eps) * delta such friends
        self._maintain_thr = [max(0.0, self.k * (1.0 - (i * eps - tau / 4.0))) for i in (1, 3)]
        self._dense_thr = [max(0.0, (1.0 - i * eps) * delta) for i in (1, 3)]
        # the least counts that reach the two thresholds
        self._cuts = tuple(ceil(t) for t in self._maintain_thr)
        # the degree from which a vertex keeps a mask and its pairs are judged exactly
        self._exact_deg = DISJOINT_TEST_PER_SAMPLE * self.k
        self.masks: dict[int, int] = {}
        # m -> binomial_tails(k, m, cuts), made when a pair first needs it
        self._tails: dict[int, array] = {}

    # ---- estimation core ----------------------------------------------------

    def _counts(self, v: int, us) -> list[int]:
        """Per u in us, how many of k uniform samples from N(u) also neighbor v.

        Each u takes the draws of rng.choices(N(u), k=k), in the order of
        us; an isolated u draws nothing and counts 0.

        A pair whose endpoints both have degree at least `_exact_deg` and a
        mask draws no sample.  Its count is Binomial(k, s/m), with
        s = |N(u) cap N(v)| read off the masks and m = |N(u)|, and the
        refresh reads only whether it reaches the cuts j1 = ceil(t1) and
        j3 = ceil(t3), so the tail probabilities q1 <= q3 of those two
        events (`binomial_tails`) are all that matter.  One U = random()
        gives in1 = U < q1 and in3 = U < q3, which is the joint law of the
        two verdicts, since in1 implies in3.  The pair reports j1, j3 or 0,
        the least count with its verdict.  When q3 == 0 or q1 == 1 the
        verdict is certain and nothing is drawn.  The estimate is charged
        k samples and k units, as a drawn one is, so the counters do not
        depend on which path judged a pair.

        When N(u) and N(v) share no vertex, every draw misses whatever it
        picks, so the count is 0 and the k draws are replaced by one
        `getrandbits(64 * k)`, which leaves the generator where k
        `random()` calls leave it (see `draws`).  The test walks the
        smaller neighborhood and probes the other's index, and it is made
        only while that side has at most `DISJOINT_TEST_PER_SAMPLE * k`
        entries, so a pair never costs more than O(k).  A skipped estimate
        is charged as drawn, k samples and k units: the generator advanced
        k draws, and the counters stay those of the per-draw loop.
        """
        adj, random = self.graph.adj, self.rng.random
        pos = adj[v]._pos
        k = self.k
        draws = range(k)
        d = len(pos)
        masks, tails = self.masks, self._tails
        cap = self._exact_deg
        j1, j3 = self._cuts
        # u is judged exactly when both degrees reach the cap and both
        # endpoints have masks
        mv = masks.get(v) if d >= cap else None
        # u is tested when the smaller of N(u) and N(v) is short: any u
        # when N(v) is, else a u whose N(u) is
        limit = self.n if d <= cap else cap
        counts = []
        sampled = 0
        for u in us:
            items = adj[u].items
            cnt = 0
            if items:
                sampled += 1
                size = len(items)
                if mv is not None and size >= cap and (mu := masks.get(u)) is not None:
                    s = 2 * (mv & mu).bit_count()
                    tab = tails.get(size) or self._tail_table(size)
                    q3 = tab[s + 1]
                    if q3:
                        q1 = tab[s]
                        if q1 == 1.0:
                            cnt = j1
                        else:
                            x = random()
                            cnt = j1 if x < q1 else j3 if x < q3 else 0
                elif size <= limit and (
                    pos.keys().isdisjoint(items) if size <= d
                    else adj[u]._pos.keys().isdisjoint(pos)
                ):
                    self.rng.getrandbits(64 * k)
                else:
                    size += 0.0
                    for _ in draws:
                        if items[floor(random() * size)] in pos:
                            cnt += 1
            counts.append(cnt)
        drawn = sampled * k
        self.metrics.samples += drawn
        self.metrics.work += drawn
        return counts

    def _tail_table(self, m: int) -> array:
        tab = self._tails[m] = binomial_tails(self.k, m, self._cuts)
        return tab

    def _refresh(self, v: int, us) -> None:
        # One sample count per pair serves both scales.  The lists are
        # symmetric, so v's side tells whether a pair's membership changes,
        # and only a change is written.  The scales are unrolled because a
        # loop over them costs more per pair than the writes it saves.
        counts = self._counts(v, us)
        l1, l3, (t1, t3) = self.n1, self.n3, self._maintain_thr
        m1, m3 = l1[v], l3[v]
        for u, cnt in zip(us, counts):
            if cnt >= t1:
                if u not in m1:
                    m1 = _link(l1, v, u)
            elif u in m1:
                m1.discard(u)
                l1[u].discard(v)
            if cnt >= t3:
                if u not in m3:
                    m3 = _link(l3, v, u)
            elif u in m3:
                m3.discard(u)
                l3[u].discard(v)

    def _drop_pair(self, u: int, v: int) -> None:
        for lst in (self.n1, self.n3):
            if u in lst[v]:
                lst[v].discard(u)
                lst[u].discard(v)

    # ---- dense sets ---------------------------------------------------------

    def in_v1(self, v: int) -> bool:
        """Whether v's N_1 list, as it stands, puts v in V_1."""
        return len(self.n1[v]) >= self._dense_thr[0]

    def in_v3(self, v: int) -> bool:
        """Whether v's N_3 list, as it stands, puts v in V_3."""
        return len(self.n3[v]) >= self._dense_thr[1]

    def update_vertex(self, v: int) -> None:
        """Full refresh of v: re-estimate all incident edges at both scales."""
        self._refresh(v, self.graph.adj[v].items)
        self.metrics.tracker_updates += 1

    # ---- per-update maintenance ---------------------------------------------

    def maintain_friends(self, upd) -> list[int]:
        """Process one (already applied) edge update; returns the refresh set U.

        Direct counters of both endpoints advance; the touched pair is
        re-estimated (insertion) or dropped (deletion).  Vertices whose
        direct counter reaches the firing limit are refreshed and spread
        one indirect credit to each neighbor; neighbors reaching the limit
        refresh too but spread nothing further.  Each endpoint's mask
        follows the update first; an endpoint without one gets one once it
        has degree `_exact_deg`.  The endpoints are written out in turn: a
        loop over them measured slower.
        """
        u, v = upd.u, upd.v
        masks, deg, cap = self.masks, self.graph.deg, self._exact_deg
        if u in masks:
            masks[u] ^= 1 << v
        elif deg[u] >= cap:
            masks[u] = self.graph.neighbor_mask(u)
        if v in masks:
            masks[v] ^= 1 << u
        elif deg[v] >= cap:
            masks[v] = self.graph.neighbor_mask(v)
        self.direct[u] += 1
        self.direct[v] += 1
        if upd.insert:
            self._refresh(v, (u,))
        else:
            self._drop_pair(u, v)
        fired: list[int] = []
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

    # ---- introspection -------------------------------------------------------

    def check_consistency(self, boundary: bool = True) -> list[str]:
        """Audit the lists' symmetry and nesting, and the masks; returns violations.

        Only at a phase boundary must every listed pair be an edge, every
        vertex of degree `_exact_deg` or more have a mask and every mask
        equal its vertex's adjacency: an update inside a phase reaches the
        tracker at the boundary replay.
        """
        viol = []
        graph, n3 = self.graph, self.n3
        has_edge = graph.has_edge
        if boundary:
            for v in range(self.n):
                mask = self.masks.get(v)
                if mask is None:
                    if graph.deg[v] >= self._exact_deg:
                        viol.append(f"mask: vertex {v} of degree {graph.deg[v]} has none")
                elif mask != graph.neighbor_mask(v):
                    viol.append(f"mask: vertex {v}'s mask differs from its adjacency")
        for name, lists in (("N_1", self.n1), ("N_3", n3)):
            for v in range(self.n):
                for u in lists[v]:
                    if v not in lists[u]:
                        viol.append(f"{name}: asymmetric friend pair ({v},{u})")
                    if boundary and not has_edge(u, v):
                        viol.append(f"{name}: stale friend pair ({v},{u})")
                    if u not in n3[v]:
                        viol.append(f"{name}: friend pair ({v},{u}) missing from N_3")
        return viol

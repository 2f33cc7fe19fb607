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
it reads s as one AND and popcount of int bitmasks of the two
neighborhoods (`masks`).  A vertex's mask is made from the adjacency when
a pair first needs it, then follows every update the tracker is handed,
and is never dropped.  The tracker sees the graph only through the
phase-boundary replay, which is continuous across phases, so at every
refresh the adjacency, and with it every mask, is the graph exactly as
the replay has it; the in-phase path pays nothing.
"""

from __future__ import annotations

from array import array
from math import ceil, comb, floor, nan

from .sampleset import EMPTY_SET

# `_counts` tests a pair for a common neighbor only while the smaller of
# the two neighborhoods has at most this many entries per sample, and
# judges it exactly from bitmasks once both have at least this many
DISJOINT_TEST_PER_SAMPLE = 2


def binomial_tails(coef: list[int], m: int, s: int, cuts) -> list[float]:
    """P(Bin(k, s/m) >= j) for each j in `cuts`, with coef = [C(k, 0), .., C(k, k)].

    Each is the double nearest the exact rational: the terms
    C(k, i) s^i (m - s)^(k - i) are summed as integers, i from k down, and
    divided by m^k once; the power of m - s grows by one factor per term.
    A cut at or below 0 reads 1.0, a cut above k reads 0.0.
    """
    k = len(coef) - 1
    cuts = [min(max(j, 0), k + 1) for j in cuts]
    r = m - s
    tail = [0] * (k + 2)  # tail[i]: the sum of the terms from i up to k
    acc = 0
    rp = 1
    for i in range(k, min(cuts) - 1, -1):
        acc += coef[i] * s**i * rp
        tail[i] = acc
        rp *= r
    den = m**k
    return [tail[j] / den for j in cuts]


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
        # the degree from which a vertex's pairs are judged exactly, from masks
        self._exact_deg = DISJOINT_TEST_PER_SAMPLE * self.k
        self.masks: dict[int, int] = {}
        # m -> the tails P(count >= cut) for s = 0..m, two per s; a table is
        # made when a pair first needs it, a row when a pair first reads it
        self._tails: dict[int, array] = {}
        # C(k, 0..k), made with the first table: at the paper's k it is large
        self._coef: list[int] = []

    # ---- estimation core ----------------------------------------------------

    def _counts(self, v: int, us) -> list[int]:
        """Per u in us, how many of k uniform samples from N(u) also neighbor v.

        Each u takes the draws of rng.choices(list(N(u)), k=k), in the order
        of us; an isolated u draws nothing and counts 0.

        A pair whose endpoints both have degree at least `_exact_deg` draws
        no sample; an endpoint without a mask gets one first (`_mask`).
        Its count is Binomial(k, s/m), with s = |N(u) cap N(v)| read off
        the masks and m = |N(u)|, and the refresh reads only whether it
        reaches the cuts j1 = ceil(t1) and j3 = ceil(t3), so the tail
        probabilities q1 <= q3 of those two events (`binomial_tails`) are
        all that matter.  One U = random()
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
        smaller neighborhood and probes the other's dict.  A pair not
        judged exactly has a side of at most `DISJOINT_TEST_PER_SAMPLE * k`
        entries, so the test never costs more than O(k).  A skipped estimate
        is charged as drawn, k samples and k units: the generator advanced
        k draws, and the counters stay those of the per-draw loop.
        """
        adj, random = self.graph.adj, self.rng.random
        near = adj[v]
        k = self.k
        draws = range(k)
        d = len(near)
        masks, tails = self.masks, self._tails
        cap = self._exact_deg
        j1, j3 = self._cuts
        # u is judged exactly when both degrees reach the cap; v's mask is
        # read when its first such pair comes up
        exact = d >= cap
        mv = None
        counts = []
        sampled = 0
        for u in us:
            nu = adj[u]
            cnt = 0
            if nu:
                sampled += 1
                size = len(nu)
                if exact and size >= cap:
                    # a vertex of degree >= cap has a nonzero mask
                    if mv is None:
                        mv = masks.get(v) or self._mask(v)
                    mu = masks.get(u) or self._mask(u)
                    s = 2 * (mv & mu).bit_count()
                    tab = tails.get(size) or self._tail_table(size)
                    q3 = tab[s + 1]
                    if q3:
                        q1 = tab[s]
                        if q1 != q1:  # NaN: the row is not built yet
                            q1, q3 = self._tail_row(tab, size, s)
                        if q1 == 1.0:
                            cnt = j1
                        elif q3:
                            x = random()
                            cnt = j1 if x < q1 else j3 if x < q3 else 0
                elif near.keys().isdisjoint(nu) if size <= d else nu.keys().isdisjoint(near):
                    self.rng.getrandbits(64 * k)
                else:
                    items = list(nu)
                    size += 0.0
                    for _ in draws:
                        if items[floor(random() * size)] in near:
                            cnt += 1
            counts.append(cnt)
        drawn = sampled * k
        self.metrics.samples += drawn
        self.metrics.work += drawn
        return counts

    def _mask(self, x: int) -> int:
        mask = self.masks[x] = self.graph.neighbor_mask(x)
        return mask

    def _tail_table(self, m: int) -> array:
        """m's table of tails, every row NaN until `_tail_row` builds it."""
        if not self._coef:
            self._coef = [comb(self.k, i) for i in range(self.k + 1)]
        tab = self._tails[m] = array("d", [nan]) * (2 * (m + 1))
        return tab

    def _tail_row(self, tab: array, m: int, at: int) -> list[float]:
        """Builds the row of m's table at index `at` = 2s; returns it (q1, q3)."""
        row = binomial_tails(self._coef, m, at // 2, self._cuts)
        tab[at], tab[at + 1] = row
        return row

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
        self._refresh(v, self.graph.adj[v])
        self.metrics.tracker_updates += 1

    # ---- per-update maintenance ---------------------------------------------

    def maintain_friends(self, upd) -> list[int]:
        """Process one (already applied) edge update; returns the refresh set U.

        Direct counters of both endpoints advance; the touched pair is
        re-estimated (insertion) or dropped (deletion).  Vertices whose
        direct counter reaches the firing limit are refreshed and spread
        one indirect credit to each neighbor; neighbors reaching the limit
        refresh too but spread nothing further.  An endpoint's mask, if it
        has one, follows the update first.
        """
        u, v = upd.u, upd.v
        masks = self.masks
        if u in masks:
            masks[u] ^= 1 << v
        if v in masks:
            masks[v] ^= 1 << u
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
                spread.update(self.graph.adj[y])
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

        Only at a phase boundary must every listed pair be an edge and
        every mask equal its vertex's adjacency: an update inside a phase
        reaches the tracker at the boundary replay.
        """
        viol = []
        graph, n3 = self.graph, self.n3
        has_edge = graph.has_edge
        if boundary:
            for v, mask in sorted(self.masks.items()):
                if mask != graph.neighbor_mask(v):
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

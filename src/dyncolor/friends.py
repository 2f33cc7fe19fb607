"""Estimate-based maintenance of close-friend edges and dense vertices.

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
per pair (drawn from its law, below), judges it at both scales, and
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
N(v) is Binomial(k, s/m) with s = |N(u) cap N(v)| and m = |N(u)|.  So the
tracker draws no sample: it takes s exactly and draws both verdicts from
that law at once (`_counts`).  Where both endpoints have degree at least
`MASK_DEGREE_PER_SAMPLE * k` it reads s as one AND and popcount of int
bitmasks of the two neighborhoods (`masks`); elsewhere it walks the
smaller neighborhood, fewer than 2k probes.  A vertex's mask is made from
the adjacency when a pair first needs it, then follows every update the
tracker is handed, and is never dropped.  The tracker sees the graph only
through the phase-boundary replay, which is continuous across phases, so
at every refresh the adjacency, and with it every mask, is the graph
exactly as the replay has it; the in-phase path pays nothing.
"""

from __future__ import annotations

from array import array
from math import ceil, fsum, nan

from .sampleset import EMPTY_SET

# `_counts` reads a pair's common-neighbor count from bitmasks once both
# endpoints have at least this many neighbors per sample, and walks the
# smaller neighborhood below that
MASK_DEGREE_PER_SAMPLE = 2


def binomial_tails(k: int, m: int, s: int, cuts) -> list[float]:
    """P(Bin(k, s/m) >= j) for each j in `cuts`, in double precision.

    The terms C(k, i) p^i (1 - p)^(k - i) are taken relative to a mode's,
    walking outward from the mode by the ratio of neighboring terms until a
    term falls below 1e-18 of the mode's, and normalised by their sum.  A
    cut at or below the lowest term kept reads 1.0, one above the highest
    0.0, so a verdict the walk finds certain is certain in the table.
    """
    mode = min(k, (k + 1) * s // m)
    down, up = [], [1.0]
    t = 1.0
    for i in range(mode, 0, -1):
        t *= i * (m - s) / ((k - i + 1) * s)
        if t < 1e-18:
            break
        down.append(t)
    t = 1.0
    for i in range(mode, k):
        t *= (k - i) * s / ((i + 1) * (m - s))
        if t < 1e-18:
            break
        up.append(t)
    lo = mode - len(down)
    terms = down[::-1] + up
    total = fsum(terms)
    return [1.0 if j <= lo else fsum(terms[j - lo :]) / total for j in cuts]


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
        # the degree from which a vertex's pairs read s from masks
        self._mask_deg = MASK_DEGREE_PER_SAMPLE * self.k
        self.masks: dict[int, int] = {}
        # m -> the tails P(count >= cut) for s = 0..m, two per s; a table is
        # made when a pair first needs it, a row when a pair first reads it
        self._tails: dict[int, array] = {}

    # ---- estimation core ----------------------------------------------------

    def _counts(self, v: int, us) -> list[int]:
        """Per u in us, a count of k samples from N(u) that also neighbor v.

        No sample is drawn.  The count is Binomial(k, s/m), with
        s = |N(u) cap N(v)| and m = |N(u)|, and the refresh reads only
        whether it reaches the cuts j1 = ceil(t1) and j3 = ceil(t3), so the
        tail probabilities q1 <= q3 of those two events (`binomial_tails`)
        are all that matter.  s is read off the masks when both degrees
        reach `_mask_deg` (an endpoint without a mask gets one first,
        `_mask`); otherwise it is the size of the two neighborhoods' key
        intersection, which walks the smaller one, of fewer than
        `_mask_deg` entries.  One U = random() gives in1 = U < q1 and
        in3 = U < q3, which is the joint law of the two verdicts, since in1
        implies in3.  The pair reports j1, j3 or 0, the least count with
        its verdict.  When s == 0 the count is 0; when q3 == 0, q1 == 1 or
        q1 == 0 < q3 == 1 the verdict is certain; in neither case is
        anything drawn.  An isolated u counts 0.

        Each non-isolated pair is charged k samples and k work units: the
        paper's cost-model charge per estimate, kept on purpose although
        no sample is drawn.
        """
        adj, random = self.graph.adj, self.rng.random
        near = adj[v]
        masks, tails = self.masks, self._tails
        cap = self._mask_deg
        j1, j3 = self._cuts
        # v's mask is read when its first pair of two high degrees comes up
        masked = len(near) >= cap
        mv = None
        counts = []
        sampled = 0
        for u in us:
            nu = adj[u]
            cnt = 0
            if nu:
                sampled += 1
                m = len(nu)
                if masked and m >= cap:
                    # a vertex of degree >= cap has a nonzero mask
                    if mv is None:
                        mv = masks.get(v) or self._mask(v)
                    mu = masks.get(u) or self._mask(u)
                    at = 2 * (mv & mu).bit_count()
                else:
                    # the intersection walks the smaller side, of < cap entries
                    at = 2 * len(near.keys() & nu.keys())
                # with no common neighbor the count is 0 for certain
                if at:
                    tab = tails.get(m) or self._tail_table(m)
                    # s's row sits at index at = 2s
                    q3 = tab[at + 1]
                    if q3:
                        q1 = tab[at]
                        if q1 != q1:  # NaN: the row is not built yet
                            q1, q3 = self._tail_row(tab, m, at)
                        if q1 == 1.0:
                            cnt = j1
                        elif q3 == 1.0 and not q1:
                            cnt = j3
                        elif q3:
                            x = random()
                            cnt = j1 if x < q1 else j3 if x < q3 else 0
            counts.append(cnt)
        charged = sampled * self.k
        self.metrics.samples += charged
        self.metrics.work += charged
        return counts

    def _mask(self, x: int) -> int:
        mask = self.masks[x] = self.graph.neighbor_mask(x)
        return mask

    def _tail_table(self, m: int) -> array:
        """m's table of tails, every row NaN until `_tail_row` builds it."""
        tab = self._tails[m] = array("d", [nan]) * (2 * (m + 1))
        return tab

    def _tail_row(self, tab: array, m: int, at: int) -> list[float]:
        """Builds the row of m's table at index `at` = 2s; returns it (q1, q3)."""
        row = binomial_tails(self.k, m, at // 2, self._cuts)
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

"""Coloring of almost-cliques, and the sole owner of their color books.

Step one pairs up non-adjacent members (a matching over the clique's
non-edges) and gives each matched pair one shared color, saving palette.
Step two keeps every remaining member matched to a private color through
short augmenting paths: a direct assignment, a length-3 swap through a
random colored member, or a length-5 rotation through two of them.

All dense recoloring, at the phase boundary and inside a phase, goes
through two paths, each with its own fallback.  The pair path
(`recolor_pair`) runs the capped draw, then a palette scan, then
dissolves the pair, and evicts a member privately holding the pair's
color.  The member path (`rematch`) runs the matcher, then the rescan.
The engine dispatches updates here and never touches a book or matching.

Per clique a color book tracks: an[c] (pair-shared colors with the pair),
A (colors unused by any member), usage (color -> members), mp (private
color -> member), big_l (members outside the non-edge matching), t_c /
heavy (counts of edges to equally-colored sparse vertices, and the colors
where that count is large).  R, the colors not shared by any pair, is the
complement of an; the blank members of big_l are read off the coloring.
"""

from __future__ import annotations

from .colors import BLANK
from .draws import palette_drawer
from .errors import EmptyPalette, IterationCapExceeded
from .sampleset import SampleSet


class CliqueBook:
    __slots__ = ("an", "A", "usage", "mp", "big_l", "t_c", "heavy")

    def __init__(self, palette: int, big_l) -> None:
        self.an: dict[int, tuple[int, int]] = {}
        self.A = SampleSet(range(palette))
        self.usage: dict[int, set[int]] = {}
        self.mp: dict[int, int] = {}
        self.big_l = SampleSet(big_l)
        self.t_c: dict[int, int] = {}
        self.heavy: set[int] = set()


class DenseColoring:
    def __init__(self, graph, decomp, colors, params, rng, metrics):
        self.graph = graph
        self.decomp = decomp
        self.colors = colors
        self.rng = rng
        self.metrics = metrics
        delta = graph.delta
        self.palette = delta + 1
        self.cap = params.loop_cap(graph.n)
        self.dispatch_limit = params.dispatch_limit(delta)
        self.heavy_limit = params.heavy_limit(delta)
        self.regime_limit = params.regime_limit(delta)

    # ---- color book primitives ------------------------------------------------

    def build_book(self, clique) -> CliqueBook:
        big_l = sorted(m for m in clique.members if m not in clique.partner)
        clique.book = CliqueBook(self.palette, big_l)
        return clique.book

    def _set_member(self, clique, v: int, c: int) -> None:
        self.colors.set_dense(v, c)
        book = clique.book
        users = book.usage.get(c)
        if users is None:
            book.usage[c] = {v}
            book.A.discard(c)
        else:
            users.add(v)

    def release_private(self, clique, v: int) -> int:
        old = self.colors.clear_dense(v)
        if old != BLANK:
            book = clique.book
            users = book.usage[old]
            users.discard(v)
            if not users:
                book.usage.pop(old)
                book.A.add(old)
            if book.mp.get(old) == v:
                book.mp.pop(old)
        return old

    def assign_private(self, clique, v: int, c: int) -> None:
        self._set_member(clique, v, c)
        clique.book.mp[c] = v
        self.metrics.dense_recolorings += 1

    def _claim_shared(self, clique, u: int, v: int, c: int) -> None:
        clique.book.an[c] = (u, v)
        self._set_member(clique, u, c)
        self._set_member(clique, v, c)

    # ---- feasibility scans ------------------------------------------------------

    def full_feasible(self, v: int, c: int, exclude=()) -> bool:
        """No neighbor of v, sparse or dense, holds color c (minus `exclude`)."""
        pos = self.graph.adj[v]
        ls = self.colors.L[c]
        ld = self.colors.L_D[c]
        self.metrics.probes += len(ls) + len(ld)
        self.metrics.work += len(ls) + len(ld) + 1
        for w in ls:
            if w in pos:
                return False
        for w in ld:
            if w in pos and w not in exclude:
                return False
        return True

    def _pair_external_feasible(self, clique, u: int, v: int, c: int) -> bool:
        """No occupant of L(c) or L_D(c) outside the clique neighbors u or v."""
        posu = self.graph.adj[u]
        posv = self.graph.adj[v]
        ls = self.colors.L[c]
        ld = self.colors.L_D[c]
        self.metrics.probes += len(ls) + len(ld)
        self.metrics.work += len(ls) + len(ld) + 1
        for w in ls:
            if w in posu or w in posv:
                return False
        cid = clique.id
        clique_of = self.decomp.clique_of
        for w in ld:
            if clique_of[w] != cid and (w in posu or w in posv):
                return False
        return True

    # ---- non-edge matching ---------------------------------------------------------

    def init_nonedge_matchings(self) -> None:
        """Phase-boundary normalization of every clique's non-edge matching.

        Small matchings are rebuilt from scratch as greedy maximal
        matchings; surviving large ones are greedily extended, which also
        leaves them maximal.  The large/small regime for the coming phase
        is then frozen per clique.
        """
        for cid in sorted(self.decomp.cliques):
            clique = self.decomp.cliques[cid]
            if clique.matching_size() < self.regime_limit:
                clique.partner.clear()
            self._extend_maximal(clique)
            clique.large_regime = clique.matching_size() > self.regime_limit

    def _extend_maximal(self, clique) -> None:
        for u in sorted(clique.nonedges):
            if u not in clique.partner:
                self._match_lowest(clique, u)
        self.metrics.work += clique.nonedge_count + 1

    def _match_lowest(self, clique, w: int) -> int | None:
        """Match the unmatched w to its lowest unmatched non-neighbor, if any."""
        for x in sorted(clique.nonedges[w]):
            if x not in clique.partner:
                self.decomp.match_add(clique, w, x)
                return x
        return None

    def maintain_matching(self, clique, upd, extend: bool = True) -> list[tuple[int, int]]:
        """Keep the matching maximal across one same-clique update.

        `Decomposition.note_edge` has already written the update's non-edge.
        An insertion kills the pair (u,v) if matched and tries to rematch
        each endpoint with a free non-neighbor; a deletion matches the new
        non-edge when both sides are free.  Returns the pairs added.  With
        `extend` false nothing is matched, so the matching is only trimmed
        by insertions.  The one exception is a pair `recolor_pair`
        dissolves: both endpoints stay unmatched, though their non-edge
        remains, until the next boundary rebuilds the matching.
        """
        u, v = upd.u, upd.v
        added: list[tuple[int, int]] = []
        self.metrics.nonedge_adjustments += 1
        if upd.insert:
            if clique.partner.get(u) == v:
                self.decomp.match_remove(clique, u, v)
            for w in (u, v) if extend else ():
                if w in clique.partner:
                    continue
                self.metrics.work += len(clique.nonedges[w])
                x = self._match_lowest(clique, w)
                if x is not None:
                    added.append((w, x))
        elif extend and u not in clique.partner and v not in clique.partner:
            self.decomp.match_add(clique, u, v)
            added.append((u, v))
        return added

    def update_non_edges(self, clique, upd) -> list[tuple[int, int]]:
        """Same-clique update entry point: keep the non-edge matching.

        The non-edge lists are `Decomposition.note_edge`'s; this returns
        the pairs the matching added.  In the large regime the matching is
        never extended, only trimmed by insertions.
        """
        return self.maintain_matching(clique, upd, extend=not clique.large_regime)

    # ---- pair recoloring -------------------------------------------------------------

    def recolor_non_edge(self, clique, u: int, v: int) -> int:
        """Give the matched non-adjacent pair (u,v) one fresh shared color.

        Rejection-samples a color that no pair of the clique holds and no
        occupant adjacent to u or v outside the clique holds.  The pair
        path `recolor_pair` evicts a member privately holding the result.
        """
        if clique.partner.get(u) != v:
            raise ValueError(f"({u},{v}) is not a matched non-edge")
        book = clique.book
        for w in (u, v):
            old = self.release_private(clique, w)
            if w in book.an.get(old, ()):
                book.an.pop(old)
        draw = palette_drawer(self.rng, self.palette)
        for _ in range(self.cap):
            c = draw()
            self.metrics.samples += 1
            if c in book.an:
                continue
            if self._pair_external_feasible(clique, u, v, c):
                self._claim_shared(clique, u, v, c)
                self.metrics.dense_recolorings += 2
                return c
        raise IterationCapExceeded("recolor_non_edge", (u, v))

    # ---- edge counters ------------------------------------------------------------------

    def tc_shift(self, clique, c: int, d: int) -> None:
        book = clique.book
        t = book.t_c.get(c, 0) + d
        if t:
            book.t_c[c] = t
        else:
            book.t_c.pop(c, None)
        if t > self.heavy_limit:
            book.heavy.add(c)
        else:
            book.heavy.discard(c)

    def update_edge_counts(self, v: int, old: int, new: int) -> None:
        """Shift every clique's counters after sparse v went old -> new."""
        cliques = self.decomp.cliques
        for cid, cnt in self.decomp.n_c[v].items():
            clique = cliques[cid]
            self.tc_shift(clique, old, -cnt)
            self.tc_shift(clique, new, cnt)
            self.metrics.work += 2

    def rebuild_edge_counts(self) -> None:
        cliques = self.decomp.cliques
        if not cliques:
            return
        for clique in cliques.values():
            clique.book.t_c.clear()
            clique.book.heavy.clear()
        of = self.colors.of
        clique_of = self.decomp.clique_of
        # only vertices with a dense neighbor feed any counter
        for v, nc in enumerate(self.decomp.n_c):
            if not nc or clique_of[v] is not None:
                continue
            c = of[v]  # color_sparse has just colored every sparse vertex
            for cid, cnt in nc.items():
                self.tc_shift(cliques[cid], c, cnt)
                self.metrics.work += 1

    # ---- private-color matching (step two) ----------------------------------------------

    def match(self, v: int) -> None:
        """Color the blank big-L vertex v via the branch fitting the clique."""
        clique = self.decomp.clique(v)
        if clique.matching_size() >= self.dispatch_limit:
            self.metrics.random_match_calls += 1
            self.random_match(v)
        elif len(clique.members) > self.graph.delta:
            self.metrics.match_large_calls += 1
            self.match_large(v)
        else:
            self.metrics.match_small_calls += 1
            self.match_small(v)

    def random_match(self, v: int) -> None:
        clique = self.decomp.clique(v)
        book = clique.book
        draw = palette_drawer(self.rng, self.palette)
        for _ in range(self.cap):
            c = draw()
            self.metrics.samples += 1
            if c not in book.A:
                continue
            if self.full_feasible(v, c):
                self.assign_private(clique, v, c)
                return
        raise IterationCapExceeded("random_match", v)

    def _lowest_light_unused(self, book) -> int:
        heavy = book.heavy
        best = -1
        for c in book.A.items:
            if c not in heavy and (best < 0 or c < best):
                best = c
        self.metrics.work += len(book.A)
        if best < 0:
            raise EmptyPalette("no unassigned light color left")
        return best

    def match_large(self, v: int) -> None:
        """Direct assignment or a length-3 swap through a random member."""
        clique = self.decomp.clique(v)
        book = clique.book
        rng = self.rng
        for _ in range(self.cap):
            c = self._lowest_light_unused(book)
            if self.full_feasible(v, c):
                self.assign_private(clique, v, c)
                return
            w = book.big_l.sample(rng)
            self.metrics.samples += 1
            if w == v:
                continue
            cw = self.colors.of[w]
            if cw == BLANK:
                continue
            if self.full_feasible(w, c) and self.full_feasible(v, cw, exclude=(w,)):
                self.release_private(clique, w)
                self.assign_private(clique, v, cw)
                self.assign_private(clique, w, c)
                return
        raise IterationCapExceeded("match_large", v)

    def match_small(self, v: int) -> None:
        """Length-5 rotation: v takes c(w), w takes c(u), u takes a fresh color.

        The inner loop hunts for a member u and unused color c' with c'
        feasible for u.  If that member is itself blank it simply takes c'
        (when u is v this is the direct assignment) and the hunt restarts.
        """
        clique = self.decomp.clique(v)
        book = clique.book
        rng = self.rng
        colors = self.colors
        for _ in range(self.cap):
            if not len(book.A) or not len(book.big_l):
                break
            u = book.big_l.sample(rng)
            c_new = book.A.sample(rng)
            self.metrics.samples += 2
            if not self.full_feasible(u, c_new):
                continue
            cu = colors.of[u]
            if cu == BLANK:
                self.assign_private(clique, u, c_new)
                if u == v:
                    return
                continue
            w = book.big_l.sample(rng)
            self.metrics.samples += 1
            if w == u or w == v:
                continue
            cw = colors.of[w]
            if cw == BLANK:
                continue
            if self.full_feasible(w, cu, exclude=(u,)) and self.full_feasible(
                v, cw, exclude=(w,)
            ):
                self.release_private(clique, u)
                self.release_private(clique, w)
                self.assign_private(clique, v, cw)
                self.assign_private(clique, w, cu)
                self.assign_private(clique, u, c_new)
                return
        raise IterationCapExceeded("match_small", v)

    # ---- the pair and member paths ---------------------------------------------------

    def recolor_pair(self, clique, u: int, v: int) -> int | None:
        """Give the matched pair (u,v) a shared color; None if it was dissolved.

        The capped draw of `recolor_non_edge` first, then the lowest color
        the pair may share, else the pair leaves the matching and both
        endpoints are rescanned alone.  A dissolved pair leaves the
        matching non-maximal: both endpoints stay unmatched on their own
        non-edge until `init_nonedge_matchings` runs at the next boundary.
        A member privately holding the shared color is evicted and
        rematched.
        """
        try:
            c = self.recolor_non_edge(clique, u, v)
        except IterationCapExceeded:
            self.metrics.fallbacks += 1
            c = self._scan_pair(clique, u, v)
            if c is None:
                self.rescan(u)  # takes the pair out of the matching
                self.rescan(v)
                return None
        owner = clique.book.mp.get(c)
        if owner is not None:
            self.rematch(clique, owner)
        return c

    def _scan_pair(self, clique, u: int, v: int) -> int | None:
        """Claim the lowest color the blank pair (u,v) may share, if any."""
        book = clique.book
        self.metrics.work += self.palette
        for c in range(self.palette):
            if c not in book.an and self._pair_external_feasible(clique, u, v, c):
                self._claim_shared(clique, u, v, c)
                return c
        return None

    def rematch(self, clique, v: int) -> None:
        """Give member v a fresh private color: the matcher, else the rescan."""
        self.release_private(clique, v)
        try:
            self.match(v)
        except (IterationCapExceeded, EmptyPalette):
            self.metrics.fallbacks += 1
            self.rescan(v)

    def rescan(self, v: int) -> int:
        """Member v leaves its pair (the partner keeps its color privately)
        and takes the smallest color no neighbor holds, preferably one no
        member holds; failing that, a member holding the pick privately is
        no neighbor of v, and the two become a matched pair sharing it."""
        colors = self.colors
        adj = self.graph.adj[v]
        self.metrics.work += self.palette + len(adj)
        clique = self.decomp.clique(v)
        book = clique.book
        p = clique.partner.get(v)
        if p is not None:
            book.an.pop(colors.of[v], None)
            self.decomp.match_remove(clique, v, p)
            book.big_l.add(v)
            book.big_l.add(p)
            cp = colors.of[p]
            if cp != BLANK:
                if cp not in book.mp:
                    book.mp[cp] = p
                else:
                    self.metrics.fallback_degraded += 1
        self.release_private(clique, v)
        pick = colors.lowest_free(adj, book.usage)
        y = None
        if pick is None:
            self.metrics.fallback_degraded += 1
            pick = colors.lowest_free(adj)
            y = book.mp.get(pick)
        self._set_member(clique, v, pick)
        if y is not None:
            # the pick is free around v, so y is a non-neighbor: pair them on it
            self.decomp.match_add(clique, v, y)
            book.mp.pop(pick)
            book.an[pick] = (v, y)
            book.big_l.discard(v)
            book.big_l.discard(y)
        elif pick not in book.mp:
            book.mp[pick] = v
        else:
            self.metrics.fallback_degraded += 1
        return pick

    # ---- engine entry points ---------------------------------------------------------

    def color_cliques(self) -> None:
        """Phase-start coloring of every clique: its pairs, then blank big-L."""
        cliques = self.decomp.cliques
        for cid in sorted(cliques):
            clique = cliques[cid]
            for u, v in clique.matching_pairs():
                self.recolor_pair(clique, u, v)
        of = self.colors.of
        for cid in sorted(cliques):
            clique = cliques[cid]
            for v in sorted(clique.book.big_l):
                if of[v] == BLANK:
                    self.rematch(clique, v)

    def resolve_conflict(self, d: int) -> None:
        """Member d shares its color with a neighbor: recolor it or its pair."""
        clique = self.decomp.clique(d)
        p = clique.partner.get(d)
        if p is not None:
            self.recolor_pair(clique, d, p)
        else:
            self.rematch(clique, d)

    def evict_conflicts(self, v: int, c: int) -> None:
        """Resolve every dense neighbor of v that holds v's fresh color c."""
        ld = self.colors.L_D[c]
        if not ld:
            return
        pos = self.graph.adj[v]
        self.metrics.probes += len(ld)
        self.metrics.work += len(ld)
        hits = [w for w in ld if w in pos]
        for w in hits:
            if self.colors.of[w] == c and self.decomp.clique_of[w] is not None:
                self.resolve_conflict(w)

    def same_clique_update(self, clique, upd) -> None:
        """Color work of one in-phase update with both endpoints in `clique`.

        A pair the update broke gives up its shared color, pairs that
        joined the matching take one through the pair path, and members
        that left it are rematched.
        """
        book = clique.book
        of = self.colors.of
        broken = (upd.u, upd.v) if clique.partner.get(upd.u) == upd.v else ()
        pairs = self.update_non_edges(clique, upd)
        if broken:
            # the inserted edge destroyed a matched pair; drop its shared color
            book.an.pop(of[upd.u], None)
            for w in broken:
                self.release_private(clique, w)
                book.big_l.add(w)
        for pair in pairs:
            for w in pair:
                if w in book.big_l:
                    self.release_private(clique, w)
                    book.big_l.discard(w)
        for w, x in pairs:
            self.recolor_pair(clique, w, x)
        # an endpoint of the broken pair that no new pair took is still blank
        for w in broken:
            if of[w] == BLANK:
                self.rematch(clique, w)

"""Brute-force verification oracle.

Everything is recomputed from scratch against the graph (the ground
truth): properness, the graph's own structure (symmetric adjacency,
position indexes, `deg` and `edge_count`, which the engine's unchecked
phase rewind trusts), the partition and its per-clique neighbor view
`n_c`, the friend lists' symmetry and nesting, exact density and
friendship of every vertex via exact common-neighbor counts, the four
decomposition invariants, clique size bounds, non-edge exactness,
per-clique color discipline, the palette identity, matching floors, and
edge-counter recounts.  Checks whose underlying claims are only
high-probability report pass rates and attribute misses to estimator
gaps (tracker belief differing from the oracle) instead of hard-failing.
A decomposition-invariant miss is attributed iff it names a vertex and
that vertex is a gap vertex; a clique-level miss (Size, Connectedness)
names none and is always hard, the strictest rule, since one judged by
the clique's members would excuse more.

`ProperWatch` is the incremental form of the properness check: it feeds
on color-assignment events, keeps no color index of its own, and after
each update compares every touched vertex's color with those of its
neighbors in the graph (the ground truth), which by induction certifies
properness after every single update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colors import BLANK
from .engine import Engine

# matching floors: |M_N| >= |nonedges| / (floor * eps * delta), in-phase and
# at a phase boundary
MATCHING_FLOOR_PHASE = 50.0
MATCHING_FLOOR_BOUNDARY = 22.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    violations: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f" ({len(self.violations)} violations)" if self.violations else ""
        return f"[{tag}] {self.name}{extra}"


@dataclass
class Report:
    checks: dict[str, CheckResult] = field(default_factory=dict)

    def add(self, result: CheckResult) -> None:
        self.checks[result.name] = result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failed_names(self) -> list[str]:
        return [n for n, c in self.checks.items() if not c.passed]

    def to_dict(self) -> dict:
        return {
            n: {
                "passed": c.passed,
                "violations": c.violations[:50],
                "info": c.info,
            }
            for n, c in self.checks.items()
        }

    def format_lines(self) -> str:
        return "\n".join(c.line() for c in self.checks.values())


class ProperWatch:
    """Exact incremental properness oracle, independent of engine bookkeeping.

    A color event only marks its vertex touched.  `check` reports a
    touched vertex that is blank or shares its color with a neighbor in
    the graph, and the update's inserted edge if it is monochromatic.  A
    monochromatic edge has a touched endpoint or is the inserted edge, so
    no edge escapes.
    """

    def __init__(self, engine):
        self.graph = engine.graph
        self.engine = engine
        self.touched: set[int] = set()
        self.violations: list[str] = []
        self.checked_updates = 0
        engine.colors.listeners.append(self._on_event)

    def _on_event(self, v: int, old: int, new: int) -> None:
        self.touched.add(v)

    def check(self, upd) -> bool:
        """Call right after engine.process(upd); True iff still proper."""
        ok = True
        of = self.engine.colors.of
        adj = self.graph.adj
        for v in self.touched:
            c = of[v]
            if c == BLANK:
                self.violations.append(f"update {self.checked_updates}: {v} left blank")
                ok = False
                continue
            for w in adj[v].items:
                if of[w] == c:
                    self.violations.append(
                        f"update {self.checked_updates}: edge ({v},{w}) monochromatic ({c})"
                    )
                    ok = False
        self.touched.clear()
        if upd.insert and of[upd.u] == of[upd.v]:
            self.violations.append(
                f"update {self.checked_updates}: inserted edge ({upd.u},{upd.v}) monochromatic"
            )
            ok = False
        self.checked_updates += 1
        return ok


def at_boundary(engine) -> bool:
    """Whether `verify`'s boundary-only checks apply to `engine` now.

    True at an engine's phase boundary, and always for the rescan
    baseline, which has no phases.
    """
    return not isinstance(engine, Engine) or engine.updates_in_phase == 0


def verify(
    engine,
    boundary: bool = True,
    soundness_floor: float = 0.98,
    load_ceiling: float | None = None,
) -> Report:
    """Recompute every maintained structure from scratch and diff.

    The rescan baseline is checked for properness only; the engine's
    decomposition and color bookkeeping are audited too.
    """
    rep = Report()
    g = engine.graph
    colors = engine.colors
    palette = engine.palette

    # properness ---------------------------------------------------------
    viol = []
    for u, v in g.edges():
        if colors.of[u] == colors.of[v]:
            viol.append(f"edge ({u},{v}) shares color {colors.of[u]}")
    for v in range(g.n):
        c = colors.of[v]
        if c != BLANK and not (0 <= c < palette):
            viol.append(f"vertex {v} colored outside the palette: {c}")
        if c == BLANK:
            viol.append(f"vertex {v} is blank")
    rep.add(CheckResult("properness", not viol, viol))
    if not isinstance(engine, Engine):
        return rep

    # graph structure: what the phase rewind's unchecked toggles trust ------
    viol = []
    adj, deg = g.adj, g.deg
    for v, s in enumerate(adj):
        items, pos = s.items, s._pos
        if len(pos) != len(items) or any(pos.get(w) != i for i, w in enumerate(items)):
            viol.append(f"adj[{v}]'s position index does not index its items")
        if deg[v] != len(items):
            viol.append(f"deg[{v}] = {deg[v]}, but adj[{v}] holds {len(items)}")
        if deg[v] > g.delta:
            viol.append(f"deg[{v}] = {deg[v]} exceeds delta = {g.delta}")
        for w in items:
            if v not in adj[w]._pos:
                viol.append(f"edge ({v},{w}) is missing from adj[{w}]")
    if g.edge_count != sum(deg) // 2:
        viol.append(f"edge_count = {g.edge_count}, but the degrees sum to {sum(deg)}")
    rep.add(CheckResult("graph_structure", not viol, viol))

    dec = engine.decomp
    dense = engine.dense
    params = engine.params
    delta = g.delta
    eps = params.epsilon
    drift = 0 if boundary else engine.updates_in_phase
    # one bitmask snapshot answers every common-neighbor count of this audit
    common = g.common_neighbor_counter()

    # partition and neighbor-view structures ------------------------------
    viol = dec.check_structures()
    rep.add(CheckResult("partition_structures", not viol, viol))

    # occupancy lists ------------------------------------------------------
    viol = []
    seen = set()
    of, clique_of = colors.of, dec.clique_of
    for c in range(palette):
        for name, lst, dense_side in (("L", colors.L[c], False), ("L_D", colors.L_D[c], True)):
            for v in lst:
                if of[v] != c:
                    viol.append(f"{name}[{c}] holds {v}, whose color is {of[v]}")
                if (clique_of[v] is not None) != dense_side:
                    viol.append(f"{name}[{c}] holds {v}, which is on the other side")
                if v in seen:
                    viol.append(f"{name}[{c}] lists {v} again")
                seen.add(v)
    for v in range(g.n):
        if of[v] != BLANK and v not in seen:
            viol.append(f"colored vertex {v} missing from occupancy lists")
    rep.add(CheckResult("occupancy_lists", not viol, viol))

    # per-clique color book -------------------------------------------------
    viol = []
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        book = cl.book
        if book is None:
            viol.append(f"clique {cid} has no color book")
            continue
        by_color: dict[int, list[int]] = {}
        for v in cl.members:
            c = colors.of[v]
            if c != BLANK:
                by_color.setdefault(c, []).append(v)
        for c, vs in by_color.items():
            if len(vs) > 2:
                viol.append(f"clique {cid}: color {c} used {len(vs)} times")
            elif len(vs) == 2:
                pair = book.an.get(c)
                if pair is None or set(pair) != set(vs):
                    viol.append(f"clique {cid}: color {c} doubly used off-matching")
                elif cl.partner.get(vs[0]) != vs[1]:
                    viol.append(f"clique {cid}: shared color {c} on unmatched pair")
        for c, pair in book.an.items():
            if sorted(by_color.get(c, ())) != sorted(pair):
                viol.append(f"clique {cid}: an[{c}] stale")
        want_usage = {c: set(vs) for c, vs in by_color.items()}
        if want_usage != book.usage:
            viol.append(f"clique {cid}: usage table wrong")
        if set(book.A) != set(range(palette)) - set(by_color):
            viol.append(f"clique {cid}: available-color set wrong")
        want_big_l = {v for v in cl.members if v not in cl.partner}
        if set(book.big_l) != want_big_l:
            viol.append(f"clique {cid}: big-L set wrong")
        for c, v in book.mp.items():
            if colors.of[v] != c or v not in want_big_l:
                viol.append(f"clique {cid}: private matching entry ({v},{c}) wrong")
    rep.add(CheckResult("color_book", not viol, viol))

    # palette identity -------------------------------------------------------
    viol = []
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        if cl.book is None:
            continue
        gap = dense.palette_identity_gap(cl)
        if gap:
            viol.append(f"clique {cid}: |A| off by {gap}")
    rep.add(CheckResult("palette_identity", not viol, viol))

    # edge counters -------------------------------------------------------------
    viol = []
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        if cl.book is None:
            continue
        want: dict[int, int] = {}
        for v in cl.members:
            for u in g.adj[v]:
                if dec.clique_of[u] is None:
                    c = colors.of[u]
                    if c != BLANK:
                        want[c] = want.get(c, 0) + 1
        if want != cl.book.t_c:
            viol.append(f"clique {cid}: edge counters wrong")
        want_heavy = {c for c, t in want.items() if t > dense.heavy_limit}
        if want_heavy != cl.book.heavy:
            viol.append(f"clique {cid}: heavy set wrong")
    rep.add(CheckResult("edge_counters", not viol, viol))

    # matching floors (partition_structures checks the pairs themselves) ----------
    viol = []
    floors = []
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        m = cl.matching_size()
        need_phase = cl.nonedge_count / (MATCHING_FLOOR_PHASE * eps * delta)
        if m < need_phase:
            viol.append(
                f"clique {cid}: matching {m} below phase floor {need_phase:.2f}"
            )
        if boundary:
            need_b = cl.nonedge_count / (MATCHING_FLOOR_BOUNDARY * eps * delta)
            if m < need_b:
                viol.append(
                    f"clique {cid}: matching {m} below boundary floor {need_b:.2f}"
                )
        floors.append((cid, m, cl.nonedge_count))
    rep.add(CheckResult("matching_floors", not viol, viol, {"cliques": len(floors)}))

    # non-edge degree bound, counted from the graph -----------------------------------
    viol = []
    c3 = params.c3
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        for v in cl.members:
            missing = sum(1 for u in cl.members if u != v and not g.has_edge(u, v))
            if missing > 3 * c3 * delta + drift:
                viol.append(f"clique {cid}: non-edge degree of {v} too high")
    rep.add(CheckResult("nonedges", not viol, viol))

    # friend-list structure: symmetry, no stale pair at a boundary ---------------
    tracker = engine.tracker
    viol = tracker.check_consistency(boundary=boundary)
    rep.add(CheckResult("friend_lists", not viol, viol))

    # friend-tracker soundness vs the oracle ----------------------------------------
    # The estimate samples one endpoint's neighbor list with replacement, so
    # at degrees below the cap it is inflated by delta/d(u): membership
    # certifies closeness scaled by the sampled endpoint's degree.  The rate
    # is measured against that certificate; the absolute form (degrees at
    # the cap) is reported alongside.
    # Each directed edge's common-neighbor count is taken once and judged
    # at both kept scales; each scale's rate must reach the floor.
    tau = params.tau
    absolute_false_in = 0
    total = 2 * g.edge_count  # directed edges, each judged at both scales
    gap_vertices: set[int] = set()
    names = ("N_1", "N_3")
    scales = []  # (lists, V_i test, ratio_hi, hi, lo) per kept scale
    for i, lists, in_v in ((1, tracker.n1, tracker.in_v1), (3, tracker.n3, tracker.in_v3)):
        ratio_hi = 1.0 - (i * eps + tau)
        hi = ratio_hi * delta - drift
        lo = (1.0 - (i * eps - tau)) * delta + drift
        scales.append((lists, in_v, ratio_hi, hi, lo))
    mismatches = [0, 0]
    for v in range(g.n):
        cnt_hi = [0, 0]
        for u in g.adj[v]:
            commons = common(u, v)
            for j, (lists, _, ratio_hi, hi, lo) in enumerate(scales):
                if commons >= hi:
                    cnt_hi[j] += 1
                if u in lists[v]:
                    if commons < hi:
                        # tracker belief diverges from the oracle's absolute
                        # form: usable for attributing invariant misses
                        absolute_false_in += 1
                        gap_vertices.update((u, v))
                    scaled = ratio_hi * min(delta, g.degree(u), g.degree(v)) - drift
                    if commons < scaled:
                        mismatches[j] += 1
                elif commons >= lo:
                    mismatches[j] += 1
                    gap_vertices.update((u, v))
        # a V_i membership, read from the list's current length, that the
        # oracle cannot justify is an estimator gap too
        for j, (_, in_v, _, hi, _) in enumerate(scales):
            if in_v(v) and cnt_hi[j] < hi:
                gap_vertices.add(v)
    rates = {name: 1.0 - (m / total if total else 0.0) for name, m in zip(names, mismatches)}
    low = [f"{name} soundness rate {r:.4f}" for name, r in rates.items() if r < soundness_floor]
    rep.add(
        CheckResult(
            "friend_soundness",
            not low,
            low,
            {
                "rates": rates,
                "mismatches": dict(zip(names, mismatches)),
                "absolute_false_in": absolute_false_in,
                "gap_vertices": len(gap_vertices),
            },
        )
    )

    # the four decomposition invariants, estimator misses attributed -----------------
    raw = dec.check_invariants(drift=drift, common=common)
    # attributed by the rule in the module docstring
    hard = [str(f) for f in raw if f.vertex is None or f.vertex not in gap_vertices]
    attributed = len(raw) - len(hard)
    rep.add(
        CheckResult(
            "decomposition_invariants",
            not hard,
            hard,
            {"estimator_gap_misses": attributed, "raw_misses": len(raw)},
        )
    )

    # clique size bounds (the headline form) --------------------------------------------
    viol = []
    lo_sz = (1.0 - 4.0 * eps) * delta
    hi_sz = (1.0 + 10.0 * eps) * delta
    nbr_floor = (1.0 - (4.0 if boundary else 5.0) * eps) * delta
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        size = len(cl.members)
        if not (lo_sz <= size <= hi_sz):
            viol.append(f"clique {cid}: size {size} outside [{lo_sz:.1f},{hi_sz:.1f}]")
        for v in cl.members:
            inside = sum(1 for u in g.adj[v] if dec.clique_of[u] == cid)
            if inside < nbr_floor:
                viol.append(f"clique {cid}: {v} has only {inside} inside neighbors")
    rep.add(CheckResult("clique_size_bounds", not viol, viol))

    # good-color audit (exact consequences of the matching floor) -----------------------
    viol = []
    stats = []
    for cid in sorted(dec.cliques):
        cl = dec.cliques[cid]
        if cl.book is None or len(cl.members) > delta:
            continue
        m = cl.matching_size()
        big_l = sorted(v for v in cl.members if v not in cl.partner)
        k = palette - len(cl.members)
        ext_edges = sum(
            1
            for v in big_l
            for u in g.adj[v]
            if dec.clique_of[u] != cid
        )
        bound = len(big_l) * k + 100.0 * m * eps * delta
        if ext_edges > bound:
            viol.append(
                f"clique {cid}: {ext_edges} external edges exceed bound {bound:.1f}"
            )
        big_l_set = set(big_l)
        blanks = [v for v in big_l if colors.of[v] == BLANK]

        def available(v, c):
            return not any(
                x not in big_l_set and colors.of[x] == c for x in g.adj[v]
            )

        good_members = []
        for v in big_l:
            c = colors.of[v]
            if c == BLANK:
                continue
            free = sum(1 for w in big_l if available(w, c))
            if free >= dense.dispatch_limit:
                good_members.append(v)
        unused = [c for c in range(palette) if c in cl.book.A]
        pairs = sum(
            1 for v in good_members for c in unused if available(v, c)
        )
        # the pair count against |good| * |blank| is analysis-shaped and only
        # reported; at desk scale its matching term can be negative
        stats.append(
            {
                "clique": cid,
                "big_l": len(big_l),
                "good_colored": len(good_members),
                "available_pairs": pairs,
                "pair_floor": len(good_members) * len(blanks),
            }
        )
    rep.add(CheckResult("good_colors", not viol, viol, {"cliques": stats}))

    # color-load report --------------------------------------------------------------------
    max_load = max((len(s) for s in colors.L), default=0)
    load_ok = load_ceiling is None or max_load <= load_ceiling
    rep.add(
        CheckResult(
            "color_load",
            load_ok,
            [] if load_ok else [f"max sparse list {max_load} over ceiling {load_ceiling}"],
            {"max_sparse_list": max_load, "max_dense_list": max((len(s) for s in colors.L_D), default=0)},
        )
    )
    return rep

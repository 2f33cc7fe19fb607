"""Acceptance criteria, one test per criterion, at their stated tolerances.

Headline asymptotics are not reproducible at desk scale; acceptance is
property-based (exact zero-tolerance checks) plus scaling-trend checks.
Each test prints one summary line: ACCEPT <id> PASS/FAIL <details>.
"""

import itertools
import math
import random
import time

import pytest

from dyncolor.adversary import make_adversary
from dyncolor.baseline import TrivialBaseline
from dyncolor.bench import loglog_slope
from dyncolor.colors import BLANK
from dyncolor.engine import Engine, EngineConfig
from dyncolor.friends import FriendTracker
from dyncolor.graph import DynamicGraph, EdgeUpdate, ins
from dyncolor.metrics import Metrics
from dyncolor.params import ParamSet
from dyncolor.runner import run_stream
from dyncolor.verify import verify

from conftest import make_engine, random_graph, sweep_params


def report(name, ok, detail):
    print(f"\nACCEPT {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---- criterion 1: master properness --------------------------------------------------


def test_accept_1_master_properness():
    strategies = ("adaptive-monochrome", "oblivious-random", "clique-churn")
    sizes = (256, 512, 1024, 2048)
    seeds = range(20)
    steps = 10_000
    t0 = time.perf_counter()
    violations = 0
    runs = 0
    for strategy in strategies:
        for n in sizes:
            delta = n // 2
            for seed in seeds:
                engine = Engine(n, delta, EngineConfig(params=sweep_params(seed, delta)))
                adv = make_adversary(strategy, n, delta, seed=seed + 1000)
                res = run_stream(engine, adv, steps, watch=True)
                violations += len(res["watch_violations"])
                runs += 1
                if not engine.is_proper():
                    violations += 1
    wall = time.perf_counter() - t0
    report(
        "1 master-properness",
        violations == 0,
        f"{runs} runs x {steps} updates, {violations} violations, {wall:.0f}s",
    )


# ---- criteria 2, 3, 4, 7: the dense sweep --------------------------------------------


@pytest.fixture(scope="module")
def dense_sweep():
    configs = [
        (64, 16, 0),
        (64, 16, 1),
        (64, 16, 2),
        (96, 24, 3),
        (96, 24, 4),
    ]
    steps = 3000
    out = {
        "identity_violations": 0,
        "floor_violations": 0,
        "boundary_floor_violations": 0,
        "audits": 0,
        "clean_audits": 0,
        "attributed_audits": 0,
        "hard_audits": 0,
        "structural_failures": 0,
        "full_audits": 0,
        "full_failures": [],
        "adjustments_per_update": [],
        "updates": 0,
        "runs": len(configs),
        "epsilon": 0.15,
    }
    for n, delta, seed in configs:
        # regime_frac pins every clique to the maintained maximal-matching
        # regime: the zero-tolerance floors are stated for that implementation
        engine = make_engine(
            n, delta, eps=0.15, tau=0.05, k=192, fire=4,
            phase_len=max(24, delta), strict=False, seed=seed, regime_frac=1.0,
        )
        adv = make_adversary(
            "clique-churn", n, delta, seed=seed + 50,
            target_size=delta + 1 + (seed % 2), erode_frac=0.5,
        )
        eps = engine.params.epsilon

        def per_update(e, upd, i):
            boundary = e.updates_in_phase == 0
            for cid, cl in e.decomp.cliques.items():
                if cl.book is None:
                    continue
                # criterion 2: the palette identity, every clique, exactly
                blank = any(e.colors.of[w] == BLANK for w in cl.book.big_l)
                if e.dense.palette_identity_gap(cl) != 0 or blank:
                    out["identity_violations"] += 1
                # criterion 4: matching floors
                m = cl.matching_size()
                if m < cl.nonedge_count / (50.0 * eps * delta):
                    out["floor_violations"] += 1
                if boundary and m < cl.nonedge_count / (22.0 * eps * delta):
                    out["boundary_floor_violations"] += 1
            # criterion 3: exact invariant audit on every update
            drift = 0 if boundary else e.updates_in_phase
            raw = e.decomp.check_invariants(drift=drift)
            out["audits"] += 1
            if not raw:
                out["clean_audits"] += 1
            else:
                rep = verify(e, boundary=boundary)
                inv = rep.checks["decomposition_invariants"]
                if inv.passed:
                    out["attributed_audits"] += 1
                else:
                    out["hard_audits"] += 1
            if (i + 1) % 250 == 0:
                rep = verify(e, boundary=boundary)
                out["full_audits"] += 1
                bad = [
                    nm
                    for nm in rep.failed_names()
                    if nm not in ("decomposition_invariants", "clique_size_bounds")
                ]
                if bad:
                    out["structural_failures"] += 1
                    out["full_failures"].append((n, seed, i, bad))

        res = run_stream(engine, adv, steps, watch=True, per_update=per_update)
        assert res["watch_violations"] == []
        out["updates"] += res["steps"]
        out["adjustments_per_update"].append(
            engine.metrics.nonedge_adjustments / max(res["steps"], 1)
        )
    return out


def test_accept_2_palette_identity(dense_sweep):
    report(
        "2 palette-identity",
        dense_sweep["identity_violations"] == 0,
        f"{dense_sweep['updates']} update boundaries, "
        f"{dense_sweep['identity_violations']} violations",
    )


def test_accept_3_decomposition_audit(dense_sweep):
    audits = dense_sweep["audits"]
    clean = dense_sweep["clean_audits"]
    attributed = dense_sweep["attributed_audits"]
    hard = dense_sweep["hard_audits"]
    rate = clean / audits if audits else 0.0
    ok = (
        rate >= 0.99
        and hard == 0
        and dense_sweep["structural_failures"] == 0
    )
    report(
        "3 decomposition-audit",
        ok,
        f"clean {clean}/{audits} ({rate:.4f}), attributed {attributed}, "
        f"hard {hard}, structural {dense_sweep['structural_failures']} "
        f"{dense_sweep['full_failures'][:3]}",
    )


def test_accept_4_matching_floors(dense_sweep):
    ok = (
        dense_sweep["floor_violations"] == 0
        and dense_sweep["boundary_floor_violations"] == 0
    )
    report(
        "4 matching-floors",
        ok,
        f"phase-floor misses {dense_sweep['floor_violations']}, "
        f"boundary misses {dense_sweep['boundary_floor_violations']}",
    )


def test_accept_7_adjustment_complexity(dense_sweep):
    eps = dense_sweep["epsilon"]
    budget = 4.0 / eps**4
    worst = max(dense_sweep["adjustments_per_update"])
    report(
        "7 adjustment-complexity",
        worst <= budget,
        f"worst mean non-edge deltas/update {worst:.2f} <= {budget:.0f}",
    )


# ---- criterion 5: color-load law ------------------------------------------------------


def test_accept_5_color_load_law():
    n, delta = 2000, 200
    load_bound = 8.0 * (n / delta) * math.log(n)
    growth_bound = 8.0 * math.sqrt(math.log(n))
    worst_c0 = 0.0
    worst_c1 = 0.0
    for seed in range(20):
        engine = make_engine(n, delta, eps=0.2, seed=seed, phase_len=10**9)
        random_graph(n, delta, 120_000, seed=seed, g=engine.graph)
        engine.colors.blank_all()
        engine.sparse.color_sparse()
        max_load = max(len(lst) for lst in engine.colors.L)
        worst_c0 = max(worst_c0, max_load / ((n / delta) * math.log(n)))
        start = [len(lst) for lst in engine.colors.L]
        rng = random.Random(seed + 999)
        for _ in range(100):  # phase-scaled recoloring pressure
            engine.sparse.recolor_sparse(rng.randrange(n))
        growth = max(len(lst) - s for lst, s in zip(engine.colors.L, start))
        worst_c1 = max(worst_c1, growth / math.sqrt(math.log(n)))
    ok = worst_c0 <= 8.0 and worst_c1 <= 8.0
    report(
        "5 color-load-law",
        ok,
        f"fitted C0={worst_c0:.2f} (<=8), C1={worst_c1:.2f} (<=8)",
    )


# ---- criterion 6: estimator soundness --------------------------------------------------


def planted_instance(delta, commons):
    """Edge (0,1); exactly `commons` shared neighbors; both degrees = delta."""
    n = 2 + commons + 2 * (delta - 1 - commons)
    g = DynamicGraph(n, delta)
    g.apply(ins(0, 1))
    w = 2
    for _ in range(commons):
        g.apply(ins(0, w))
        g.apply(ins(1, w))
        w += 1
    for _ in range(delta - 1 - commons):
        g.apply(ins(0, w))
        w += 1
        g.apply(ins(1, w))
        w += 1
    assert g.degree(0) == g.degree(1) == delta
    assert g.common_neighbor_counter()(0, 1) == commons
    return g


def test_accept_6_estimator_soundness():
    delta = 64
    eps, tau = 0.3, 0.15
    hi = math.ceil((1 - eps + tau) * delta)  # must be classified a friend
    lo = math.ceil((1 - eps) * delta) - 1  # must not be
    trials = 1000
    miss = 0
    for commons, want in ((hi, True), (lo, False)):
        g = planted_instance(delta, commons)
        k = math.ceil(12 * 3.0 * math.log(g.n) / tau**2)
        # a fire limit of 2 keeps the insertion from firing a refresh: it is
        # judged by one k-sample count from N(0) at the production thresholds
        params = ParamSet(epsilon=eps, tau=tau, sample_count_k=k, fire_threshold=2.0)
        for seed in range(trials):
            tr = FriendTracker(g, params, random.Random(seed), Metrics())
            assert tr.maintain_friends(ins(0, 1)) == []
            got = 1 in tr.n1[0]  # the strictest scale
            if got != want:
                miss += 1
    rate = miss / (2 * trials)
    report(
        "6 estimator-soundness",
        rate <= 0.01,
        f"misclassification {miss}/{2 * trials} = {rate:.4f} (k per analysis, c=3)",
    )


# ---- criterion 8: scaling separation ---------------------------------------------------


def test_accept_8_scaling_separation():
    sizes = [2**p for p in range(8, 14)]
    seeds = (0, 1)
    engine_pts = []
    baseline_pts = []
    fallback_rate = 0.0
    total_updates = 0
    total_fallbacks = 0
    for n in sizes:
        delta = n // 2
        # steps scale with n so edge density and phases-per-run stay fixed
        # across the sweep; otherwise the neighbor-scan share of the trivial
        # algorithm's work varies by size and distorts the slope
        steps = 2 * n
        ew, bw = [], []
        for seed in seeds:
            engine = Engine(n, delta, EngineConfig(params=sweep_params(seed, delta)))
            adv = make_adversary("adaptive-monochrome", n, delta, seed=seed + 77)
            res = run_stream(engine, adv, steps)
            ew.append(engine.metrics.work / max(res["steps"], 1))
            total_updates += res["steps"]
            total_fallbacks += engine.metrics.fallbacks
            base = TrivialBaseline(n, delta)
            badv = make_adversary("adaptive-monochrome", n, delta, seed=seed + 77)
            view = base.coloring_view()
            for _ in range(steps):
                base.process(badv.next(view))
            bw.append(base.metrics.work / steps)
        engine_pts.append((n, sum(ew) / len(ew)))
        baseline_pts.append((n, sum(bw) / len(bw)))
    eng_slope = loglog_slope(engine_pts)
    base_slope = loglog_slope(baseline_pts)
    fallback_rate = total_fallbacks / total_updates
    ok = eng_slope <= 0.95 and base_slope >= 0.98 and fallback_rate <= 0.001
    report(
        "8 scaling-separation",
        ok,
        f"engine slope {eng_slope:.3f} (<=0.95), baseline {base_slope:.3f} (>=0.98), "
        f"fallback rate {fallback_rate:.5f} (<=0.001)",
    )


# ---- criterion 9: exhaustive small instances --------------------------------------------


def brute_proper(engine):
    of = [engine.color_of(v) for v in range(engine.n)]
    if any(c == BLANK or not (0 <= c <= engine.delta) for c in of):
        return False
    return all(of[u] != of[v] for u, v in engine.graph.edges())


def all_sequences(n, length):
    pairs = list(itertools.combinations(range(n), 2))
    for combo in itertools.product(range(len(pairs)), repeat=length):
        yield [pairs[i] for i in combo]


def run_sequence(n, pair_seq):
    delta = n - 1
    engine = Engine(
        n,
        delta,
        EngineConfig(
            params=ParamSet(
                epsilon=0.2, tau=0.2, seed=5, sample_count_k=4, phase_len_t=2
            )
        ),
    )
    for u, v in pair_seq:
        upd = EdgeUpdate(u, v, not engine.graph.has_edge(u, v))
        engine.process(upd)
        if not brute_proper(engine):
            return False
    return True


def test_accept_9_small_exhaustive():
    checked = 0
    bad = 0
    for n in (2, 3, 4):
        for seq in all_sequences(n, 6):
            checked += 1
            if not run_sequence(n, seq):
                bad += 1
    sampled = 0
    for n in (5, 6, 7, 8):
        pairs = list(itertools.combinations(range(n), 2))
        rng = random.Random(n)
        for _ in range(2500):
            seq = [pairs[rng.randrange(len(pairs))] for _ in range(6)]
            sampled += 1
            if not run_sequence(n, seq):
                bad += 1
    report(
        "9 small-oracle-equivalence",
        bad == 0,
        f"{checked} exhaustive (n<=4) + {sampled} sampled (n in 5..8) sequences, "
        f"{bad} improper",
    )

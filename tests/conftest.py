import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from dyncolor.engine import Engine, EngineConfig
from dyncolor.graph import DynamicGraph, EdgeUpdate, dele, ins
from dyncolor.params import ParamSet


def make_params(eps=0.2, tau=None, seed=0, phase_len=None, k=None, fire=None, **kw):
    return ParamSet(
        epsilon=eps,
        tau=tau,
        seed=seed,
        phase_len_t=phase_len,
        sample_count_k=k,
        fire_threshold=fire,
        **kw,
    )


HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"


def _harness():
    """The benchmark's harness module, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _harness()

# cheap-tracker desk profile for the large properness and scaling sweeps, the
# one the benchmark runs: refresh firing and phase length scale with delta so
# per-update work is homogeneous across sizes
sweep_params = harness.sweep_params


# the metrics of the engines a test made strict; see no_estimator_gaps
STRICT_METRICS = []


def make_engine(n, delta, strict=True, **param_kw):
    """An engine on `make_params(**param_kw)`; `strict` fails the test on any
    estimator gap event in it."""
    engine = Engine(n, delta, EngineConfig(params=make_params(**param_kw)))
    if strict:
        STRICT_METRICS.append(engine.metrics)
    return engine


@pytest.fixture(autouse=True)
def no_estimator_gaps():
    """Fail the test if a strict engine's dense move found a vertex's close
    friends spread over more than one clique (`estimator_gap_events`)."""
    STRICT_METRICS.clear()
    yield
    gaps = [m.estimator_gap_events for m in STRICT_METRICS]
    STRICT_METRICS.clear()
    if any(gaps):
        pytest.fail(f"estimator gap events in the test's strict engines: {gaps}")


def add_edges(g: DynamicGraph, pairs):
    for u, v in pairs:
        g.apply(ins(u, v))


def clique_edges(vertices):
    return list(itertools.combinations(vertices, 2))


def random_graph(n, delta, m, seed=0, g=None):
    """Random legal graph with m edges (best effort under the cap)."""
    rng = random.Random(seed)
    g = g or DynamicGraph(n, delta)
    tries = 0
    while g.edge_count < m and tries < 50 * m:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        if g.degree(u) < delta and g.degree(v) < delta:
            g.apply(ins(u, v))
    return g


def feed_edges(engine, pairs):
    for u, v in pairs:
        engine.process(ins(u, v))


def friend_set(lists, v):
    """v's entry of one scale's friend lists, as a set of its own that a test may write.

    `lists` is `tracker.n1` or `tracker.n3`.  An untouched vertex's entry is
    the tracker's shared read-only empty; it is replaced by a fresh set first.
    """
    if type(lists[v]) is not set:
        lists[v] = set()
    return lists[v]


def oracle_fill_tracker(engine):
    """Set the friend lists N_1 and N_3 exactly from the common-neighbor oracle."""
    tr = engine.tracker
    g = engine.graph
    eps, delta = engine.params.epsilon, g.delta
    count = g.common_neighbor_counter()
    for i, lists in ((1, tr.n1), (3, tr.n3)):
        thr = (1.0 - i * eps) * delta
        for v in range(g.n):
            friend_set(lists, v).clear()
        for u, v in g.edges():
            if count(u, v) >= thr:
                friend_set(lists, u).add(v)
                friend_set(lists, v).add(u)


def install_clique(engine, members):
    """Surgically install an almost-clique (exact bookkeeping, no sampling)."""
    dec = engine.decomp
    g = engine.graph
    c = dec._new_clique()
    c.members = set(members)
    for v in members:
        dec.clique_of[v] = c.id
    # recompute every neighbor view from scratch for global consistency
    for x in range(g.n):
        nc = {}
        for u in g.adj[x]:
            cid = dec.clique_of[u]
            if cid is not None:
                nc[cid] = nc.get(cid, 0) + 1
        dec.n_c[x] = nc
    for v in members:
        c.nonedges[v] = {u for u in members if u != v and not g.has_edge(u, v)}
    return c


def dense_fixture(n, delta, members_lists, holes=(), extra_edges=(), **param_kw):
    """Engine with installed cliques and a full consistent coloring.

    `holes` are in-clique pairs left uninserted (the cliques' non-edges).
    """
    param_kw.setdefault("phase_len", 10**9)  # keep the fixture's phase open
    engine = make_engine(n, delta, **param_kw)
    g = engine.graph
    hole_set = {(min(u, v), max(u, v)) for u, v in holes}
    for members in members_lists:
        for u, v in clique_edges(members):
            if (min(u, v), max(u, v)) in hole_set or g.has_edge(u, v):
                continue
            g.apply(ins(u, v))
    for u, v in extra_edges:
        if not g.has_edge(u, v):
            g.apply(ins(u, v))
    oracle_fill_tracker(engine)
    cliques = [install_clique(engine, m) for m in members_lists]
    engine.rebuild_colors()
    return engine, cliques


def report_bytes(rep) -> bytes:
    """A `verify` report as bytes for a pin: every check's name, pass flag,
    violations in full and info, except `good_colors`' info, which only
    reports statistics."""
    return json.dumps(
        [
            [name, c.passed, c.violations, None if name == "good_colors" else c.info]
            for name, c in rep.checks.items()
        ],
        sort_keys=True,
    ).encode()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

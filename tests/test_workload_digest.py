"""Bit-identity gate at benchmark scale: the three perfbench workloads at seed 0.

The golden traces pin runs with n <= 512 and palettes <= 129.  This test
rebuilds the benchmark's workloads (adaptive-sparse, churn-dense and
deletion-wide) from their strategy, n, delta and parameter profile, plays
each whole stream against a fresh engine and hashes:

- both endpoint colors after every update;
- at every phase boundary, the coloring, the item order of every L(c) and
  every friend list N_1 and N_3 in iteration order;
- the engine generator's final state and the final `Metrics`.

A change that alters a draw, a placement, a list order or a counter
changes the hash.  Re-record only on purpose, with

    PYTHONPATH=src python tests/test_workload_digest.py
"""

import hashlib
from array import array
from itertools import compress

import pytest

from dyncolor import Engine, EngineConfig, make_adversary

from conftest import sweep_params

# name -> (strategy, n, delta, updates), as the benchmark defines them
WORKLOADS = {
    "adaptive-sparse": ("adaptive-monochrome", 4096, 2048, 28_000),
    "churn-dense": ("clique-churn", 1024, 128, 20_000),
    "deletion-wide": ("deletion-heavy", 8192, 256, 6_400),
}

SEED = 0

# recorded with `__main__` below
DIGESTS = {
    "adaptive-sparse": "8788c737ecdc708e735b7792429bbe47f0e6cc37d1631bc88da1dc57b7408007",
    "churn-dense": "cf3e52fa804f9aa4bb9f2b5e9b966b53851f1eea34380644463383d0faabee18",
    "deletion-wide": "6003431d2d036265612d96e37f70c4db3dfb09bfff44aaf906667b5d180f4ab1",
}


def _ints(h, xs):
    h.update(array("q", xs).tobytes())
    h.update(b"|")


def workload_digest(name, seed=SEED):
    strategy, n, delta, updates = WORKLOADS[name]
    engine = Engine(n, delta, EngineConfig(params=sweep_params(seed, delta)))
    adversary = make_adversary(strategy, n, delta, seed=seed + 1000)
    view = engine.coloring_view() if adversary.adaptive else None
    of, L = engine.colors.of, engine.colors.L
    lists = (engine.tracker.n1, engine.tracker.n3)
    h = hashlib.sha256()
    endpoints = []
    for _ in range(updates):
        upd = adversary.next(view)
        engine.process(upd)
        endpoints += (of[upd.u], of[upd.v])
        if engine.updates_in_phase == 0:
            boundary = list(of)
            for lst in L:
                boundary += lst
                boundary.append(-1)
            for scale in lists:
                for v, friends in compress(enumerate(scale), scale):
                    boundary.append(v)
                    boundary += friends
                    boundary.append(-1)
            _ints(h, boundary)
    _ints(h, endpoints)
    h.update(repr(engine.rng.getstate()).encode())
    h.update(repr(engine.metrics.to_dict()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_digest_is_unchanged(name):
    assert workload_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(WORKLOADS):
        print(f'    "{name}": "{workload_digest(name)}",')

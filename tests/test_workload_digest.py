"""Bit-identity gate at benchmark scale: the three perfbench workloads at seed 0.

The golden traces pin runs with n <= 512 and palettes <= 129.  This test
takes the benchmark's workloads (adaptive-sparse, churn-dense and
deletion-wide) from `perfbench/harness.py`, builds each engine and
adversary with the harness's own `new_engine` and `new_adversary`, plays
each whole stream against the engine and hashes two halves.

The coloring half covers:

- both endpoint colors after every update;
- at every phase boundary, the coloring and the item order of every L(c);
- the engine generator's final state and the final `Metrics`.

The decomposition half covers, at every phase boundary, every friend list
N_1 and N_3 in iteration order and every vertex's clique.

A third hash pins `verify`'s report on the run's end state (every check
but `good_colors`' info), so a change to how `verify` computes its
checks must leave their verdicts, violations and info as they were.

The friend tracker draws from a generator of its own, so a change to its
draws alone moves the decomposition half and leaves the coloring half as
it was wherever no almost-clique forms.  A change that alters a draw, a
placement, a list order or a counter changes a hash.  Re-record only on
purpose, with

    PYTHONPATH=src python tests/test_workload_digest.py
"""

import hashlib
from array import array
from functools import cache
from itertools import compress

import pytest

from dyncolor import verify

from conftest import harness, report_bytes

WORKLOADS = harness.WORKLOADS

SEED = 0

# recorded with `__main__` below
DIGESTS = {
    "adaptive-sparse": {
        "coloring": "eabd8d45650d1582937bb27af7f43e2f83f587ca6ea8ff343af7bb72ad52db7d",
        "decomposition": "18a252ee4bd95baedc2db07edb19c5e1afd5f35d62cb310bd81862cbed80b894",
    },
    "churn-dense": {
        "coloring": "8a3a9fec64daea33ca3f5d51286b5c85e492fec5fbb5173e0cc44155f971c3b0",
        "decomposition": "8699094b9cf56ec916b0bed16e738f9080747bbc28ad4de662d84c4a63df2de6",
    },
    "deletion-wide": {
        "coloring": "d7dd81d06e09ef5b42eb4bdff51ad96b3c55c954ada29bdeacb49ec81e0738e0",
        "decomposition": "15374f04a61f8043051936710351483bc17b3d691f4cb985e1ee7fd8bf6d3866",
    },
}


def _ints(h, xs):
    h.update(array("q", xs).tobytes())
    h.update(b"|")


# the end state's verify report, recorded with `__main__` below
REPORTS = {
    "adaptive-sparse": "9b060b29fdc4e86900b4c840d8da7534771c8b7eb0c978f255bb8e2378aaf359",
    "churn-dense": "b37d494199143c1524d46f3e6a57fd5829014db34a3ad189b17b128331e9240b",
    "deletion-wide": "3edc2dfcae23ed9e07310414e7bc47d2ef7d3ada5133eb620a3e06c7b337a67e",
}


@cache
def workload_digests(name, seed=SEED):
    """The run's {"coloring", "decomposition", "report"} sha256s."""
    wl = WORKLOADS[name]
    engine = harness.new_engine(wl, seed)
    adversary = harness.new_adversary(wl, seed)
    view = engine.coloring_view() if adversary.adaptive else None
    of, L = engine.colors.of, engine.colors.L
    lists = (engine.tracker.n1, engine.tracker.n3)
    clique_of = engine.decomp.clique_of
    coloring, decomposition = hashlib.sha256(), hashlib.sha256()
    endpoints = []
    for _ in range(wl.updates):
        upd = adversary.next(view)
        engine.process(upd)
        endpoints += (of[upd.u], of[upd.v])
        if engine.updates_in_phase == 0:
            boundary = list(of)
            for lst in L:
                boundary += lst
                boundary.append(-1)
            _ints(coloring, boundary)
            boundary = [-1 if cid is None else cid for cid in clique_of]
            for scale in lists:
                for v, friends in compress(enumerate(scale), scale):
                    boundary.append(v)
                    boundary += friends
                    boundary.append(-1)
            _ints(decomposition, boundary)
    _ints(coloring, endpoints)
    coloring.update(repr(engine.rng.getstate()).encode())
    coloring.update(repr(engine.metrics.to_dict()).encode())
    report = report_bytes(verify(engine, boundary=engine.updates_in_phase == 0))
    return {
        "coloring": coloring.hexdigest(),
        "decomposition": decomposition.hexdigest(),
        "report": hashlib.sha256(report).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_digest_is_unchanged(name):
    digests = workload_digests(name)
    assert {half: digests[half] for half in DIGESTS[name]} == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_verify_report_at_the_end_state_is_unchanged(name):
    assert workload_digests(name)["report"] == REPORTS[name]


if __name__ == "__main__":
    for name in sorted(WORKLOADS):
        digests = workload_digests(name)
        print(f'    "{name}": {{')
        for half in ("coloring", "decomposition"):
            print(f'        "{half}": "{digests[half]}",')
        print("    },")
    for name in sorted(WORKLOADS):
        print(f'    "{name}": "{workload_digests(name)["report"]}",')

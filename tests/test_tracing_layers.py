"""perfbench's layer trace wraps engine methods by name; keep the names there.

`perfbench/tracing.py` replaces `cls.__dict__[meth]` for every entry of
its `LAYERS`, so a renamed or moved method breaks `run.py --trace 1`.
This reads that table and checks each method is defined on its own class,
and that each counter it snapshots is a `Metrics` slot.
"""

import importlib.util
from pathlib import Path

from dyncolor.metrics import Metrics

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_is_defined_on_its_class():
    tracing = _tracing()
    missing = [
        f"{name}: {cls.__name__}.{meth}"
        for name, (cls, meth) in tracing.LAYERS.items()
        if not callable(cls.__dict__.get(meth))
    ]
    assert tracing.LAYERS and missing == []


def test_every_traced_counter_is_a_metrics_slot():
    # the trace snapshots these by attribute name at every span edge
    counters = _tracing().COUNTERS
    assert counters and set(counters) <= set(Metrics.__slots__)

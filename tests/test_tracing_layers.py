"""perfbench's layer trace wraps engine methods by name; keep the names there.

`perfbench/tracing.py` replaces `cls.__dict__[meth]` for every entry of
its `LAYERS`, so a renamed or moved method breaks `run.py --trace 1`.
This reads that table and checks each method is defined on its own class.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_is_defined_on_its_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{name}: {cls.__name__}.{meth}"
        for name, (cls, meth) in tracing.LAYERS.items()
        if not callable(cls.__dict__.get(meth))
    ]
    assert tracing.LAYERS and missing == []

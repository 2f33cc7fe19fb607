"""Fully dynamic (max-degree + 1) vertex coloring against adaptive adversaries."""

from .adversary import STRATEGIES, make_adversary
from .baseline import TrivialBaseline
from .colors import BLANK
from .engine import Engine, EngineConfig
from .errors import (
    BadEndpoints,
    DegreeCapExceeded,
    DuplicateEdge,
    EmptyPalette,
    Exhausted,
    IterationCapExceeded,
    MalformedTrace,
    MissingEdge,
)
from .graph import DynamicGraph, EdgeUpdate, dele, ins
from .params import ParamSet, auto_epsilon, trivial_cutoff
from .runner import build_engine, record_run, replay_trace, run_stream
from .trace import TraceFile
from .verify import ProperWatch, Report, verify

__all__ = [
    "BLANK",
    "BadEndpoints",
    "DegreeCapExceeded",
    "DuplicateEdge",
    "DynamicGraph",
    "EdgeUpdate",
    "EmptyPalette",
    "Engine",
    "EngineConfig",
    "Exhausted",
    "IterationCapExceeded",
    "MalformedTrace",
    "MissingEdge",
    "ParamSet",
    "ProperWatch",
    "Report",
    "STRATEGIES",
    "TraceFile",
    "TrivialBaseline",
    "auto_epsilon",
    "build_engine",
    "dele",
    "ins",
    "make_adversary",
    "record_run",
    "replay_trace",
    "run_stream",
    "trivial_cutoff",
    "verify",
]

"""README's lists of trace-header keys and CLI settings follow the code."""

import re
from dataclasses import fields
from pathlib import Path

from dyncolor.cli import SETTINGS
from dyncolor.params import ParamSet
from dyncolor.runner import RUN_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def _names(backticked: str) -> list[str]:
    """The names in backticks, one per span or comma-separated within one."""
    spans = re.findall(r"`([^`]*)`", backticked)
    return [name.strip() for span in spans for name in span.split(",")]


def test_readme_lists_every_header_key_and_cli_setting():
    text = " ".join(README.read_text().split())
    header = re.search(
        r"The header keys are (`[^`]*`), then every `ParamSet` field in order: (`[^`]*`)", text
    )
    assert header, "README no longer states the trace header keys"
    assert _names(header[1]) == list(RUN_KEYS)
    assert _names(header[2]) == [f.name for f in fields(ParamSet)]
    cli = re.search(r"All parameter flags \(([^)]*)\) and the sizes \(([^)]*)\)", text)
    assert cli, "README no longer lists the CLI's parameter flags"
    flags = [flag.removeprefix("--") for flag in _names(cli[1])]
    assert _names(cli[2]) + flags == list(SETTINGS)

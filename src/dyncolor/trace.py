"""Line-oriented trace files: record and replay update streams.

Format: a block of ``key=value`` header lines, then one update per line
(``+ u v`` / ``- u v``).  A ``! v:c v:c ...`` line directly after an
update optionally records the color assignments that update produced,
which makes replay-determinism checks a plain text diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedTrace
from .graph import EdgeUpdate


@dataclass
class TraceFile:
    header: dict[str, str] = field(default_factory=dict)
    updates: list[EdgeUpdate] = field(default_factory=list)
    outputs: list[list[tuple[int, int]]] | None = None  # per-update color deltas

    def dumps(self) -> str:
        lines = [f"{k}={v}" for k, v in self.header.items()]
        for i, upd in enumerate(self.updates):
            lines.append(str(upd))
            if self.outputs is not None:
                deltas = self.outputs[i]
                lines.append("! " + " ".join(f"{v}:{c}" for v, c in deltas))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "TraceFile":
        header: dict[str, str] = {}
        updates: list[EdgeUpdate] = []
        outputs: list[list[tuple[int, int]]] = []
        saw_output = has_output = False
        in_header = True
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] in "+-":
                in_header = False
                parts = line.split()
                if len(parts) != 3 or parts[0] not in ("+", "-"):
                    raise MalformedTrace(lineno, f"expected '+/- u v', got {raw!r}")
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise MalformedTrace(lineno, f"non-integer endpoint in {raw!r}")
                updates.append(EdgeUpdate(u, v, parts[0] == "+"))
                outputs.append([])
                has_output = False
            elif line[0] == "!":
                if not updates:
                    raise MalformedTrace(lineno, "output line before any update")
                if has_output:
                    raise MalformedTrace(lineno, "second output line for one update")
                saw_output = has_output = True
                deltas = []
                for tok in line[1:].split():
                    try:
                        vs, cs = tok.split(":")
                        deltas.append((int(vs), int(cs)))
                    except ValueError:
                        raise MalformedTrace(lineno, f"bad output token {tok!r}")
                outputs[-1] = deltas
            elif in_header and "=" in line:
                k, _, v = line.partition("=")
                header[k.strip()] = v.strip()
            else:
                raise MalformedTrace(lineno, f"unparseable line {raw!r}")
        return cls(header, updates, outputs if saw_output else None)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "TraceFile":
        with open(path) as fh:
            return cls.loads(fh.read())

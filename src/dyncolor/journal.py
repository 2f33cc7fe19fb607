"""Reversible delta log for the structures that stay frozen across a phase.

Every in-phase mutation of the partition-adjacent structures (the
per-clique neighbor view `n_c`, non-edge lists, non-edge matching) is
recorded here so that the end-of-phase rebuild can rewind them to their
phase-start state before replaying the phase's updates.  A
sparse-sparse update records nothing.
"""

from __future__ import annotations

from .sampleset import own

NC_ADD, NC_REM, NE_ADD, NE_REM, MT_ADD, MT_REM = range(6)


class PhaseJournal:
    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[tuple] = []

    def note(self, *op):
        self.ops.append(op)

    def __len__(self):
        return len(self.ops)

    def revert(self, decomp) -> None:
        """Undo every recorded op, newest first, then empty the log."""
        n_c = decomp.n_c
        cliques = decomp.cliques
        for op in reversed(self.ops):
            tag = op[0]
            if tag == NC_ADD:
                _, x, cid, w = op
                s = n_c[x].get(cid)
                if s is not None:
                    s.discard(w)
                    if not s:
                        n_c[x].pop(cid)
            elif tag == NC_REM:
                _, x, cid, w = op
                own(n_c, x).setdefault(cid, set()).add(w)
            elif tag == NE_ADD:
                _, cid, u, v = op
                decomp._nonedge_remove_raw(cliques[cid], u, v)
            elif tag == NE_REM:
                _, cid, u, v = op
                decomp._nonedge_add_raw(cliques[cid], u, v)
            elif tag == MT_ADD:
                _, cid, u, v = op
                c = cliques[cid]
                c.partner.pop(u, None)
                c.partner.pop(v, None)
            elif tag == MT_REM:
                _, cid, u, v = op
                c = cliques[cid]
                c.partner[u] = v
                c.partner[v] = u
        self.ops.clear()

"""Rewind of the structures that stay frozen across a phase.

Inside a phase the partition is frozen, so the graph and the views that
`Decomposition.note_edge` writes (the per-clique neighbor counts `n_c`
and the same-clique non-edge lists) follow from the phase's own updates:
`revert` runs them backwards, newest first, toggling each edge back and
handing `note_edge` the inverse update.  Without a clique no view changed
and only the graph is rewound.  The non-edge matching does not follow
from the graph, because the pair fallbacks break and form pairs, so
`start` copies each clique's matching when a phase starts and `revert`
puts the copies back.
"""

from __future__ import annotations

from .graph import EdgeUpdate


class PhaseJournal:
    __slots__ = ("partners",)

    def __init__(self):
        self.partners: dict[int, dict[int, int]] = {}  # clique id -> matching

    def start(self, decomp) -> None:
        """Copy every clique's matching as it stands at phase start."""
        self.partners = {cid: dict(c.partner) for cid, c in decomp.cliques.items()}

    def revert(self, decomp, updates) -> None:
        """Undo the phase's `updates`, newest first, on the frozen partition.

        `process` applied each of them, so undoing them in this order is
        legal at every step and `toggle` needs no check.
        """
        toggle = decomp.graph.toggle
        note_edge = decomp.note_edge if decomp.cliques else None
        for upd in reversed(updates):
            u, v, insert = upd.u, upd.v, not upd.insert
            toggle(u, v, insert)
            if note_edge is not None:
                note_edge(EdgeUpdate(u, v, insert))
        cliques = decomp.cliques
        for cid, partner in self.partners.items():
            cliques[cid].partner = partner
        self.partners = {}

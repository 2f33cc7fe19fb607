"""Rewind of the structures that stay frozen across a phase.

Inside a phase the partition is frozen, so two of the three structures the
end-of-phase rebuild must rewind follow from the phase's own updates: the
per-clique neighbor views `n_c` change only as `note_edge` records each
update, and a same-clique update toggles exactly one non-edge.  `revert`
undoes both from the update list, newest first, with the helpers that made
them; a sparse-sparse update changed neither.  The non-edge matching does
not follow from the graph, because the pair fallbacks break and form pairs,
so `start` copies each clique's matching when a phase starts and `revert`
puts the copies back.
"""

from __future__ import annotations


class PhaseJournal:
    __slots__ = ("partners",)

    def __init__(self):
        self.partners: dict[int, dict[int, int]] = {}  # clique id -> matching

    def start(self, decomp) -> None:
        """Copy every clique's matching as it stands at phase start."""
        self.partners = {cid: dict(c.partner) for cid, c in decomp.cliques.items()}

    def revert(self, decomp, updates) -> None:
        """Undo the phase's `updates`, newest first, on the frozen partition."""
        clique_of = decomp.clique_of
        cliques = decomp.cliques
        for upd in reversed(updates):
            u, v = upd.u, upd.v
            cu, cv = clique_of[u], clique_of[v]
            if cu is None and cv is None:
                continue
            if upd.insert:
                decomp._nbr_remove(v, u)
                decomp._nbr_remove(u, v)
                if cu == cv:
                    decomp.nonedge_add(cliques[cu], u, v)
            else:
                decomp._nbr_add(v, u)
                decomp._nbr_add(u, v)
                if cu == cv:
                    decomp.nonedge_remove(cliques[cu], u, v)
        for cid, partner in self.partners.items():
            cliques[cid].partner = partner
        self.partners = {}

"""The canonical search without automorphism pruning, as a test oracle.

`unpruned_labeling` visits every leaf of the individualization-refinement
tree of `canonical._Canonizer`, one per automorphism on a symmetric graph,
and keeps the first leaf with the least encoding.  The package's pruned
search must return the same encoding and the same order.
"""

from tropilink.canonical import _Canonizer, _tables
from tropilink.graphs import _as_weighted


class _Unpruned(_Canonizer):
    def _search(self, partition, path):
        partition = self._refine(partition)
        target = None
        for ci, cell in enumerate(partition):
            if len(cell) > 1:
                if target is None or len(cell) < len(partition[target]):
                    target = ci
        if target is None:
            order = [c[0] for c in partition]
            enc = self._encode(order)
            if self.best is None or enc < self.best[0]:
                self.best = (enc, order, path)
            return len(path)
        for x in partition[target]:
            branched = (
                partition[:target]
                + [[x], [y for y in partition[target] if y != x]]
                + partition[target + 1:]
            )
            self._search(branched, path + [x])
        return len(path)


def unpruned_labeling(obj, marked=()) -> tuple[tuple, tuple[int, ...]]:
    """(encoding, vertex order) of the unpruned search; no cache."""
    wg = _as_weighted(obj)
    enc, order = _Unpruned(*_tables(wg, frozenset(marked))).run()
    return enc, tuple(wg.graph.vertices[x] for x in order)

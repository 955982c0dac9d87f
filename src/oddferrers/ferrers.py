"""Odd Ferrers graphs: Ferrers shapes whose first row and first column carry
weight 1 and whose interior cells carry weight 2."""
from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, _expect


@dataclass(frozen=True, slots=True)
class OddFerrersGraph:
    """An odd Ferrers graph, identified by its underlying (nonempty) shape.

    Cell weights are a rule, not data: 1 if the cell lies in the first row or
    first column, 2 otherwise.
    """

    shape: Partition

    @staticmethod
    def _trusted(shape: Partition) -> OddFerrersGraph:
        """A graph built without the check, for a nonempty shape this package just built."""
        g = object.__new__(OddFerrersGraph)
        OddFerrersGraph.shape.__set__(g, shape)
        return g

    def __post_init__(self):
        if not _expect(Partition, self.shape).parts:
            raise ValueError("odd Ferrers graph shape must be nonempty")


def graph_weight(g: OddFerrersGraph) -> int:
    """Total cell weight: 2*cells minus the border cells (first row + first column)."""
    shape = _expect(OddFerrersGraph, g).shape
    cells = shape.weight
    border = shape.parts[0] + len(shape.parts) - 1
    return 2 * cells - border


def row_sums(g: OddFerrersGraph) -> tuple[int, ...]:
    """Per-row weight sums, top row first; this is how a graph names a partition."""
    out = []
    for i, row in enumerate(_expect(OddFerrersGraph, g).shape.parts):
        if i == 0:
            out.append(row)
        else:
            # first cell is border, the remaining row-1 cells weigh 2
            out.append(1 + 2 * (row - 1))
    return tuple(out)


def render_ascii(g: OddFerrersGraph) -> str:
    """One line per row, each cell printed as its weight digit."""
    rows = _expect(OddFerrersGraph, g).shape.parts
    return "\n".join(["1" * rows[0]] + ["1" + "2" * (r - 1) for r in rows[1:]])

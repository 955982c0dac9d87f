"""Self-conjugate odd Ferrers graphs, their partition classes, the bijections
between them, and a mock theta series count oracle."""

from .partitions import Partition, is_self_conjugate, hook_decompose, hooks_compose
from .ferrers import (
    OddFerrersGraph,
    graph_weight,
    row_sums,
    render_ascii,
)
from .classes import (
    ClassId,
    is_in_O,
    is_in_S,
    is_in_D,
    is_in_DO,
    members,
    count,
)
from .bijections import (
    phi,
    phi_inverse,
    sc_to_distinct_odd,
    distinct_odd_to_sc,
    o_to_d,
    d_to_o,
    d_to_do,
    do_to_d,
)
from .qseries import nu_series

__all__ = [
    "Partition", "is_self_conjugate",
    "hook_decompose", "hooks_compose",
    "OddFerrersGraph", "graph_weight", "row_sums", "render_ascii",
    "ClassId", "is_in_O", "is_in_S", "is_in_D", "is_in_DO",
    "members", "count",
    "phi", "phi_inverse", "sc_to_distinct_odd", "distinct_odd_to_sc",
    "o_to_d", "d_to_o", "d_to_do", "do_to_d",
    "nu_series",
]

__version__ = "0.1.0"

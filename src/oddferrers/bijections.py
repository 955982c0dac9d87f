"""The hook-doubling bijection between self-conjugate odd Ferrers graphs of
2n+1 and self-conjugate partitions of 4n+1 into odd parts, its inverse, the
classical self-conjugate <-> distinct-odd-parts correspondence, and the two
induced bijections on the D and DO classes.

Every member of O, S, D and DO encodes one strictly decreasing arm tuple
a_1 > ... > a_d with (2a_1 - 1) + sum over i >= 2 of (4a_i - 2) = 2n + 1:

- O:  the self-conjugate shape with principal hook arms a
- S:  hook arms 2a_1 - 1 and the pairs 2a_i, 2a_i - 1
- D:  the part 2a_1 - 1 and the parts 4a_i - 2
- DO: the part 4a_1 - 3 and the pairs 4a_i - 1, 4a_i - 3

Each class's layout is written once, as a function of the arms. A decoder
reads the arms back and accepts its input only if their layout gives the input
back, so it raises the class's error on every non-member. Every map is one
layout applied to decoded arms.
"""
from __future__ import annotations

import operator

from .errors import MalformedDClass, MalformedDOClass, MalformedSClass, NotDistinctOdd, Refusal
from .ferrers import OddFerrersGraph
from .partitions import Partition, _compose, hook_decompose


def _s_hooks(arms: tuple[int, ...]) -> tuple[int, ...]:
    hooks = [2 * arms[0] - 1]
    for a in arms[1:]:
        hooks += (2 * a, 2 * a - 1)
    return tuple(hooks)


def _d_parts(arms: tuple[int, ...]) -> tuple[int, ...]:
    parts = [2 * arms[0] - 1] + [4 * a - 2 for a in arms[1:]]
    parts.sort(reverse=True)
    return tuple(parts)


def _do_parts(arms: tuple[int, ...]) -> tuple[int, ...]:
    parts = [4 * arms[0] - 3]
    for a in arms[1:]:
        parts += (4 * a - 1, 4 * a - 3)
    return tuple(parts)


def _decode_S(p: Partition) -> tuple[int, ...]:
    """The hook arms fall and are positive, so equality forces the arms to."""
    hooks = hook_decompose(p)
    if hooks:
        arms = ((hooks[0] + 1) // 2, *[x // 2 for x in hooks[1::2]])
        if _s_hooks(arms) == hooks:
            return arms
    raise MalformedSClass(Refusal(p.parts, "does not have hook arms 2a_1 - 1 and pairs 2a, 2a - 1"))


def _decode_D(p: Partition) -> tuple[int, ...]:
    """The layout sorts its parts, so equality alone accepts 10,3 (arms 2, 3)."""
    odds = [x for x in p.parts if x % 2]
    if len(odds) == 1:
        arms = ((odds[0] + 1) // 2, *[(e + 2) // 4 for e in p.parts if e % 2 == 0])
        if all(map(operator.gt, arms, arms[1:])) and _d_parts(arms) == p.parts:
            return arms
    raise MalformedDClass(Refusal(p.parts, "is not a part 2a_1 - 1 and parts 4a - 2 with a_1 > a_2 > ..."))


def _decode_DO(p: Partition) -> tuple[int, ...]:
    """The parts fall weakly and are positive, so equality forces the arms to
    fall strictly and be positive. A member has an odd number of parts and
    ends in 4a - 3, so any other input is refused before its layout."""
    parts = p.parts
    if len(parts) % 2 and parts[-1] % 4 == 1:
        arms = ((parts[0] + 3) // 4, *[(x + 1) // 4 for x in parts[1::2]])
        if _do_parts(arms) == parts:
            return arms
    raise MalformedDOClass(Refusal(parts, "is not a part 4a_1 - 3 and pairs 4a - 1, 4a - 3"))


def phi(g: OddFerrersGraph) -> Partition:
    """Map a self-conjugate odd Ferrers graph of weight 2n+1 to a
    self-conjugate partition of 4n+1 into odd parts.

    The outermost weighted hook sum s1 becomes a hook of 2*s1 - 1 cells; every
    interior hook sum s becomes a pair of hooks with s+1 and s-1 cells.
    """
    return _compose(_s_hooks(hook_decompose(g.shape)))


def phi_inverse(p: Partition) -> OddFerrersGraph:
    """Explicit inverse of phi."""
    return OddFerrersGraph._trusted(_compose(_decode_S(p)))


def sc_to_distinct_odd(p: Partition) -> Partition:
    """Principal hook cell counts of a self-conjugate partition, as parts."""
    return Partition._trusted(tuple([2 * a - 1 for a in hook_decompose(p)]))


def distinct_odd_to_sc(p: Partition) -> Partition:
    """Inverse of sc_to_distinct_odd: each distinct odd part c becomes a hook
    of arm (c+1)/2."""
    if len(set(p.parts)) != len(p.parts) or any(x % 2 == 0 for x in p.parts):
        raise NotDistinctOdd(Refusal(p.parts, "is not a partition into distinct odd parts"))
    return _compose([(c + 1) // 2 for c in p.parts])


def o_to_d(g: OddFerrersGraph) -> Partition:
    """Weighted hook sums of the graph, as a partition."""
    return Partition._trusted(_d_parts(hook_decompose(g.shape)))


def d_to_o(p: Partition) -> OddFerrersGraph:
    """Inverse of o_to_d: the odd part w gives the border arm (w+1)/2, each
    even part e an interior arm (e+2)/4."""
    return OddFerrersGraph._trusted(_compose(_decode_D(p)))


def d_to_do(p: Partition) -> Partition:
    """Replace the odd part w by 2w-1 and each even part e by the pair e+1, e-1.

    Pinned by property tests to the composition sc_to_distinct_odd(phi(d_to_o(p))).
    """
    return Partition._trusted(_do_parts(_decode_D(p)))


def do_to_d(p: Partition) -> Partition:
    """Inverse of d_to_do: the head becomes (head+1)/2, each consecutive pair
    differing by 2 collapses to its even midpoint."""
    return Partition._trusted(_d_parts(_decode_DO(p)))

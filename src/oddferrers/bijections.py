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

Each class has one decoder, which raises the class's error on a non-member,
and one encoder; each map between classes is encode_Y(decode_X(x)).
"""
from __future__ import annotations

from .errors import (
    MalformedDClass,
    MalformedDOClass,
    MalformedSClass,
    NotDistinctOdd,
)
from .ferrers import OddFerrersGraph
from .partitions import Partition, hook_decompose, hooks_compose


def _decode_O(g: OddFerrersGraph) -> tuple[int, ...]:
    return hook_decompose(g.shape)


def _encode_O(arms: tuple[int, ...]) -> OddFerrersGraph:
    return OddFerrersGraph(hooks_compose(arms))


def _decode_S(p: Partition) -> tuple[int, ...]:
    """An odd number of hooks: an odd head arm (cells 1 mod 4), then pairs
    of arms (2a, 2a - 1)."""
    arms = hook_decompose(p)
    if len(arms) % 2 == 0 or arms[0] % 2 == 0:
        raise MalformedSClass(f"hook arms {arms} of {p.parts} are not an odd head and pairs")
    if any(x % 2 or x - y != 1 for x, y in zip(arms[1::2], arms[2::2])):
        raise MalformedSClass(f"hook arms {arms} of {p.parts} do not pair as (2a, 2a-1)")
    return ((arms[0] + 1) // 2,) + tuple(x // 2 for x in arms[1::2])


def _encode_S(arms: tuple[int, ...]) -> Partition:
    pairs = tuple(x for a in arms[1:] for x in (2 * a, 2 * a - 1))
    return hooks_compose((2 * arms[0] - 1,) + pairs)


def _decode_D(p: Partition) -> tuple[int, ...]:
    """Exactly one odd part, even parts 2 mod 4, and arms strictly decreasing
    (distinct evens, each below twice the odd part)."""
    odds = [x for x in p.parts if x % 2 == 1]
    evens = [x for x in p.parts if x % 2 == 0]
    if len(odds) != 1:
        raise MalformedDClass(f"{p.parts} does not have exactly one odd part")
    if any(e % 4 != 2 for e in evens):
        raise MalformedDClass(f"even parts of {p.parts} are not all 2 mod 4")
    arms = ((odds[0] + 1) // 2,) + tuple((e + 2) // 4 for e in evens)
    if any(a >= b for a, b in zip(arms[1:], arms)):
        raise MalformedDClass(f"recovered arms {arms} not strictly decreasing")
    return arms


def _encode_D(arms: tuple[int, ...]) -> Partition:
    parts = (2 * arms[0] - 1,) + tuple(4 * a - 2 for a in arms[1:])
    return Partition(tuple(sorted(parts, reverse=True)))


def _decode_DO(p: Partition) -> tuple[int, ...]:
    """An odd number of parts: a head 1 mod 4, then pairs (x + 2, x) with
    x + 2 = 3 mod 4. Parts are weakly decreasing, so these congruences alone
    make them distinct and the arms strictly decreasing."""
    parts = p.parts
    if len(parts) % 2 == 0 or parts[0] % 4 != 1:
        raise MalformedDOClass(f"{p.parts} is not a 1 mod 4 head and pairs")
    if any(x % 4 != 3 or x - y != 2 for x, y in zip(parts[1::2], parts[2::2])):
        raise MalformedDOClass(f"{p.parts} does not pair as (x+2, x) with x+2 = 3 mod 4")
    return ((parts[0] + 3) // 4,) + tuple((x + 1) // 4 for x in parts[1::2])


def _encode_DO(arms: tuple[int, ...]) -> Partition:
    pairs = tuple(x for a in arms[1:] for x in (4 * a - 1, 4 * a - 3))
    return Partition((4 * arms[0] - 3,) + pairs)


def phi(g: OddFerrersGraph) -> Partition:
    """Map a self-conjugate odd Ferrers graph of weight 2n+1 to a
    self-conjugate partition of 4n+1 into odd parts.

    The outermost weighted hook sum s1 becomes a hook of 2*s1 - 1 cells; every
    interior hook sum s becomes a pair of hooks with s+1 and s-1 cells.
    """
    return _encode_S(_decode_O(g))


def phi_inverse(p: Partition) -> OddFerrersGraph:
    """Explicit inverse of phi."""
    return _encode_O(_decode_S(p))


def sc_to_distinct_odd(p: Partition) -> Partition:
    """Principal hook cell counts of a self-conjugate partition, as parts."""
    return Partition(tuple(2 * a - 1 for a in hook_decompose(p)))


def distinct_odd_to_sc(p: Partition) -> Partition:
    """Inverse of sc_to_distinct_odd: each distinct odd part c becomes a hook
    of arm (c+1)/2."""
    if len(set(p.parts)) != len(p.parts) or any(x % 2 == 0 for x in p.parts):
        raise NotDistinctOdd(f"{p.parts} is not a partition into distinct odd parts")
    return hooks_compose([(c + 1) // 2 for c in p.parts])


def o_to_d(g: OddFerrersGraph) -> Partition:
    """Weighted hook sums of the graph, as a partition."""
    return _encode_D(_decode_O(g))


def d_to_o(p: Partition) -> OddFerrersGraph:
    """Inverse of o_to_d: the odd part w gives the border arm (w+1)/2, each
    even part e an interior arm (e+2)/4."""
    return _encode_O(_decode_D(p))


def d_to_do(p: Partition) -> Partition:
    """Replace the odd part w by 2w-1 and each even part e by the pair e+1, e-1.

    Pinned by property tests to the composition sc_to_distinct_odd(phi(d_to_o(p))).
    """
    return _encode_DO(_decode_D(p))


def do_to_d(p: Partition) -> Partition:
    """Inverse of d_to_do: the head becomes (head+1)/2, each consecutive pair
    differing by 2 collapses to its even midpoint."""
    return _encode_D(_decode_DO(p))

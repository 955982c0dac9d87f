"""Membership predicates and walks for the four partition classes:
O (self-conjugate odd Ferrers graphs of 2n+1),
S (self-conjugate partitions of 4n+1 into odd parts),
D (distinct parts, one dominant odd part, evens of the form 4k+2, weight 2n+1),
DO (distinct odd parts in consecutive 4k+3/4k+1 pairs under a 4k+1 head,
weight 4n+1). A walk yields its class in the order it finds it; only
`members` lays out and sorts, and `count_table` reads one walk of O, D or DO
at every index below its top."""
from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import accumulate, repeat
from math import isqrt
from typing import Iterator

from .ferrers import OddFerrersGraph, graph_weight
from .partitions import Partition, _expect, hooks_compose, is_self_conjugate


class ClassId(Enum):
    O = "O"
    S = "S"
    D = "D"
    DO = "DO"


def is_in_S(p: Partition, n: int) -> bool:
    """Self-conjugate partition of 4n+1 with every part odd."""
    return (
        _expect(Partition, p).weight == 4 * _expect(int, n) + 1
        and all(x % 2 == 1 for x in p.parts)
        and is_self_conjugate(p)
    )


def is_in_O(g: OddFerrersGraph, n: int) -> bool:
    """Self-conjugate odd Ferrers graph of total weight 2n+1."""
    return graph_weight(g) == 2 * _expect(int, n) + 1 and is_self_conjugate(g.shape)


def is_in_D(p: Partition, n: int) -> bool:
    """Distinct parts summing to 2n+1: exactly one odd part, every even part
    of the form 4k+2, and the odd part greater than half the greatest even part.

    A single odd part with no even parts qualifies vacuously.
    """
    if _expect(Partition, p).weight != 2 * _expect(int, n) + 1:
        return False
    if len(set(p.parts)) != len(p.parts):
        return False
    odds = [x for x in p.parts if x % 2 == 1]
    evens = [x for x in p.parts if x % 2 == 0]
    if len(odds) != 1:
        return False
    if any(e % 4 != 2 for e in evens):
        return False
    return not evens or 2 * odds[0] > max(evens)


def is_in_DO(p: Partition, n: int) -> bool:
    """Odd number of distinct odd parts summing to 4n+1, alternating between
    the forms 4k+3 and 4k+1 below a 4k+1 head, with each 4k+3/4k+1 pair
    sharing the same k (so paired parts differ by exactly 2)."""
    parts = _expect(Partition, p).parts
    if p.weight != 4 * _expect(int, n) + 1:
        return False
    if len(parts) % 2 == 0 or len(set(parts)) != len(parts):
        return False
    if any(x % 2 == 0 for x in parts):
        return False
    if parts[0] % 4 != 1:
        return False
    for j in range(1, len(parts), 2):
        if parts[j] % 4 != 3 or parts[j] - parts[j + 1] != 2:
            return False
    return True


def _iter_O_arms(n: int) -> Iterator[tuple[int, ...]]:
    """Arm sequences a_1 > ... > a_d >= 1 with (2a_1-1) + sum 2(2a_i-1) = 2n+1.

    Choose the inner arms a_2 > a_3 > ...; the head a_1 is what is left,
    n+1 less 2a-1 for each inner arm a. A node's children run up to the
    largest a that keeps the head above a_2: 3a <= head for a_2 itself,
    and 2a <= head - a_2 below it. The head only shrinks further down, so
    the branches skipped hold no member, and every node the walk enters is
    a member.
    """
    stack = [(n + 1, ())]
    while stack:
        head, arms = stack.pop()
        yield (head,) + arms
        if arms:
            amax = min(arms[-1] - 1, (head - arms[0]) // 2)
        else:
            amax = head // 3
        for a in range(1, amax + 1):
            stack.append((head - (2 * a - 1), arms + (a,)))


def _iter_S_parts(n: int) -> Iterator[tuple[int, ...]]:
    """Compose strictly decreasing odd hook cell counts summing to 4n+1 whose
    partition has all parts odd, cutting a branch as soon as its hooks force
    an even row.

    Hooks are numbered from 0; hook i has arm a_i and row p_i = a_i + i, and
    the rows p_0 >= p_1 >= ... of the Durfee square are weakly decreasing.
    By self-conjugacy row j below the square (j >= d, the hook count) is the
    number of i with p_i > j, so every row is fixed once the hooks that
    reach it are chosen:

    1. Row p_i = (c+1)/2 + i must be odd. This fixes the parity of the arm,
       so c is 1 mod 4 at even i and 3 mod 4 at odd i, and the loop over c
       steps by 4.
    2. When p_i < p_{i-1}, the rows in [p_i, p_{i-1}) equal i, so i must be
       odd. Arms strictly fall, so p_i <= p_{i-1} with equality only for
       c = below - 2; at an even i >= 2 that is the one hook left open.
    3. At a leaf with d hooks, when p_{d-1} > d the rows in [d, p_{d-1})
       equal d, so d must be odd; when p_{d-1} = d, rule 1 makes d odd. So
       at an odd i the walk goes on, to c - 2 by rule 2, and the weight left
       after c is at least c - 2: c <= (remaining + 2) / 2.
    4. The weight left after c is at most ((c-1)/2)^2, the largest sum of
       distinct odd hooks below c.

    So every hook c at an odd i comes with its forced successor c - 2, and
    the walk places the two in one step. The head is placed before the loop,
    and every node the loop takes is at an odd i. With R the weight left
    before c, rule 4 reads R - c <= ((c-1)/2)^2 for the head, and
    R - 2c + 2 <= ((c-3)/2)^2 for a pair, at its second hook. Times 4, both
    are (c+1)^2 >= 4R, which holds exactly when c + 1 > isqrt(4R - 1). So
    rule 4 is one lower bound on c, c >= isqrt(4R - 1), and the second hook
    of a pair never fails it once the first has passed.

    Rules 1-3 name every row of the partition (each p_i >= d, so the rows in
    rules 2 and 3 lie below the square and are counted nowhere else), and
    rule 4 drops only branches with no leaf, so the prune is exact. Each
    leaf is still composed and its rows tested, and the test is live: a leaf
    with an even row is dropped, so the prune is only an optimisation.
    """
    target = 4 * n + 1
    stack = []
    for c in range(target, isqrt(4 * target - 1) - 1, -4):  # rules 1 and 4
        stack.append((target - c, c, ((c + 1) // 2,)))
    while stack:
        remaining, below, arms = stack.pop()
        if remaining == 0:
            parts = hooks_compose(arms).parts
            if not [x for x in parts if not x & 1]:  # one C-level pass over the rows
                yield parts
            continue
        cmax = (remaining + 2) // 2  # rule 3
        if below - 2 < cmax:
            cmax = below - 2
        cmax -= (cmax - 3) % 4  # rule 1
        for c in range(cmax, isqrt(4 * remaining - 1) - 1, -4):  # rule 4
            stack.append((remaining - 2 * c + 2, c - 2, arms + ((c + 1) // 2, (c - 1) // 2)))


def _iter_D_parts(n: int) -> Iterator[tuple[int, ...]]:
    """Choose distinct parts congruent to 2 mod 4; the leftover odd part must
    exceed half the greatest even part.

    With w the weight left, a node's children run up to the largest e that
    keeps the odd part w - e above half the greatest even part: 3e < 2w
    for the first (and greatest) even part, e < w - top/2 below a greatest
    part top. The odd part only shrinks further down, so the branches
    skipped hold no member, and every node the walk enters is a member.
    """
    stack = [(2 * n + 1, 0, ())]
    while stack:
        remaining, below, evens = stack.pop()
        yield evens + (remaining,)  # unsorted: only `members` needs the order
        if evens:
            emax = min(below - 4, remaining - evens[0] // 2 - 1)
        else:
            emax = (2 * remaining - 1) // 3
        emax -= (emax - 2) % 4
        for e in range(emax, 1, -4):
            stack.append((remaining - e, e, evens + (e,)))


def _iter_DO_parts(n: int) -> Iterator[tuple[int, ...]]:
    """A head part of the form 4k+1 followed by pairs (x+2, x) with x of the
    form 4k+1, strictly decreasing.

    Choose the pairs; the head is what is left, 4n+1 less 2x+2 for each
    pair at x, so it stays 1 mod 4. A node's children run up to the largest
    x that keeps the head above the first pair's top part t: 3x + 4 < head
    for the first pair, 2x + 2 < head - t below it. The head only shrinks
    further down, so the branches skipped hold no member, and every node
    the walk enters is a member.
    """
    stack = [(4 * n + 1, ())]
    while stack:
        head, pairs = stack.pop()
        yield (head,) + pairs
        if pairs:
            xmax = min(pairs[-1] - 4, (head - pairs[0] - 3) // 2)
        else:
            xmax = (head - 5) // 3
        xmax -= (xmax - 1) % 4
        for x in range(xmax, 0, -4):
            stack.append((head - (2 * x + 2), pairs + (x + 2, x)))


def _least_O(arms: tuple[int, ...], max_n: int) -> int:
    """The least n at which an item of the walk to max_n is a member of O.
    The head is n + 1 - w, w the sum of 2a - 1 over the inner arms, and it
    must stay above a_2: n >= w + a_2."""
    if len(arms) == 1:
        return 0
    w = max_n + 1 - arms[0]
    return w + arms[1]


def _least_D(parts: tuple[int, ...], max_n: int) -> int:
    """The least n at which an item of the walk to max_n is a member of D.
    The odd part is 2n + 1 - E, E the sum of the even parts, and twice it
    must pass the greatest even part g: 4n > g + 2E - 2."""
    if len(parts) == 1:
        return 0
    e = 2 * max_n + 1 - parts[-1]
    return (parts[0] + 2 * e - 2) // 4 + 1


def _least_DO(parts: tuple[int, ...], max_n: int) -> int:
    """The least n at which an item of the walk to max_n is a member of DO.
    The head is 4n + 1 - P, P the sum of the pairs, and it must pass the
    first pair's top part t: 4n > t + P - 1."""
    if len(parts) == 1:
        return 0
    p = 4 * max_n + 1 - parts[0]
    return (parts[1] + p - 1) // 4 + 1


# class -> (its walk, the member that one item of the walk encodes, the least
# index of an item, or None). O's walk yields arm tuples, which sort as the
# shapes they compose do: row i of the Durfee square is a_i + i, and two arm
# tuples of one weight are never prefixes of one another, so the first arm
# that differs decides the first row that differs. So O composes each member
# once, after the sort. In O, D and DO the part that a walk takes as what is
# left only grows with n, so an item of the walk to max_n is a member at every
# index from its least one to max_n, and `count_table` walks these once. An
# S member weighs 4n + 1, so it is a member at one n alone: S has no least
# index
_CLASSES = {
    ClassId.O: (_iter_O_arms, lambda arms: OddFerrersGraph._trusted(hooks_compose(arms)), _least_O),
    ClassId.S: (_iter_S_parts, Partition, None),
    ClassId.D: (_iter_D_parts, Partition, _least_D),
    ClassId.DO: (_iter_DO_parts, Partition, _least_DO),
}


def _walk(c: ClassId, n: int):
    # exact types: a name like "S" would fail as a bare KeyError, and a bool
    # or a float index would walk or be judged, or fail deep inside
    _expect(ClassId, c)
    return _CLASSES[c][0](n) if _expect(int, n) >= 0 else ()  # no partition has a negative weight


def members(c: ClassId, n: int) -> list:
    """The members of class c at index n, in descending order of their parts."""
    items = _walk(c, n)
    member = _CLASSES[c][1]
    if c is ClassId.D:  # its walk yields the odd part after the evens
        items = [tuple(sorted(x, reverse=True)) for x in items]
    return [member(x) for x in sorted(items, reverse=True)]


def count(c: ClassId, n: int) -> int:
    """Class cardinality at index n, without materializing the sorted list."""
    return sum(1 for _ in _walk(c, n))


def count_table(c: ClassId, max_n: int) -> Iterator[int]:
    """count(c, n) for n = 0, 1, ..., max_n, in order; nothing when max_n < 0.

    O, D and DO take one walk, to max_n, when called, and count each item at
    its least index, so the table is the running sum of those counts. S walks
    each n in turn, and each count is yielded as its walk ends."""
    least = _CLASSES[_expect(ClassId, c)][2]
    ns = range(_expect(int, max_n) + 1)
    if least is None:
        return (count(c, n) for n in ns)
    at = Counter(map(least, _walk(c, max_n), repeat(max_n)))
    # an index outside 0..max_n is a fault of a least-index rule, and the
    # table below would leave its items out without a word
    if at and not (min(at) >= 0 and max(at) <= max_n):
        raise RuntimeError(f"class {c.value}: a walk to {max_n} gave least indices "
                           f"{min(at)}..{max(at)}, outside 0..{max_n}")
    return accumulate(at[n] for n in ns)

"""Integer partitions, the self-conjugacy test, and principal-hook decomposition."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidHookList, NotSelfConjugate, TooLarge

# the most cells a composed shape may have: `_compose`, under `hooks_compose`
# and the maps, refuses more before any row; the CLI's `render` refuses more
MAX_CELLS = 10**6


@dataclass(frozen=True, slots=True)
class Partition:
    """A weakly decreasing sequence of positive parts. The empty partition is allowed."""

    parts: tuple[int, ...] = ()

    @staticmethod
    def _trusted(parts: tuple[int, ...]) -> Partition:
        """A partition built without the check. Use it only on parts laid out
        in this package from an arm tuple that has passed its check."""
        p = object.__new__(Partition)
        Partition.parts.__set__(p, parts)  # the slot itself, past the frozen __setattr__
        return p

    def __post_init__(self):
        parts = self.parts
        # a float, a bool or a list would pass the order check and then fail
        # inside a map with a bare TypeError
        if type(parts) is not tuple or not {*map(type, parts)} <= {int}:
            raise TypeError(f"parts must be a tuple of int: {parts!r}")
        if not parts or (parts[-1] >= 1 and all(map(operator.ge, parts, parts[1:]))):
            return
        # only an invalid tuple gets here; find its first fault for the message
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"part {p!r} is not a positive integer")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing at index {i}: {parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)


def _expect(cls: type, x, alt: type | None = None):
    """`x`, if its type is `cls` or `alt`: the package's one input type test."""
    if type(x) is not cls and type(x) is not alt:
        raise TypeError(f"expected type {cls.__name__}{f' or {alt.__name__}' if alt else ''}: {x!r}")
    return x


def _hook_arms(parts: tuple[int, ...]) -> list[int] | None:
    """Principal hook arms, outermost first, read in the Frobenius test of row i
    against column i in the Durfee square of side d: O(d), None if one differs."""
    k = len(parts)
    # the first row and the first column have equal length, so no row is
    # longer than the partition has rows and every index below is in range
    if parts and parts[0] != k:
        return None
    arms = []
    for i, r in enumerate(parts):
        if r <= i:
            break
        # column i has r cells: row r-1 reaches past i and row r does not
        if parts[r - 1] <= i or (r < k and parts[r] > i):
            return None
        arms.append(r - i)
    return arms


def is_self_conjugate(p: Partition) -> bool:
    """Row i equals column i for every i inside the Durfee square."""
    return _hook_arms(_expect(Partition, p).parts) is not None


def hook_decompose(p: Partition) -> tuple[int, ...]:
    """Arms of the principal hooks of a self-conjugate partition, outermost
    first. A hook of arm a is a, 1, 1, ..., 1 as a partition: 2a - 1 cells."""
    if (arms := _hook_arms(_expect(Partition, p).parts)) is None:
        raise NotSelfConjugate(p.parts, "is not self-conjugate")
    return tuple(arms)


def hooks_compose(arms: tuple[int, ...] | list[int]) -> Partition:
    """The unique self-conjugate partition whose principal hooks have these
    arms, which must be positive, strictly decreasing ints."""
    # a dict would fail below as a bare KeyError, and a range or a str compose
    if _expect(tuple, arms, list) and not (arms[-1] >= 1 and all(map(operator.gt, arms, arms[1:]))):
        raise InvalidHookList(f"hook arms not strictly decreasing positive integers: {tuple(arms)}")
    return _compose(arms)


def _compose(arms: Sequence[int]) -> Partition:
    """`hooks_compose` without the order check, for arms already checked; the
    type test and the cell cap hold."""
    d = len(arms)
    cells = 2 * sum(arms) - d  # counted before any row is built
    if type(cells) is not int:  # a float, Fraction or Decimal arm; a bool adds as an int
        raise TypeError(f"hook arms must be ints: {tuple(arms)}")
    if cells > MAX_CELLS:
        raise TooLarge(f"the composed shape would have {cells} cells, "
                       f"more than the {MAX_CELLS} allowed")
    # rows of the Durfee square are a_i + i, and by self-conjugacy the rows
    # below it are their columns from d on; columns rows[k] .. rows[k-1] - 1
    # all have length k, so each run is one step: O(d) steps, not one per cell
    rows = list(map(operator.add, arms, range(d)))
    prev = d
    for k in range(d, 0, -1):
        r = rows[k - 1]
        if r > prev:
            rows += [k] * (r - prev)
            prev = r
    return Partition._trusted(tuple(rows))

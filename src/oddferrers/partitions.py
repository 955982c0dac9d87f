"""Integer partitions, conjugation, and principal-hook decomposition."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidHookList, NotSelfConjugate

_DIGITS = re.compile("[0-9]+")


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive parts. The empty partition is allowed."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"part {p!r} is not a positive integer")
            if i > 0 and self.parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing at index {i}: {self.parts}")

    @classmethod
    def of(cls, *parts: int) -> Partition:
        return cls(tuple(parts))

    @classmethod
    def from_text(cls, text: str) -> Partition:
        """Parse comma-separated descending parts, e.g. "5,5,5,3,3".

        Each part is ASCII digits only, optionally surrounded by whitespace;
        anything else (signs, underscores, non-ASCII digits) is a ValueError.
        """
        stripped = text.strip()
        if not stripped:
            return cls()
        tokens = [tok.strip() for tok in stripped.split(",")]
        for tok in tokens:
            if not _DIGITS.fullmatch(tok):
                raise ValueError(f"part {tok!r} is not a run of digits 0-9")
        return cls(tuple(int(tok) for tok in tokens))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)


@dataclass(frozen=True)
class HookList:
    """Principal hooks of a self-conjugate partition, outermost first, stored
    by arm length: positive and strictly decreasing.

    As a partition a hook of arm a is a, 1, 1, ..., 1 (a - 1 trailing ones),
    so its cell count is 2a - 1, always odd.
    """

    arms: tuple[int, ...]

    def __post_init__(self):
        arms = self.arms
        if any(a >= b for a, b in zip(arms[1:], arms)) or (arms and arms[-1] < 1):
            raise InvalidHookList(f"hook arms not strictly decreasing positive integers: {arms}")

    @classmethod
    def from_arms(cls, arms: Iterable[int]) -> HookList:
        return cls(tuple(arms))

    @property
    def cell_counts(self) -> tuple[int, ...]:
        return tuple(2 * a - 1 for a in self.arms)

    def __len__(self) -> int:
        return len(self.arms)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Ferrers diagram."""
    if not p.parts:
        return Partition()
    cols = [0] * p.parts[0]
    for part in p.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(tuple(cols))


def is_self_conjugate(p: Partition) -> bool:
    return conjugate(p) == p


def hook_decompose(p: Partition) -> HookList:
    """Principal hooks of a self-conjugate partition, outermost first."""
    if not is_self_conjugate(p):
        raise NotSelfConjugate(f"{p.parts} is not self-conjugate")
    arms = []
    i = 0
    while i < len(p.parts) and p.parts[i] > i:
        arms.append(p.parts[i] - i)
        i += 1
    return HookList.from_arms(arms)


def hooks_compose(hl: HookList) -> Partition:
    """The unique self-conjugate partition with the given principal hooks."""
    arms = hl.arms
    if not arms:
        return Partition()
    d = len(arms)
    parts = [arms[i] + i for i in range(d)]
    # rows below the Durfee square, by self-conjugacy
    for i in range(d, arms[0]):
        parts.append(sum(1 for j in range(d) if arms[j] + j > i))
    return Partition(tuple(parts))

"""Exception types shared across the package."""


class Refusal:
    """The message "<parts> <why>" of an error, formatted only when it is read."""

    __slots__ = ("parts", "why")

    def __init__(self, parts: tuple[int, ...], why: str):
        self.parts, self.why = parts, why

    def __str__(self) -> str:
        return f"{self.parts} {self.why}"

    def __repr__(self) -> str:  # the error's repr shows its message, as it did as a str
        return repr(str(self))


class OddFerrersError(Exception):
    """Base class for all domain errors."""


class NotSelfConjugate(OddFerrersError):
    """Operation requires a self-conjugate partition or shape."""


class InvalidHookList(OddFerrersError):
    """Hook arms are not strictly decreasing positive integers."""


class NotDistinctOdd(OddFerrersError):
    """Operation requires distinct odd parts."""


class MalformedSClass(OddFerrersError):
    """Input violates the structure of the odd self-conjugate class."""


class MalformedDClass(OddFerrersError):
    """Input violates the structure of the distinct-parts class."""


class MalformedDOClass(OddFerrersError):
    """Input violates the structure of the distinct-odd-parts class."""


class TooLarge(OddFerrersError):
    """The shape to be built has more cells than the package allows."""

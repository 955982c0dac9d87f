"""Exception types shared across the package."""


class OddFerrersError(Exception):
    """Base class for all domain errors. An error that names its input is
    raised as `Error(parts, why)`, and its message "<parts> <why>" is
    formatted only when it is read."""

    def __str__(self) -> str:
        return " ".join(map(str, self.args))


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


class Refused(Exception):
    """A command-line argument that `cli.main` turns into exit 2, like a
    `TooLarge` input. No library function raises it."""

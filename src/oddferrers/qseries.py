"""Expansion of Watson's third order mock theta function nu at -q, whose
coefficients are an independent count oracle for the four classes."""
from itertools import chain, repeat
from operator import add


def nu_series(order: int) -> tuple[int, ...]:
    """Coefficients 0..order of nu(-q) = sum over n of
    q^(n(n+1)) / prod_{k<=n} (1 - q^(2k+1)).

    The sum is expanded from the inside out, in nested form: with
    T_n = (1 + q^(2n+2) T_(n+1)) / (1 - q^(2n+1)), nu(-q) = T_0, and T_n
    enters T_0 times q^(n(n+1)), so it is needed only to order - n(n+1).
    With old holding T_(n+1) and e = 2n+1, 1 + q^(2n+2) T_(n+1) is 1, then
    e zeros, then old, and dividing it by 1 - q^e adds t[i - e] to each t[i].
    Its first e coefficients are already divided, and one `map` appends the
    rest, each its source coefficient plus t[i - e], read from t itself:
    `list +=` appends a non-list iterable one item at a time, and a list
    iterator reads the list's length at each step, so the map reaches each
    t[i - e] after it is appended. The innermost level is the largest n with
    n(n+1) <= order; its q^(2n+2) T_(n+1) lies past the truncation.

    Each level holds old and the new list at once, and old is freed as soon
    as the new list is built, before the result's tuple is, so the peak is
    about two lists of order + 1 ints.
    """
    if type(order) is not int:  # a bool would expand, and a float fail as a slice index
        raise TypeError(f"series order must be an int: {order!r}")
    top = 0
    while (top + 1) * (top + 2) <= order:
        top += 1
    t = []
    for n in range(top, -1, -1):
        e = 2 * n + 1
        old, t = t, [1, *repeat(0, e - 1)]
        t += map(add, chain((0,), old), t)
        del old
        # cuts only the innermost level: below it, t is already order - n(n+1) + 1 long
        del t[order - n * (n + 1) + 1:]
    return tuple(t)

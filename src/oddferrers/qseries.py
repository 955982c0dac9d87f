"""Expansion of Watson's third order mock theta function nu at -q, whose
coefficients are an independent count oracle for the four classes."""
from itertools import accumulate
from operator import add


def nu_series(order: int) -> tuple[int, ...]:
    """Coefficients 0..order of nu(-q) = sum over n of
    q^(n(n+1)) / prod_{k<=n} (1 - q^(2k+1)).

    The sum is expanded from the inside out, in nested form: with
    T_n = (1 + q^(2n+2) T_(n+1)) / (1 - q^(2n+1)), nu(-q) = T_0, and T_n
    enters T_0 times q^(n(n+1)), so it is needed only to order - n(n+1).
    One list t holds T_(n+1); each level puts 1 and 2n+1 zeros in front of
    it, which gives 1 + q^(2n+2) T_(n+1), and divides that by 1 - q^(2n+1).
    With e = 2n+1, dividing by 1 - q^e adds t[i - e] to each t[i] in turn.
    Two sets of slices do that, and each level takes the one with fewer.
    While e * e < len(t), so there are fewer residue classes than blocks of
    e, each class t[r], t[r + e], ... becomes its running sums, one
    `accumulate` per class; otherwise each contiguous block of e adds the
    block before it, already divided, one slice per block after the first.
    The innermost level is the largest n with n(n+1) <= order; its
    q^(2n+2) T_(n+1) lies past the truncation.

    The last level's running sum (e = 1) holds the old and the new
    coefficients at once, so the peak is about two lists of order + 1 ints.
    """
    if type(order) is not int:  # a bool would expand, and a float fail as a slice index
        raise TypeError(f"series order must be an int: {order!r}")
    top = 0
    while (top + 1) * (top + 2) <= order:
        top += 1
    t = []
    for n in range(top, -1, -1):
        e = 2 * n + 1
        t[:0] = [1] + [0] * e
        # cuts only the innermost level: below it, t is already order - n(n+1) + 1 long
        del t[order - n * (n + 1) + 1:]
        if e * e < len(t):
            for r in range(e):
                t[r::e] = accumulate(t[r::e])
        else:
            acc = t[:e]
            for s in range(e, len(t), e):
                acc = t[s:s + e] = [*map(add, t[s:s + e], acc)]
    return tuple(t)

"""Expansion of Watson's third order mock theta function nu at -q, whose
coefficients are an independent count oracle for the four classes."""
from itertools import accumulate


def nu_series(order: int) -> tuple[int, ...]:
    """Coefficients 0..order of nu(-q) = sum over n of
    q^(n(n+1)) / prod_{k<=n} (1 - q^(2k+1)).

    The sum is expanded from the inside out, in nested form: with
    T_n = (1 + q^(2n+2) T_(n+1)) / (1 - q^(2n+1)), nu(-q) = T_0, and T_n
    enters T_0 times q^(n(n+1)), so it is needed only to order - n(n+1).
    One list t holds T_(n+1); each level puts 1 and 2n+1 zeros in front of
    it, which gives 1 + q^(2n+2) T_(n+1), and divides that by 1 - q^(2n+1).
    With e = 2n+1, dividing by 1 - q^e turns each residue class
    t[r], t[r + e], ... into its running sums, so each class that holds two
    or more coefficients is one `accumulate` over a slice. The innermost
    level is the largest n with n(n+1) <= order; its q^(2n+2) T_(n+1) lies
    past the truncation.

    The last level's running sum (e = 1) holds the old and the new
    coefficients at once, so the peak is about two lists of order + 1 ints.
    """
    top = 0
    while (top + 1) * (top + 2) <= order:
        top += 1
    t = []
    for n in range(top, -1, -1):
        e = 2 * n + 1
        t[:0] = [1] + [0] * e
        # cuts only the innermost level: below it, t is already order - n(n+1) + 1 long
        del t[order - n * (n + 1) + 1:]
        for r in range(min(e, len(t) - e)):
            t[r::e] = accumulate(t[r::e])
    return tuple(t)

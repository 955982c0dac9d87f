"""Expansion of Watson's third order mock theta function nu at -q, whose
coefficients are an independent count oracle for the four classes."""


def nu_series(order: int) -> tuple[int, ...]:
    """Coefficients 0..order of nu(-q) = sum over n of
    q^(n(n+1)) / prod_{k<=n} (1 - q^(2k+1)).

    The sum is expanded from the inside out, in nested form: with
    T_n = (1 + q^(2n+2) T_(n+1)) / (1 - q^(2n+1)), nu(-q) = T_0, and T_n
    enters T_0 times q^(n(n+1)), so it is needed only to order - n(n+1).
    One list t holds T_(n+1); each level puts 1 and 2n+1 zeros in front of
    it, which gives 1 + q^(2n+2) T_(n+1), and divides that by 1 - q^(2n+1)
    in place, ascending so that t[i - e] is already divided. The innermost
    level is the largest n with n(n+1) <= order; its q^(2n+2) T_(n+1) lies
    past the truncation.
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
        for i in range(e, len(t)):
            t[i] += t[i - e]
    return tuple(t)

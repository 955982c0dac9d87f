"""Expansion of Watson's third order mock theta function nu at -q, whose
coefficients are an independent count oracle for the four classes."""


def nu_series(order: int) -> tuple[int, ...]:
    """Coefficients 0..order of nu(-q) = sum over n of
    q^(n(n+1)) / prod_{k<=n} (1 - q^(2k+1)).

    One running quotient c = 1/prod_{k<n}(1 - q^(2k+1)) is divided by the
    next factor in place, ascending so that c[i - e] is already divided,
    then added in shifted by n(n+1); terms with n(n+1) > order only reach
    beyond the truncation.
    """
    c = [1] + [0] * order
    total = [0] * (order + 1)
    n = 0
    while n * (n + 1) <= order:
        e = 2 * n + 1
        for i in range(e, order + 1):
            c[i] += c[i - e]
        shift = n * (n + 1)
        for i in range(order + 1 - shift):
            total[shift + i] += c[i]
        n += 1
    return tuple(total)

from oddferrers.classes import ClassId, count
from oddferrers.qseries import nu_series

import oracles


class TestNuSeries:
    def test_matches_naive_oracle_to_200(self):
        assert list(nu_series(200)) == oracles.naive_nu_minus_q(200)

    def test_constant_term(self):
        assert nu_series(10)[0] == 1

    def test_coefficients_count_the_odd_self_conjugate_class(self):
        series = nu_series(12)
        for n in range(13):
            assert series[n] == count(ClassId.S, n)

    def test_nonnegative(self):
        # every class has a member at every n, so each coefficient is positive
        assert all(c > 0 for c in nu_series(10000))


class TestPNu:
    """The coefficients p_nu(n), read off the series."""

    def test_frozen_small_table(self):
        assert nu_series(12) == (1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6, 8, 10)

    def test_truncation_stability(self):
        for n in (0, 3, 7, 11):
            assert nu_series(n)[n] == nu_series(n + 10)[n] == nu_series(n + 50)[n]

    def test_every_order_is_a_prefix_of_a_longer_one(self):
        # the orders n(n+1) and their neighbours are where the expansion
        # gains or loses a level, so a wrong per-level truncation shows here
        full = nu_series(300)
        for k in range(301):
            assert nu_series(k) == full[:k + 1]

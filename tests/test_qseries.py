import pytest

from oddferrers.qseries import nu_series

import oracles


class TestNuSeries:
    def test_matches_naive_oracle_to_200(self):
        assert list(nu_series(200)) == oracles.naive_nu_minus_q(200)

    def test_nonnegative(self):
        # every class has a member at every n, so each coefficient is positive
        assert all(c > 0 for c in nu_series(10000))

    @pytest.mark.parametrize("order", [True, 2.0, "3", None])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(TypeError, match="series order must be an int"):
            nu_series(order)

    def test_a_negative_order_has_no_coefficients(self):
        assert nu_series(-1) == ()


class TestPNu:
    """The coefficients p_nu(n), read off the series."""

    def test_frozen_small_table(self):
        assert nu_series(12) == (1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6, 8, 10)

    def test_every_order_is_a_prefix_of_a_longer_one(self):
        # the orders n(n+1) and their neighbours are where the expansion
        # gains or loses a level, so a wrong per-level truncation shows here
        full = nu_series(300)
        for k in range(301):
            assert nu_series(k) == full[:k + 1]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay.rates import (
    EffectiveGains,
    PowerPair,
    _positive_quadratic_root,
    achievable_rates,
    effective_gains,
    optimal_powers,
)
from oracles import power_grid_best_min_rate

log_gain = st.floats(-16.0, -2.0).map(lambda e: 10.0**e)
log_cross = st.floats(-22.0, -6.0).map(lambda e: 10.0**e)


def _gains(g_s2v=1e-9, g_si=1e-15, g_v2d=1e-9, g_s2d=1e-17):
    return EffectiveGains(g_s2v=g_s2v, g_si=g_si, g_v2d=g_v2d, g_s2d=g_s2d)


class TestAchievableRates:
    def test_hand_computed_example(self):
        gains = _gains(g_s2v=2e-9, g_si=5e-15, g_v2d=1e-9, g_s2d=1e-16)
        powers = PowerPair(p_s=0.1, p_v=0.05)
        r1, r2, rmin = achievable_rates(gains, powers, 1e-14, 1e-14)
        sinr1 = 2e-9 * 0.1 / (5e-15 * 0.05 + 1e-14)
        sinr2 = 1e-9 * 0.05 / (1e-16 * 0.1 + 1e-14)
        assert r1 == pytest.approx(math.log2(1 + sinr1), rel=1e-12)
        assert r2 == pytest.approx(math.log2(1 + sinr2), rel=1e-12)
        assert rmin == min(r1, r2)

    def test_zero_power_gives_zero_rate(self):
        r1, r2, rmin = achievable_rates(_gains(), PowerPair(0.0, 0.0), 1e-14, 1e-14)
        assert (r1, r2, rmin) == (0.0, 0.0, 0.0)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            EffectiveGains(g_s2v=-1e-9, g_si=0, g_v2d=1e-9, g_s2d=0)
        with pytest.raises(ValueError):
            EffectiveGains(g_s2v=math.nan, g_si=0, g_v2d=1e-9, g_s2d=0)


class TestOptimalPowers:
    def test_both_interference_free_gains_zero_uses_full_power(self):
        gains = EffectiveGains(g_s2v=0.0, g_si=1e-15, g_v2d=0.0, g_s2d=1e-17)
        p = optimal_powers(gains, 0.1, 0.2, 1e-14, 1e-14)
        assert (p.p_s, p.p_v) == (0.1, 0.2)

    def test_no_interference_equalizes_without_losing_min_rate(self):
        gains = _gains(g_si=0.0, g_s2d=0.0)
        p = optimal_powers(gains, 0.1, 0.2, 1e-14, 1e-14)
        assert p.p_s == 0.1  # bottleneck link keeps its cap
        r1, r2, rmin = achievable_rates(gains, p, 1e-14, 1e-14)
        _, _, full = achievable_rates(gains, PowerPair(0.1, 0.2), 1e-14, 1e-14)
        assert rmin == pytest.approx(full, rel=1e-12)
        assert abs(r1 - r2) <= 1e-9

    def test_powers_within_caps(self):
        gains = _gains(g_si=1e-12, g_s2d=1e-12)
        p = optimal_powers(gains, 0.1, 0.2, 1e-14, 1e-14)
        assert 0.0 <= p.p_s <= 0.1
        assert 0.0 <= p.p_v <= 0.2

    @given(
        g_s2v=log_gain,
        g_v2d=log_gain,
        g_si=log_cross,
        g_s2d=log_cross,
        p_s_cap=st.floats(1e-3, 1.0),
        p_v_cap=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60)
    def test_dominates_power_grid(self, g_s2v, g_v2d, g_si, g_s2d, p_s_cap, p_v_cap):
        gains = EffectiveGains(g_s2v=g_s2v, g_si=g_si, g_v2d=g_v2d, g_s2d=g_s2d)
        p = optimal_powers(gains, p_s_cap, p_v_cap, 1e-14, 1e-14)
        _, _, mine = achievable_rates(gains, p, 1e-14, 1e-14)
        grid = power_grid_best_min_rate(
            g_s2v, g_si, g_v2d, g_s2d, p_s_cap, p_v_cap, 1e-14, 1e-14, grid=60
        )
        assert mine >= grid - 1e-9

    @given(
        g_s2v=log_gain,
        g_v2d=log_gain,
        g_si=log_cross,
        g_s2d=log_cross,
    )
    @settings(max_examples=60)
    def test_unclamped_solution_equalizes_rates(self, g_s2v, g_v2d, g_si, g_s2d):
        gains = EffectiveGains(g_s2v=g_s2v, g_si=g_si, g_v2d=g_v2d, g_s2d=g_s2d)
        cap = 0.1
        p = optimal_powers(gains, cap, cap, 1e-14, 1e-14)
        r1, r2, _ = achievable_rates(gains, p, 1e-14, 1e-14)
        one_at_cap = p.p_s == cap or p.p_v == cap
        assert one_at_cap
        if p.p_s < cap or p.p_v < cap:
            assert abs(r1 - r2) <= 1e-9


class TestPositiveQuadraticRoot:
    def test_constant_equation_takes_the_cap_when_c_is_negative(self):
        # a = b = 0: the equation c = 0 has no root, and c < 0 holds everywhere
        assert _positive_quadratic_root(0.0, 0.0, -1.0, 5.0) == 5.0
        assert _positive_quadratic_root(0.0, 0.0, 0.0, 5.0) == 0.0

    def test_zero_denominator_gives_the_zero_root(self):
        # b = c = 0 < a: x = 0 is the double root, and -2c / denom is 0 / 0
        assert _positive_quadratic_root(1.0, 0.0, 0.0, 5.0) == 0.0

    def test_tiny_coefficients_keep_their_root(self):
        # unlifted, 4ac underflows to 0 in the first, b^2 in the other two
        assert _positive_quadratic_root(1e-200, 0.0, -1e-200, 5.0) == 1.0
        root = _positive_quadratic_root(1e-160, 1e-170, -1e-160, 5.0)
        assert root == pytest.approx(_positive_quadratic_root(1.0, 1e-10, -1.0, 5.0), rel=1e-15)
        assert root == pytest.approx(1.0 - 5e-11, rel=1e-15)
        assert _positive_quadratic_root(0.0, 1e-300, -1e-310, 5.0) == pytest.approx(1e-10, rel=1e-12)

    def test_the_lift_keeps_in_range_roots(self):
        # every step of these stays in range: the lift leaves each root's bits
        rng = np.random.default_rng(19)
        for a, b, c in (10.0 ** rng.uniform(-150.0, 150.0, (2000, 3))).tolist():
            want = 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))
            assert _positive_quadratic_root(a, b, -c, math.inf) == want


class TestEffectiveGains:
    def test_bilinear_forms_match_manual_computation(self, rng):
        n = 4
        h_s2v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_si = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_v2d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_s2d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4)]
        w_s, w_r, w_t, w_d = w
        g = effective_gains(w_s, w_r, w_t, w_d, h_s2v, h_si, h_v2d, h_s2d)
        assert g.g_s2v == pytest.approx(abs(np.conj(w_r) @ h_s2v @ w_s) ** 2, rel=1e-12)
        assert g.g_si == pytest.approx(abs(np.conj(w_r) @ h_si @ w_t) ** 2, rel=1e-12)
        assert g.g_v2d == pytest.approx(abs(np.conj(w_d) @ h_v2d @ w_t) ** 2, rel=1e-12)
        assert g.g_s2d == pytest.approx(abs(np.conj(w_d) @ h_s2d @ w_s) ** 2, rel=1e-12)

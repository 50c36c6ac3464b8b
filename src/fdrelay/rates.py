"""Beamformed link gains, achievable rates, and max-min power allocation.

The power allocator is closed-form: at the optimum at least one node
transmits at its cap, and the other power either also sits at its cap or is
the positive root of the quadratic that equalizes the two link rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class EffectiveGains:
    """Squared bilinear channel gains under the current beamformers."""

    g_s2v: float
    g_si: float
    g_v2d: float
    g_s2d: float

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"effective gain {name} is {v!r}; gains must be finite and nonnegative")


class PowerPair(NamedTuple):
    """Transmit powers of the source and the relay, watts."""

    p_s: float
    p_v: float


def _bilinear_power(w_rx: np.ndarray, h: np.ndarray, w_tx: np.ndarray) -> float:
    v = float(abs(np.vdot(w_rx, h @ w_tx)))
    # a float's power calls the pow() of numpy's scalar, but raises where that warns
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def effective_gains(w_s, w_r, w_t, w_d, h_s2v, h_si, h_v2d, h_s2d) -> EffectiveGains:
    """The four squared bilinear forms |w_rx^H H w_tx|^2 (weight vectors, channel matrices)."""
    return EffectiveGains(
        g_s2v=_bilinear_power(w_r, h_s2v, w_s),
        g_si=_bilinear_power(w_r, h_si, w_t),
        g_v2d=_bilinear_power(w_d, h_v2d, w_t),
        g_s2d=_bilinear_power(w_d, h_s2d, w_s),
    )


def achievable_rates(
    gains: EffectiveGains, powers: PowerPair, noise1: float, noise2: float
) -> tuple[float, float, float]:
    """Per-hop rates and the end-to-end (minimum) rate, bps/Hz."""
    if noise1 <= 0 or noise2 <= 0:
        raise ValueError("noise powers must be positive")
    r_s2v = math.log2(1.0 + gains.g_s2v * powers.p_s / (gains.g_si * powers.p_v + noise1))
    r_v2d = math.log2(1.0 + gains.g_v2d * powers.p_v / (gains.g_s2d * powers.p_s + noise2))
    return r_s2v, r_v2d, min(r_s2v, r_v2d)


def _positive_quadratic_root(a: float, b: float, c: float, cap: float) -> float:
    """Positive root of a*x^2 + b*x + c = 0 with a, b >= 0 >= c, clamped to [0, cap].

    Computed as -2c / (b + sqrt(b^2 - 4ac)): with ac <= 0 the discriminant is
    at least b^2, so the denominator never cancels (the textbook form
    (-b + sqrt(disc)) / 2a loses half the mantissa when |4ac| << b^2).
    Tiny coefficients are first lifted by a power of two that brings the
    larger of b and sqrt(a|c|) near 1, keeping every coefficient below
    2**1022, so b^2 and 4ac do not underflow. The lift is exact: a root
    whose steps all stayed in range keeps its bits.
    """
    if c > 0:
        raise ValueError("rate-equalization quadratic must have c <= 0")
    if a == 0.0 and b == 0.0:
        return cap if c < 0 else 0.0
    e = max(math.frexp(v)[1] for v in (a, b, c)) - 1022
    if b:
        e = max(e, math.frexp(b)[1])
    if a and c:
        e = max(e, (math.frexp(a)[1] + math.frexp(c)[1]) // 2)
    if e < 0:
        a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    denom = b + math.sqrt(b * b - 4.0 * a * c)
    if denom == 0.0:
        return 0.0
    root = -2.0 * c / denom
    return min(cap, max(0.0, root))


def optimal_powers(
    gains: EffectiveGains, p_s_tot: float, p_v_tot: float, noise1: float, noise2: float
) -> PowerPair:
    """Max-min power pair: cap the bottleneck link's node, equalize with the other.

    Whichever hop has the smaller SINR at full power keeps its transmitter at
    the cap; the other node's power is reduced to the rate-equalizing root.
    With both useful gains zero the rates vanish identically and both caps
    are returned.
    """
    if p_s_tot <= 0 or p_v_tot <= 0:
        raise ValueError("power caps must be positive")
    if noise1 <= 0 or noise2 <= 0:
        raise ValueError("noise powers must be positive")
    if gains.g_s2v == 0.0 and gains.g_v2d == 0.0:
        return PowerPair(p_s_tot, p_v_tot)

    sinr_s_full = gains.g_s2v * p_s_tot / (gains.g_si * p_v_tot + noise1)
    sinr_v_full = gains.g_v2d * p_v_tot / (gains.g_s2d * p_s_tot + noise2)
    if sinr_s_full < sinr_v_full:
        a = gains.g_si * gains.g_v2d
        b = gains.g_v2d * noise1
        c = -gains.g_s2v * p_s_tot * (gains.g_s2d * p_s_tot + noise2)
        return PowerPair(p_s_tot, _positive_quadratic_root(a, b, c, p_v_tot))
    a = gains.g_s2d * gains.g_s2v
    b = gains.g_s2v * noise2
    c = -gains.g_v2d * p_v_tot * (gains.g_si * p_v_tot + noise1)
    return PowerPair(_positive_quadratic_root(a, b, c, p_s_tot), p_v_tot)

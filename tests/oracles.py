"""Independent brute-force references for the closed-form results under test.

Each oracle recomputes an answer from the raw problem statement with dense
search instead of the library's algebra, so agreement is evidence rather
than tautology. ``weiszfeld``, ``kink_point``, ``los_indicator`` and
``los_ring_search`` are the exceptions: they are the plain loops that the
solver's screened Weiszfeld step and kink test, ``channel.LosRoute``,
``EnvironmentRealization.los_indicator`` and the array LoS ring search must
reproduce bit for bit. ``quantize`` and ``hash_uniform`` define the LoS
field's grid snap and uniform draw, one point at a time.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from fdrelay.channel import (
    ROLE_S2V,
    ROLE_V2D,
    SOURCE,
    TAG_TIEBREAK,
    DegenerateGeometryError,
    Vec3,
    los_probability,
)
from fdrelay.positioning import NoLosPositionError
from fdrelay.solver import _NORMAL_MIN, _WEISZFELD_ITERS, SolverError


def rho_grid_argmax(
    q_s: float, q_v: float, d_horiz: float, h: float, alpha: float, step: float = 1e-5
) -> float:
    """Grid argmax of min(link SNR) over the relay's position fraction rho.

    q_s and q_v are the aggregate link budgets (array gain times power times
    reference gain squared over noise) so that SNR_i = q_i / distance^alpha.
    """
    rho = np.arange(0.0, 1.0 + step / 2.0, step)
    d1sq = (rho * d_horiz) ** 2 + h * h
    d2sq = ((1.0 - rho) * d_horiz) ** 2 + h * h
    snr1 = q_s / d1sq ** (alpha / 2.0)
    snr2 = q_v / d2sq ** (alpha / 2.0)
    idx = int(np.argmax(np.minimum(snr1, snr2)))
    return float(rho[idx])


def power_grid_best_min_rate(
    g_s2v: float,
    g_si: float,
    g_v2d: float,
    g_s2d: float,
    p_s_cap: float,
    p_v_cap: float,
    noise1: float,
    noise2: float,
    grid: int = 200,
) -> float:
    """Best min-rate over a grid of feasible power pairs."""
    ps = np.linspace(0.0, p_s_cap, grid)
    pv = np.linspace(0.0, p_v_cap, grid)
    mat_ps, mat_pv = np.meshgrid(ps, pv, indexing="ij")
    r1 = np.log2(1.0 + g_s2v * mat_ps / (g_si * mat_pv + noise1))
    r2 = np.log2(1.0 + g_v2d * mat_pv / (g_s2d * mat_ps + noise2))
    return float(np.minimum(r1, r2).max())


def _n2_values(
    s1: complex,
    s2: complex,
    i1: complex,
    i2: complex,
    eta: float,
    cap: float,
    deltas: np.ndarray,
    m2s: np.ndarray,
) -> np.ndarray:
    """Best objective per (relative phase, second magnitude) grid cell.

    For each cell the first magnitude is maximized exactly: the constraint is
    a quadratic in m1 giving a feasible interval, and |m1*s1 + const| is
    convex in m1, so the maximum sits at an interval endpoint. Cells whose
    interval misses [0, cap] are infeasible and score -inf.
    """
    mat_d, mat_m2 = np.meshgrid(deltas, m2s, indexing="ij")
    phase = np.exp(1j * mat_d)
    obj_off = mat_m2 * phase * s2
    con_off = mat_m2 * phase * i2

    a2 = abs(i1) ** 2
    if a2 < 1e-300:
        feasible = np.abs(con_off) <= eta
        lo = np.zeros_like(mat_m2)
        hi = np.full_like(mat_m2, cap)
    else:
        b = 2.0 * (i1 * con_off.conjugate()).real
        c = np.abs(con_off) ** 2 - eta * eta
        disc = b * b - 4.0 * a2 * c
        feasible = disc >= 0.0
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        root_lo = (-b - sqrt_disc) / (2.0 * a2)
        root_hi = (-b + sqrt_disc) / (2.0 * a2)
        feasible &= (root_hi >= 0.0) & (root_lo <= cap)
        lo = np.clip(root_lo, 0.0, cap)
        hi = np.clip(root_hi, 0.0, cap)

    return np.where(
        feasible,
        np.maximum(np.abs(lo * s1 + obj_off), np.abs(hi * s1 + obj_off)),
        -np.inf,
    )


def n2_dense_best(h_sig: np.ndarray, h_int: np.ndarray, eta: float, cap: float) -> float:
    """Two-element dense oracle: coarse scan plus local refinement.

    Round one covers the full torus of relative phase times second-element
    magnitude; round two zooms on the best cell with phase step 2.5e-4 rad,
    well under the 1e-3 coverage the agreement tolerance assumes.
    """
    s1, s2 = complex(h_sig[0]), complex(h_sig[1])
    i1, i2 = complex(h_int[0]), complex(h_int[1])
    step1 = 4e-3
    deltas = np.arange(0.0, 2.0 * np.pi, step1)
    m2s = np.linspace(0.0, cap, 257)
    dm2 = m2s[1] - m2s[0]

    coarse_vals = _n2_values(s1, s2, i1, i2, eta, cap, deltas, m2s)
    best = float(coarse_vals.max())
    if not np.isfinite(best):
        return 0.0

    top = np.argsort(coarse_vals, axis=None)[::-1][:20]
    for flat in top:
        di, mi = np.unravel_index(int(flat), coarse_vals.shape)
        d_center, m_center = float(deltas[di]), float(m2s[mi])
        d_span, m_span = 2.0 * step1, 2.0 * dm2
        for _ in range(4):
            fine_d = np.linspace(d_center - d_span, d_center + d_span, 97)
            fine_m = np.linspace(
                max(0.0, m_center - m_span), min(cap, m_center + m_span), 97
            )
            vals = _n2_values(s1, s2, i1, i2, eta, cap, fine_d, fine_m)
            fi = int(np.argmax(vals))
            fdi, fmi = np.unravel_index(fi, vals.shape)
            best = max(best, float(vals[fdi, fmi]))
            d_center, m_center = float(fine_d[fdi]), float(fine_m[fmi])
            d_span /= 6.0
            m_span /= 6.0
    return best


def steering_vector(upa, angles) -> np.ndarray:
    """One UPA response, element by element as the formula reads: phase
    2*pi*(d/lambda)*cos(el)*(m*cos(az) + n*sin(az)), m outermost, with
    d/lambda = 0.5."""
    m = np.arange(upa.rows, dtype=float)[:, None]
    n = np.arange(upa.cols, dtype=float)[None, :]
    proj = m * math.cos(angles.azimuth) + n * math.sin(angles.azimuth)
    phase = 2.0 * math.pi * 0.5 * math.cos(angles.elevation) * proj
    return np.exp(1j * phase).ravel()


def weiszfeld(points: np.ndarray, weights: np.ndarray, z0: complex) -> complex:
    """Modified Weiszfeld iteration, testing every step for an anchor with fmin.

    The solver's loop skips that test on a step whose reciprocal sum rules
    an anchor out; this one runs it on every step. Both rescale the weights
    of a mean step whose sum s = sum(w / d) is subnormal by 2**512, and
    raise SolverError when the rescaled sum is still subnormal.
    """
    # fmin.reduce(d) <= tol is any(d <= tol) in one call: fmin skips NaN
    absolute, add, fmin = np.abs, np.add.reduce, np.fmin.reduce
    z = z0
    for _ in range(_WEISZFELD_ITERS):
        d = absolute(points - z)
        tie = 1e-12 * (1.0 + abs(z))
        if fmin(d) <= tie:
            # sitting on an anchor: step off along the descent direction; the
            # anchors within the kink test's tie tolerance count as one, else
            # a near neighbour's 1/d weight pins the iterate to the cluster
            on = d <= tie
            others = ~on
            if not others.any():
                return z
            u = (z - points[others]) / d[others]
            r = complex(add(weights[others] * u))
            w_on = add(weights[on])
            if abs(r) <= w_on:
                return z
            step = (abs(r) - w_on) / add(weights[others] / d[others])
            z = z - (r / abs(r)) * step
            continue
        inv = weights / d
        if add(inv) < _NORMAL_MIN:
            # a subnormal s overflows 1 / s in the complex division: rescale
            inv = weights * 2.0**512 / d
            if add(inv) < _NORMAL_MIN:
                raise SolverError("Weiszfeld reciprocal sum underflows past the 2**512 rescale")
        z_new = complex(add(points * inv) / add(inv))
        if abs(z_new - z) <= 1e-15 * (1.0 + abs(z)):
            return z_new
        z = z_new
    return z


def kink_point(points: np.ndarray, weights: np.ndarray, *screen_args):
    """First candidate, in index order, at which the weighted Fermat-Weber sum has its minimum.

    Candidate p passes when the points tied with it (within 1e-12 relative)
    outweigh the pull of all the others. Every candidate is tested in turn,
    with no screen; returns None when none passes. ``screen_args`` (the
    solver's values of D at the anchors and its drift bound) are accepted
    and ignored, so the oracle takes the solver's call.
    """
    for idx in range(points.size):
        p = points[idx]
        same = np.abs(points - p) <= 1e-12 * (1.0 + abs(p))
        if not same[idx]:
            same[idx] = True
        rest_p = points[~same]
        rest_w = weights[~same]
        if rest_p.size == 0:
            return p
        u = (p - rest_p) / np.abs(p - rest_p)
        pull = complex(np.sum(rest_w * u))
        if abs(pull) <= weights[same].sum() * (1.0 + 1e-12):
            return p
    return None


def quantize(env_real, position):
    """The LoS-field cell of one position, one axis at a time.

    Each coordinate over its grid step rounds half to even (Python's
    ``round``); a height above the ground gets layer 1 or more, so it never
    shares the ground nodes' layer 0.
    """
    ex, ey, eh = env_real.grid_step
    k = round(position.z / eh)
    if position.z > 0 and k < 1:
        k = 1
    return round(position.x / ex), round(position.y / ey), k


def hash_uniform(*key_parts) -> float:
    """The LoS field's uniform in [0, 1) for the given key parts.

    The parts are joined by "|" into a sha256 key; the digest's first 8 bytes
    are a big-endian integer over 2**64.
    """
    text = "|".join(str(p) for p in key_parts)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def los_indicator(env_real, role, ground, uav):
    """LoS state of one ground-to-UAV link, straight from its definition.

    The UAV snaps to its grid cell (``quantize`` above); the cell's sha256
    uniform falls below the logistic LoS probability at the elevation
    arctan2(dz, hypot(dx, dy)) of the cell center's offset from the ground
    node, computed on one-element arrays.
    """
    cell = quantize(env_real, uav)
    center = (c * step for c, step in zip(cell, env_real.grid_step))
    dx, dy, dz = (np.array([c - g]) for c, g in zip(center, (ground.x, ground.y, ground.z)))
    if dx[0] == dy[0] == dz[0] == 0.0:
        raise DegenerateGeometryError("the cell's center is the ground node")
    p = los_probability(np.arctan2(dz, np.hypot(dx, dy)), env_real.env)[0]
    return hash_uniform(env_real.master_seed, env_real.trial_index, role, *cell) < p


def los_ring_search(env_real, p_star, box, dn):
    """The closest dual-LoS grid point of the first ring around p_star that
    holds one, one cell at a time.

    Takes ``los_adjusted_position``'s arguments.

    Walks each cubic ring max(|i|, |j|, k) == t in (i, j, k) order, asks
    ``los_indicator`` above about every in-box member, and picks the hit
    closest to p_star; exact distance ties go to a seeded uniform draw.
    """

    def both_los(cand):
        return los_indicator(env_real, ROLE_S2V, SOURCE, cand) and los_indicator(
            env_real, ROLE_V2D, dn, cand
        )

    if not box.contains(p_star):
        raise ValueError("designed position lies outside the feasible box")
    if both_los(p_star):
        return p_star
    rng = np.random.default_rng(
        np.random.SeedSequence((env_real.master_seed, env_real.trial_index, TAG_TIEBREAK))
    )
    ex, ey, eh = env_real.grid_step
    t_x = max(math.ceil((box.x_d - p_star.x) / ex), math.ceil(p_star.x / ex))
    t_y = max(math.ceil((box.y_d - p_star.y) / ey), math.ceil(p_star.y / ey))
    t_h = math.ceil((box.h_max - box.h_min) / eh)
    for t in range(1, max(t_x, t_y, t_h) + 1):
        hits = []
        for i in range(-t, t + 1):
            for j in range(-t, t + 1):
                for k in range(0, t + 1):
                    if max(abs(i), abs(j), k) != t:
                        continue
                    cand = Vec3(p_star.x + i * ex, p_star.y + j * ey, box.h_min + k * eh)
                    if box.contains(cand) and both_los(cand):
                        hits.append((p_star.distance_to(cand), cand))
        if hits:
            best = min(d for d, _ in hits)
            tied = [c for d, c in hits if d == best]
            if len(tied) == 1:
                return tied[0]
            return tied[int(rng.integers(len(tied)))]
    raise NoLosPositionError("no LoS position found")

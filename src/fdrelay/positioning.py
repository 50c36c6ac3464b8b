"""UAV relay placement: closed-form optimum and LoS-adjusted deployment.

The conditional optimum places the relay on the segment between the two
ground nodes at the minimum height, balancing the two links' ideal-beamforming
rate upper bounds. The deployed position then moves to the closest grid point,
in the first cubic ring around it that holds one, whose two links both draw
line-of-sight in the trial's environment (a later ring can hold a closer one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ROLE_S2V,
    ROLE_SI,
    ROLE_V2D,
    SOURCE,
    TAG_TIEBREAK,
    EnvParams,
    EnvironmentRealization,
    Vec3,
    trial_rng,
)

_BLOCK = 512  # cells of the probe budget's unit: a ring is charged whole blocks
_SLACK = 1e-9  # box membership tolerance, meters
# grid steps one axis of the box may span (the default box spans 400): the
# search builds each axis's run of indices before its first ring, and a
# longer run only grows toward memory no search could finish with
MAX_AXIS_STEPS = 2**20
# S2V cells one LoS search may decide, each ring charged as its cells rounded
# up to whole blocks of _BLOCK so that the rings are bounded too (a box one
# cell wide and tall has two cells a ring). The pinned and benchmark searches
# charge at most 52 blocks (tests/test_harness.py::TestProbeBudgetHeadroom);
# a box with no dual-LoS cell near p_star would otherwise be scanned whole:
# 13M cells, ~20 s, for the default box at los_a = 100, los_b = 10.
LOS_PROBE_BUDGET = 2**20


class NoLosPositionError(RuntimeError):
    """The feasible box holds no grid point with LoS on both links."""


@dataclass(frozen=True)
class FeasibleBox:
    """Deployment region x in [0, x_d], y in [0, y_d], h in [h_min, h_max]
    between SOURCE at the origin and the destination; its grid is the LoS
    field's ``grid_step``."""

    x_d: float
    y_d: float
    h_min: float
    h_max: float

    def __post_init__(self) -> None:
        if self.x_d < 0 or self.y_d < 0:
            raise ValueError("box extents must be nonnegative")
        if not (0 < self.h_min <= self.h_max):
            raise ValueError("need 0 < h_min <= h_max")

    def contains(self, p: Vec3) -> bool:
        return (
            -_SLACK <= p.x <= self.x_d + _SLACK
            and -_SLACK <= p.y <= self.y_d + _SLACK
            and self.h_min - _SLACK <= p.z <= self.h_max + _SLACK
        )


@dataclass(frozen=True)
class LinkBudget:
    """Array-gain products, power caps, and noise powers of the two hops."""

    n_s2v: int  # transmit elements times receive elements, first hop
    n_v2d: int  # same product for the second hop
    p_s_tot: float  # watts
    p_v_tot: float  # watts
    noise1: float  # watts, at the relay receiver
    noise2: float  # watts, at the destination receiver

    def __post_init__(self) -> None:
        if min(self.n_s2v, self.n_v2d) < 1:
            raise ValueError("array products must be positive")
        if min(self.p_s_tot, self.p_v_tot, self.noise1, self.noise2) <= 0:
            raise ValueError("powers and noise levels must be positive")


class DegenerateEndpointsError(ValueError):
    """Source and destination are the same ground point."""


def conditional_optimal_position(
    budget: LinkBudget, box: FeasibleBox, env: EnvParams, dn: Vec3
) -> tuple[Vec3, float]:
    """Closed-form relay position on the SOURCE-DN segment at height h_min.

    Returns the position and the segment fraction rho in [0, 1]. rho pins to
    0 (above the source) or 1 (above the destination) when one link's budget
    cannot catch up even at the extreme placement; equal budgets give the
    midpoint; otherwise the balancing root of the quadratic obtained by
    equating the two distance-scaled budgets.
    """
    x_d, y_d = dn.x, dn.y
    d_sq = x_d * x_d + y_d * y_d
    if d_sq == 0.0:
        raise DegenerateEndpointsError("SN and DN coincide")
    alpha = env.alpha_los
    h = box.h_min
    q_s = budget.n_s2v * budget.p_s_tot / budget.noise1
    q_v = budget.n_v2d * budget.p_v_tot / budget.noise2
    edge = h**alpha / (d_sq + h * h) ** (alpha / 2.0)

    if q_s / q_v <= edge:
        rho = 0.0
    elif q_v / q_s <= edge:
        rho = 1.0
    elif q_s == q_v:
        rho = 0.5
    else:
        big_a = q_s ** (2.0 / alpha)
        big_b = q_v ** (2.0 / alpha)
        a = (big_a - big_b) * d_sq
        b = -2.0 * big_a * d_sq
        c = big_a * d_sq + (big_a - big_b) * h * h
        if abs(a) < 1e-12 * abs(b):
            # near-degenerate quadratic: the linear root is the stable form
            rho = -c / b
        else:
            disc = b * b - 4.0 * a * c
            rho = (-b - math.sqrt(disc)) / (2.0 * a)
        rho = min(1.0, max(0.0, rho))
    return Vec3(rho * x_d, rho * y_d, h), rho


def approx_upper_bounds(
    position: Vec3, budget: LinkBudget, env: EnvParams, dn: Vec3
) -> tuple[float, float]:
    """Ideal-beamforming LoS-only rate bounds of the hops SOURCE-relay-dn, bps/Hz."""
    if position.z <= 0:
        raise ValueError("relay must be above ground")
    g_ref = env.ref_amplitude**2
    d1 = SOURCE.distance_to(position)
    d2 = dn.distance_to(position)
    snr1 = g_ref * budget.n_s2v * budget.p_s_tot / (d1**env.alpha_los * budget.noise1)
    snr2 = g_ref * budget.n_v2d * budget.p_v_tot / (d2**env.alpha_los * budget.noise2)
    return math.log2(1.0 + snr1), math.log2(1.0 + snr2)


def strict_upper_bounds(h_s2v, h_v2d, budget: LinkBudget) -> tuple[float, float]:
    """All-path ideal-beamforming rate bounds from the channels' path lists."""
    for ch in (h_s2v, h_v2d):
        if ch.role == ROLE_SI:
            raise ValueError("self-interference channel carries no path metadata")
    s1 = sum(abs(c.gain) ** 2 for c in h_s2v.components)
    s2 = sum(abs(c.gain) ** 2 for c in h_v2d.components)
    r1 = math.log2(1.0 + s1 * budget.n_s2v * budget.p_s_tot / budget.noise1)
    r2 = math.log2(1.0 + s2 * budget.n_v2d * budget.p_v_tot / budget.noise2)
    return r1, r2


@functools.lru_cache(maxsize=64)
def _ring_tables(t, j_range, k_top):
    """Ring t's (2, n) tables of (j, k) pairs, j in j_range and
    0 <= k <= k_top: its face, every pair, and its rim, the pairs with
    |j| == t or k == t.

    Kept per (t, j_range, k_top), read-only: the rings of most searches
    repeat these, since only the box's edges clip them.
    """
    face = np.divmod(np.arange((j_range[1] + 1 - j_range[0]) * (k_top + 1)), k_top + 1)
    face = np.array(face) + ((j_range[0],), (0,))
    rim = face[:, (np.abs(face[0]) == t) | (face[1] == t)]
    face.setflags(write=False)
    rim.setflags(write=False)
    return face, rim


def _ring_cells(t, i_range, j_range, k_top):
    """Ring t's cells max(|i|, |j|, k) == t, i in i_range, as arrays i, j,
    k in (i, j, k) order: x-slice i takes _ring_tables' face for |i| == t
    and its rim otherwise."""
    face, rim = _ring_tables(t, j_range, k_top)
    lo, hi = i_range
    first, last = lo == -t, hi == t  # |i| <= t: only the end slices can be faces
    # one count per x-slice; a bool bound leaves its end out when False
    sizes = np.full(hi + 1 - lo, rim.shape[1])
    sizes[:first] = sizes[sizes.size - last :] = face.shape[1]
    rims = (rim[:, None] + np.zeros((sizes.size - first - last, 1), dtype=rim.dtype)).reshape(2, -1)
    jk = [face] * first + [rims] + [face] * last
    return (np.arange(lo, hi + 1).repeat(sizes), *np.concatenate(jk, axis=1))


def _axis_run(lo, hi, origin, step, n_min, n_max):
    """(first, last, coordinates) of the indices n in [n_min, n_max] whose
    coordinate origin + n * step lies in [lo, hi] up to _SLACK. One step of
    margin around [lo, hi] absorbs rounding; coordinates grow with n, so the
    hits form one run."""
    n = np.arange(
        max(n_min, math.floor((lo - _SLACK - origin) / step) - 1),
        min(n_max, math.ceil((hi + _SLACK - origin) / step) + 1) + 1,
    )
    c = origin + n * step
    inside = (lo - _SLACK <= c) & (c <= hi + _SLACK)
    first, last = n[inside][[0, -1]].tolist()
    return first, last, c[inside]


def los_adjusted_position(
    env_real: EnvironmentRealization,
    p_star: Vec3,
    box: FeasibleBox,
    dn: Vec3,
) -> Vec3:
    """First-ring closest dual-LoS grid point around the closed-form optimum.

    The S2V link starts at SOURCE and the V2D link ends at ``dn``. Expands
    cubic neighborhood rings around p_star by the field's ``grid_step``
    (heights only upward from h_min), fully evaluating each ring before
    choosing the member closest to p_star, and stops at the first ring with
    a hit: ring t's face centers lie t steps away but ring t - 1's corners
    up to sqrt(3)(t - 1), so a later ring can hold a closer hit. Exact
    distance ties are broken uniformly with the trial seed. Raises
    :class:`NoLosPositionError` once the box is exhausted or a ring would
    take the search past LOS_PROBE_BUDGET S2V cells (a ring's cells counted
    in whole blocks of _BLOCK: the ring holding the block that passes the
    budget is not decided), and ValueError when p_star lacks LoS and an
    axis of the box spans more than MAX_AXIS_STEPS grid steps.

    p_star's own cell is decided by ``los_indicator``. The box is a product
    of three intervals and p_star lies in it, so one _axis_run call per axis
    finds that axis's in-box indices, one run, with their coordinates;
    quantize_axes snaps the coordinates to grid cells, and a cell is a
    position on each run. One ``los_route`` per role holds the runs
    (:class:`LosRoute`).
    Per ring, _ring_cells lists the ring's cells in (i, j, k) order, one
    S2V ``decide`` call decides them, then one V2D call decides the S2V
    hits. The coordinates and cells are the ones the cell-by-cell loop
    computes, and LosRoute decides every cell by the field's one cell map,
    as ``los_indicator`` and that loop do (tests/oracles.py keeps the loop),
    so the hits, their order and the chosen point are the same to the bit.
    """
    if not box.contains(p_star):
        raise ValueError("designed position lies outside the feasible box")
    if env_real.los_indicator(ROLE_S2V, SOURCE, p_star) and env_real.los_indicator(
        ROLE_V2D, dn, p_star
    ):
        return p_star

    ex, ey, eh = env_real.grid_step
    for axis, key, extent, step in (
        ("x", "eps_x", box.x_d, ex), ("y", "eps_y", box.y_d, ey), ("h", "eps_h", box.h_max - box.h_min, eh)
    ):
        if extent / step > MAX_AXIS_STEPS:
            raise ValueError(
                f"the LoS search box spans {extent / step:.4g} grid steps along {axis}, "
                f"more than {MAX_AXIS_STEPS}: raise {key} or shrink the box"
            )
    # ring index bounds that still intersect the box
    t_x = max(math.ceil((box.x_d - p_star.x) / ex), math.ceil(p_star.x / ex))
    t_y = max(math.ceil((box.y_d - p_star.y) / ey), math.ceil(p_star.y / ey))
    t_h = math.ceil((box.h_max - box.h_min) / eh)
    t_cap = max(t_x, t_y, t_h)

    # p_star lies in the box, so each axis's own interval decides its run
    i0, i1, xs = _axis_run(0.0, box.x_d, p_star.x, ex, -t_cap, t_cap)
    j0, j1, ys = _axis_run(0.0, box.y_d, p_star.y, ey, -t_cap, t_cap)
    _, k1, zs = _axis_run(box.h_min, box.h_max, box.h_min, eh, 0, t_cap)
    axes = env_real.quantize_axes(xs, ys, zs)
    s2v = env_real.los_route(ROLE_S2V, SOURCE, axes)
    v2d = env_real.los_route(ROLE_V2D, dn, axes)

    probed = 0
    for t in range(1, t_cap + 1):
        i_range, j_range = (max(-t, i0), min(t, i1)), (max(-t, j0), min(t, j1))
        bi, bj, bk = _ring_cells(t, i_range, j_range, min(t, k1))
        probed += -(-bi.size // _BLOCK) * _BLOCK
        if probed > LOS_PROBE_BUDGET:
            raise NoLosPositionError(
                f"no LoS position within the probe budget of {LOS_PROBE_BUDGET} cells"
            )
        # the ring's cells as positions on the runs; V2D decides the S2V hits
        bi -= i0
        bj -= j0
        hit = s2v.decide(bi, bj, bk)
        bi, bj, bk = bi[hit], bj[hit], bk[hit]
        hit = v2d.decide(bi, bj, bk)
        if hit.any():
            hits = list(zip(xs[bi[hit]].tolist(), ys[bj[hit]].tolist(), zs[bk[hit]].tolist()))
            origin = (p_star.x, p_star.y, p_star.z)
            dists = [math.dist(origin, h) for h in hits]
            best = min(dists)
            tied = [Vec3(*h) for d, h in zip(dists, hits) if d == best]
            if len(tied) == 1:
                return tied[0]
            rng = trial_rng(env_real.master_seed, env_real.trial_index, TAG_TIEBREAK)
            return tied[int(rng.integers(len(tied)))]
    raise NoLosPositionError("no LoS position found")

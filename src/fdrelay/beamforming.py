"""Analog beamformer initialization, normalization, repair, and the
alternating interference-suppression loop.

The loop alternately re-solves four convex subproblems (relay receive, relay
transmit, source, destination), tightening each interference cap by a factor
kappa per pass down to a floor eta, re-normalizing every solution onto the
constant-modulus circle, and re-running the closed-form power allocation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import AngleSet, LinkSet, UpaSpec, steering_vector
from .positioning import LinkBudget
from .rates import EffectiveGains, PowerPair, achievable_rates, effective_gains, optimal_powers
from .solver import SolverError, solve_bf_subproblem

CM_TOL = 1e-9  # constant-modulus classification tolerance


@dataclass(frozen=True)
class SuppressionSchedule:
    """Interference-cap schedule: each solve caps its interference at
    eta_floor + mu, with mu shrunk by kappa before every solve.

    ``mu_si`` bounds the relay's self-interference path and ``mu_s2d`` the
    direct source-to-destination path; they hold the paper's mu2 and mu4, the
    levels of the last relay-transmit and destination solves. A pass starts its
    relay-receive (mu1) and source (mu3) solves one kappa step below them.
    """

    eta_floor: float
    kappa: float
    mu_si: float = 0.0
    mu_s2d: float = 0.0

    def __post_init__(self) -> None:
        if self.eta_floor < 0:
            raise ValueError("eta floor must be nonnegative")
        if self.kappa <= 1:
            raise ValueError("kappa must exceed 1")
        if min(self.mu_si, self.mu_s2d) < 0:
            raise ValueError("suppression state must be nonnegative")


def eta_floor_rule(p_s_tot: float, p_v_tot: float, noise1: float, noise2: float) -> float:
    """Default interference-amplitude floor tied to the noise levels."""
    return min(
        math.sqrt(noise1) / (10.0 * math.sqrt(p_s_tot)),
        math.sqrt(noise2) / (10.0 * math.sqrt(p_v_tot)),
    )


@dataclass(frozen=True)
class AisState:
    """Loop state: the four arrays' complex weights, each element on the cap
    circle of radius 1/sqrt(N), the schedule, and per-iteration traces."""

    w_s: np.ndarray
    w_r: np.ndarray
    w_t: np.ndarray
    w_d: np.ndarray
    schedule: SuppressionSchedule
    rate_trace: tuple[float, ...]
    gain_trace: tuple[EffectiveGains, ...]
    power_trace: tuple[PowerPair, ...]

    def __post_init__(self) -> None:
        if not 0 < len(self.rate_trace) == len(self.gain_trace) == len(self.power_trace):
            raise ValueError("the three traces must be non-empty and of equal length")

    @property
    def k(self) -> int:
        """Completed passes; the traces also hold the start."""
        return len(self.rate_trace) - 1

    @property
    def powers(self) -> PowerPair:
        return self.power_trace[-1]


def init_beamformers(
    upa_s: UpaSpec,
    upa_r: UpaSpec,
    upa_t: UpaSpec,
    upa_d: UpaSpec,
    s2v_angles: AngleSet,
    v2d_angles: AngleSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalized LoS steering vectors for all four arrays."""

    def bf(upa: UpaSpec, angles: AngleSet) -> np.ndarray:
        return steering_vector(upa, angles) / math.sqrt(upa.n_tot)

    return (
        bf(upa_s, s2v_angles),
        bf(upa_r, s2v_angles),
        bf(upa_t, v2d_angles),
        bf(upa_d, v2d_angles),
    )


def normalize_cm(w: np.ndarray, cap: float) -> np.ndarray:
    """Push every element onto the constant-modulus circle of radius cap.

    Zero elements have no phase; they map to cap * exp(j0) by convention.
    The division forms 1 / |w|, which overflows for |w| <= 2**-1024, so such
    an element is first lifted by an exact power of two, as in the matched
    filter; that leaves its phase alone. Without such an element, or a NaN,
    the plain division skips the mask and gives every element the bits of
    the masked one (BENCH_22.json).
    """
    w = np.asarray(w, dtype=complex)
    mags = np.abs(w)
    if np.minimum.reduce(mags) > 2.0**-1024:
        return cap * w / mags
    if np.fmin.reduce(mags) <= 2.0**-1024:
        w = w.copy()
        w[mags <= 2.0**-1024] *= 2.0**512
        mags = np.abs(w)
    out = np.full(w.shape, cap + 0j)
    np.divide(cap * w, mags, out=out, where=mags > 0)
    return out


def interior_census(w: np.ndarray, cap: float) -> int:
    """Number of elements strictly inside the cap circle."""
    return int(np.sum(np.abs(np.asarray(w)) < cap - CM_TOL))


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one repair pass."""

    pairs_repaired: int
    pairs_skipped: int  # interior pairs without the constant-ratio property
    interior_before: int
    interior_after: int


def _constant_ratio(s1: complex, i1: complex, s2: complex, i2: complex) -> bool:
    cross = abs(s1 * i2 - s2 * i1)
    scale = max(abs(s1) * abs(i2), abs(s2) * abs(i1), 1e-300)
    return cross <= 1e-9 * scale


def _repair_pair(
    w1: complex, w2: complex, s1: complex, s2: complex, cap: float
) -> tuple[complex, complex]:
    """Re-phase a constant-ratio pair onto the cap circle.

    Preserves the pair's contribution conj(w1)*s1 + conj(w2)*s2; under the
    constant-ratio property the interference contribution is proportional and
    is preserved too. When the current contribution is too short to close a
    triangle with both elements at the cap, the weaker side is anti-aligned at
    the cap and one element stays interior.
    """
    if abs(s1) < abs(s2):
        w2n, w1n = _repair_pair(w2, w1, s2, s1, cap)
        return w1n, w2n
    contrib = w1.conjugate() * s1 + w2.conjugate() * s2
    a_bar = abs(contrib)
    b_bar = cap * abs(s1)
    c_bar = cap * abs(s2)
    u = cmath.phase(contrib) if a_bar > 0 else 0.0
    th1 = cmath.phase(s1) if abs(s1) > 0 else 0.0
    th2 = cmath.phase(s2) if abs(s2) > 0 else 0.0

    if a_bar >= b_bar - c_bar and a_bar > 0:
        # both elements reach the cap: solve the phase triangle
        v1 = math.acos(
            min(1.0, max(-1.0, (a_bar * a_bar + b_bar * b_bar - c_bar * c_bar) / (2 * a_bar * b_bar)))
        )
        v2 = math.acos(
            min(1.0, max(-1.0, (a_bar * a_bar + c_bar * c_bar - b_bar * b_bar) / (2 * a_bar * c_bar)))
        )
        w1n = cap * cmath.exp(-1j * (u - v1 - th1))
        w2n = cap * cmath.exp(-1j * (u + v2 - th2))
        return w1n, w2n
    if a_bar == 0.0 and b_bar == c_bar:
        # degenerate triangle: anti-aligned pair at the cap sums to zero
        return cap * cmath.exp(1j * th1), cap * cmath.exp(-1j * (math.pi - th2))
    # weaker side anti-aligned at the cap, stronger side interior
    w2n = cap * cmath.exp(-1j * (u - th2 + math.pi))
    w1n = ((a_bar + c_bar) / abs(s1)) * cmath.exp(-1j * (u - th1))
    return w1n, w2n


def cm_repair(
    w: np.ndarray, h_sig: np.ndarray, h_int: np.ndarray, cap: float
) -> tuple[np.ndarray, RepairReport]:
    """Drive interior elements onto the cap circle without moving either
    inner product, pairing interior elements that share the constant-ratio
    property; non-qualifying pairs are skipped and counted."""
    w = np.asarray(w, dtype=complex).copy()
    h_sig = np.asarray(h_sig, dtype=complex)
    h_int = np.asarray(h_int, dtype=complex)
    interior_before = interior_census(w, cap)
    repaired = 0
    skipped_pairs: set[tuple[int, int]] = set()

    while True:
        interior = [int(n) for n in np.flatnonzero(np.abs(w) < cap - CM_TOL)]
        pair = None
        for a_i in range(len(interior)):
            for b_i in range(a_i + 1, len(interior)):
                i, j = interior[a_i], interior[b_i]
                if (i, j) in skipped_pairs:
                    continue
                if _constant_ratio(h_sig[i], h_int[i], h_sig[j], h_int[j]):
                    pair = (i, j)
                    break
                skipped_pairs.add((i, j))
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        # use whichever channel's entries carry magnitude for the construction
        if max(abs(h_sig[i]), abs(h_sig[j])) >= max(abs(h_int[i]), abs(h_int[j])):
            ref = h_sig
        else:
            ref = h_int
        w[i], w[j] = _repair_pair(w[i], w[j], ref[i], ref[j], cap)
        repaired += 1

    return w, RepairReport(
        pairs_repaired=repaired,
        pairs_skipped=len(skipped_pairs),
        interior_before=interior_before,
        interior_after=interior_census(w, cap),
    )


def _evaluated_state(
    prev: AisState | None, links: LinkSet, budget: LinkBudget, schedule: SuppressionSchedule,
    w_s: np.ndarray, w_r: np.ndarray, w_t: np.ndarray, w_d: np.ndarray,
) -> AisState:
    """Gains, optimal powers and rate of four weight arrays, appended to the
    traces of ``prev``, or starting them when ``prev`` is None."""
    gains = effective_gains(
        w_s, w_r, w_t, w_d,
        links.s2v.entries, links.si.entries, links.v2d.entries, links.s2d.entries,
    )
    powers = optimal_powers(gains, budget.p_s_tot, budget.p_v_tot, budget.noise1, budget.noise2)
    _, _, r = achievable_rates(gains, powers, budget.noise1, budget.noise2)
    return AisState(
        w_s, w_r, w_t, w_d, schedule,
        rate_trace=(prev.rate_trace if prev else ()) + (r,),
        gain_trace=(prev.gain_trace if prev else ()) + (gains,),
        power_trace=(prev.power_trace if prev else ()) + (powers,),
    )


def initial_state(links: LinkSet, budget: LinkBudget, schedule: SuppressionSchedule) -> AisState:
    """Steering-vector start with its interference levels, powers, and rate."""
    w_s, w_r, w_t, w_d = init_beamformers(
        links.upa_s, links.upa_r, links.upa_t, links.upa_d, links.s2v_angles, links.v2d_angles
    )
    schedule = replace(
        schedule,
        mu_si=float(abs(np.vdot(w_r, links.si.entries @ w_t))),
        mu_s2d=float(abs(np.vdot(w_d, links.s2d.entries @ w_s))),
    )
    return _evaluated_state(None, links, budget, schedule, w_s, w_r, w_t, w_d)


def ais_iterate(state: AisState, links: LinkSet, budget: LinkBudget) -> AisState:
    """One alternating pass over the four arrays plus the power update.

    Each array's element cap is 1/sqrt(N), fixed by its size. A SolverError
    names the pass (1-based) and the array it was solving.
    """
    sch = state.schedule
    s2v, v2d, s2d, si = links.s2v, links.v2d, links.s2d, links.si

    def update(w: np.ndarray, h_sig: np.ndarray, h_int: np.ndarray, mu: float, name: str) -> np.ndarray:
        cap = 1.0 / math.sqrt(w.size)
        try:
            return normalize_cm(solve_bf_subproblem(h_sig, h_int, sch.eta_floor + mu, cap), cap)
        except SolverError as exc:
            raise SolverError(f"AIS pass {state.k + 1}, {name}: {exc}") from exc

    mu1 = sch.mu_si / sch.kappa
    mu_si = mu1 / sch.kappa
    mu3 = sch.mu_s2d / sch.kappa
    mu_s2d = mu3 / sch.kappa
    w_r = update(state.w_r, s2v.entries @ state.w_s, si.entries @ state.w_t, mu1, "w_r")
    w_t = update(state.w_t, v2d.conj_t @ state.w_d, si.conj_t @ w_r, mu_si, "w_t")
    w_s = update(state.w_s, s2v.conj_t @ w_r, s2d.conj_t @ state.w_d, mu3, "w_s")
    w_d = update(state.w_d, v2d.entries @ w_t, s2d.entries @ w_s, mu_s2d, "w_d")
    schedule = SuppressionSchedule(sch.eta_floor, sch.kappa, mu_si, mu_s2d)
    return _evaluated_state(state, links, budget, schedule, w_s, w_r, w_t, w_d)


def run_ais(
    state: AisState,
    links: LinkSet,
    budget: LinkBudget,
    eps_r: float,
    max_iters: int,
) -> AisState:
    """Iterate from ``state`` (usually :func:`initial_state`) until the rate
    gain of a pass drops to eps_r or less, or the traces hold max_iters passes."""
    if eps_r <= 0:
        raise ValueError("rate tolerance must be positive")
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    while state.k < max_iters:
        new_state = ais_iterate(state, links, budget)
        improved = new_state.rate_trace[-1] - state.rate_trace[-1]
        state = new_state
        if improved <= eps_r:
            break
    return state

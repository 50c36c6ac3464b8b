"""Exact solver for the per-array beamforming subproblem.

Each alternating step maximizes Re(w^H h_sig) subject to an interference cap
|w^H h_int| <= eta and per-element magnitude caps |w_n| <= cap. The solver
minimizes the dual

    D(z) = cap * sum_n |h_sig_n - z * h_int_n| + eta * |z|,   z complex,

a planar weighted Fermat-Weber problem whose minimizer is either one of the
ratio points h_sig_n / h_int_n, the origin, or a smooth stationary point.
The primal is recovered in closed form: every element saturates its cap
except (at most) those tied to the active ratio point, and a duality-gap
certificate is computed for every solve.

A primal-dual splitting iteration (Chambolle & Pock, JMIV 2011) is kept as
the fallback route. No default trial reaches it, but the closed-form dual
recovery misses the gap tolerance on some inputs whose element magnitudes
span many decades (10^-6 to 10^6), and the splitting certifies a share of
those.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

GAP_TOL = 1e-6  # relative duality-gap certificate
FEAS_TOL = 1e-8  # interference-constraint violation, normalized units
CAP_TOL = 1e-12  # per-element magnitude violation


class SolverError(RuntimeError):
    """No route produced a certified solution."""


@dataclass(frozen=True)
class SolveInfo:
    """Certificate and diagnostics of one subproblem solve."""

    objective: float  # Re(w^H h_sig), original scaling
    dual_bound: float  # D(z*), original scaling; objective <= dual_bound
    gap: float  # relative duality gap
    int_violation: float  # max(0, |w^H h_int| - eta), normalized units
    cap_violation: float  # max(0, max_n |w_n| - cap)
    method: str  # "shortcut", "dual", or "pdhg"
    z_star: complex


def _phase_align(w: np.ndarray, h_sig: np.ndarray) -> np.ndarray:
    """Rotate w by a global phase so that w^H h_sig is real nonnegative."""
    c = complex(np.vdot(w, h_sig))
    if abs(c) == 0.0:
        return w
    return w * cmath.exp(1j * cmath.phase(c))


def _dual_value(z: complex, s_hat: np.ndarray, i_hat: np.ndarray, eta: float, cap: float) -> float:
    return cap * float(np.sum(np.abs(s_hat - z * i_hat))) + eta * abs(z)


def _weiszfeld(
    points: np.ndarray, weights: np.ndarray, z0: complex, iters: int = 200
) -> complex:
    """Modified Weiszfeld iteration for the weighted geometric median."""
    z = z0
    for _ in range(iters):
        d = np.abs(points - z)
        on = d < 1e-15
        if on.any():
            # sitting on an anchor: step off along the descent direction
            k = int(np.argmax(on))
            others = ~on
            if not others.any():
                return z
            u = (z - points[others]) / d[others]
            r = complex(np.sum(weights[others] * u))
            if abs(r) <= weights[on].sum():
                return z
            step = (abs(r) - weights[on].sum()) / np.sum(weights[others] / d[others])
            z = z - (r / abs(r)) * step
            continue
        inv = weights / d
        z_new = complex(np.sum(points * inv) / np.sum(inv))
        if abs(z_new - z) <= 1e-15 * (1.0 + abs(z)):
            return z_new
        z = z_new
    return z


def _newton_polish(
    z: complex, points: np.ndarray, weights: np.ndarray, iters: int = 60
) -> complex:
    """Damped Newton on the smooth Fermat-Weber objective near the optimum."""

    def value(zz: complex) -> float:
        return float(np.sum(weights * np.abs(points - zz)))

    f = value(z)
    for _ in range(iters):
        d = z - points
        r = np.abs(d)
        if (r < 1e-300).any():
            break
        u = d / r
        grad = complex(np.sum(weights * u))
        if abs(grad) <= 1e-15 * weights.sum():
            break
        # 2x2 Hessian of sum w*|z - p| in real coordinates
        ux, uy = u.real, u.imag
        wr = weights / r
        hxx = float(np.sum(wr * (1.0 - ux * ux)))
        hyy = float(np.sum(wr * (1.0 - uy * uy)))
        hxy = float(np.sum(wr * (-ux * uy)))
        det = hxx * hyy - hxy * hxy
        if det <= 0:
            break
        sx = (hyy * grad.real - hxy * grad.imag) / det
        sy = (hxx * grad.imag - hxy * grad.real) / det
        step = complex(sx, sy)
        scale = 1.0
        improved = False
        for _ in range(40):
            z_try = z - scale * step
            f_try = value(z_try)
            if f_try < f:
                z, f = z_try, f_try
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return z


def _fill_free_elements(
    w: np.ndarray, idx: np.ndarray, i_hat: np.ndarray, rhs: complex, cap: float
) -> None:
    """Greedy fill of residual-zero elements to move w^H i_hat by rhs.

    Elements are taken in decreasing interference magnitude, so at most one
    of them lands strictly inside its cap.
    """
    remaining = abs(rhs)
    if remaining == 0.0 or idx.size == 0:
        return
    psi = cmath.phase(rhs)
    order = idx[np.argsort(-np.abs(i_hat[idx]))]
    for k in order:
        mag = min(cap, remaining / abs(i_hat[k]))
        # conj(w_k) * i_hat_k contributes mag*|i_hat_k| at phase psi
        w[k] = mag * cmath.exp(-1j * psi) * i_hat[k] / abs(i_hat[k])
        remaining -= mag * abs(i_hat[k])
        if remaining <= 0:
            break


def _recover_primal(
    z_star: complex,
    s_hat: np.ndarray,
    i_hat: np.ndarray,
    eta: float,
    cap: float,
) -> np.ndarray:
    """Closed-form primal from the dual minimizer.

    Elements whose residual s_hat - z*i_hat is nonzero saturate the cap along
    the residual phase; the residual-zero group absorbs the interference,
    filled greedily so at most one element stays strictly inside its cap.
    With z* nonzero the constraint is active at phase -arg(z*); with z* zero
    the constraint is slack at the optimum, so the free elements only cancel
    whatever leakage exceeds the cap eta.
    """
    n = s_hat.size
    w = np.zeros(n, dtype=complex)
    resid = s_hat - z_star * i_hat
    # the absolute floor matters: on the normalized problem an element whose
    # residual is below 1e-12 contributes nothing to the objective but may
    # carry full interference-cancellation capacity
    scale = np.abs(s_hat) + abs(z_star) * np.abs(i_hat)
    active = np.abs(resid) <= 1e-12 * np.maximum(scale, 1.0)
    outside = ~active
    nz = outside & (np.abs(resid) > 0)
    w[nz] = cap * resid[nz] / np.abs(resid[nz])

    rest = complex(np.vdot(w, i_hat))
    if abs(z_star) == 0.0:
        if abs(rest) <= eta:
            return w
        target = eta * cmath.exp(1j * cmath.phase(rest))
    else:
        target = eta * cmath.exp(-1j * cmath.phase(z_star))
    idx = np.flatnonzero(active & (np.abs(i_hat) > 0))
    _fill_free_elements(w, idx, i_hat, target - rest, cap)
    return w


def _clip_to_cap(w: np.ndarray, cap: float, slack: float = 0.0) -> np.ndarray:
    """Scale every element above cap * (1 + slack) back onto the cap circle."""
    mags = np.abs(w)
    over = mags > cap * (1.0 + slack)
    if over.any():
        w = w.copy()
        w[over] *= cap / mags[over]
    return w


def _feasibility_polish(
    w: np.ndarray, i_hat: np.ndarray, eta: float, cap: float, rounds: int = 12
) -> np.ndarray:
    """Tiny alternating projections to clear rounding-level violations.

    Both callers pass the unit-norm interference direction, so ``i_hat`` is
    never zero. When the rounds run out, the last step was an interference
    projection, which can push an element past its cap; a final clip runs
    only if the cap is then missed by more than CAP_TOL, so a solve that
    already meets it keeps its bits.
    """
    i_norm_sq = float(np.vdot(i_hat, i_hat).real)
    for _ in range(rounds):
        w = _clip_to_cap(w, cap, slack=1e-15)
        s = complex(np.vdot(w, i_hat))
        if abs(s) <= eta * (1.0 + 1e-15) + 1e-15:
            return w
        gamma = s.conjugate() * (eta / abs(s) - 1.0) / i_norm_sq
        w = w + gamma * i_hat
    if float(np.max(np.abs(w))) - cap > CAP_TOL:
        w = _clip_to_cap(w, cap)
    return w


def _pdhg(
    s_hat: np.ndarray,
    i_hat: np.ndarray,
    eta: float,
    cap: float,
    max_iters: int = 60000,
) -> tuple[np.ndarray, complex]:
    """Primal-dual splitting fallback with closed-form proxes."""
    n = s_hat.size
    w = np.zeros(n, dtype=complex)
    w_bar = w.copy()
    s = 0.0 + 0.0j
    tau = sigma = 0.95  # ||K|| = ||i_hat|| = 1 after normalization
    best_w = w
    best_gap = math.inf
    for it in range(1, max_iters + 1):
        v = s + sigma * complex(np.vdot(i_hat, w_bar).conjugate())
        av = abs(v)
        s = v * max(0.0, 1.0 - sigma * eta / av) if av > 0 else 0.0 + 0.0j
        w_old = w
        w = w + tau * (s_hat - i_hat * s)
        w = _clip_to_cap(w, cap)
        w_bar = 2.0 * w - w_old
        if it % 200 == 0 or it == max_iters:
            w_f = _feasibility_polish(w, i_hat, eta, cap)
            primal = float(abs(np.vdot(w_f, s_hat)))
            z_cand = s.conjugate()
            dual = _dual_value(z_cand, s_hat, i_hat, eta, cap)
            gap = dual - primal
            if gap < best_gap:
                best_gap, best_w = gap, w_f
                if gap <= GAP_TOL * max(1.0, dual):
                    return best_w, z_cand
    return best_w, s.conjugate()


def _certified(info: SolveInfo) -> bool:
    return info.gap <= GAP_TOL and info.int_violation <= FEAS_TOL and info.cap_violation <= CAP_TOL


def solve_bf_subproblem_report(
    h_sig: np.ndarray, h_int: np.ndarray, eta: float, cap: float
) -> tuple[np.ndarray, SolveInfo]:
    """Solve the subproblem and return the weight vector with its certificate."""
    h_sig = np.asarray(h_sig, dtype=complex).ravel()
    h_int = np.asarray(h_int, dtype=complex).ravel()
    if h_sig.shape != h_int.shape:
        raise ValueError("signal and interference vectors must have equal length")
    if eta < 0:
        raise ValueError("interference cap must be nonnegative")
    if cap <= 0:
        raise ValueError("element magnitude cap must be positive")

    sig_norm = float(np.linalg.norm(h_sig))
    int_norm = float(np.linalg.norm(h_int))
    if sig_norm == 0.0:
        w = np.zeros_like(h_sig)
        return w, SolveInfo(0.0, 0.0, 0.0, 0.0, 0.0, "shortcut", 0j)
    s_hat = h_sig / sig_norm

    # matched constant-magnitude filter whenever it already meets the cap;
    # built from the raw channel so the closed form is recovered bit-exactly
    w_mf = np.zeros_like(h_sig)
    nz = np.abs(h_sig) > 0
    w_mf[nz] = cap * h_sig[nz] / np.abs(h_sig[nz])
    if int_norm == 0.0 or abs(np.vdot(w_mf, h_int)) <= eta:
        obj = float(np.vdot(w_mf, h_sig).real)
        return w_mf, SolveInfo(obj, obj, 0.0, 0.0, 0.0, "shortcut", 0j)

    i_hat = h_int / int_norm
    eta_hat = eta / int_norm

    # dual route: minimize D over the ratio points, the origin, and the plane
    carriers = np.abs(i_hat) > 1e-14
    points = s_hat[carriers] / i_hat[carriers]
    weights = cap * np.abs(i_hat[carriers])
    all_points = np.concatenate([points, [0.0 + 0.0j]])
    all_weights = np.concatenate([weights, [eta_hat]])

    z_star = None
    # exact kink test at every candidate point of the nonsmooth objective
    for idx in range(all_points.size):
        p = all_points[idx]
        same = np.abs(all_points - p) <= 1e-12 * (1.0 + abs(p))
        if not same[idx]:
            same[idx] = True
        rest_p = all_points[~same]
        rest_w = all_weights[~same]
        if rest_p.size == 0:
            z_star = p
            break
        u = (p - rest_p) / np.abs(p - rest_p)
        pull = complex(np.sum(rest_w * u))
        if abs(pull) <= all_weights[same].sum() * (1.0 + 1e-12):
            z_star = p
            break
    if z_star is None:
        d_vals = [
            _dual_value(z, s_hat, i_hat, eta_hat, cap) for z in all_points
        ]
        z0 = all_points[int(np.argmin(d_vals))]
        z_w = _weiszfeld(all_points, all_weights, z0)
        z_star = _newton_polish(z_w, all_points, all_weights)
    if abs(z_star) <= 1e-9:
        # a vanishing multiplier is a slack constraint; its phase is noise
        z_star = 0.0 + 0.0j

    w = _recover_primal(z_star, s_hat, i_hat, eta_hat, cap)
    w = _feasibility_polish(w, i_hat, eta_hat, cap)
    w = _phase_align(w, h_sig)

    def certificate(w: np.ndarray, z: complex, dual: float, method: str) -> SolveInfo:
        # gap and violations on the normalized problem, bounds in original scaling
        primal = float(np.vdot(w, s_hat).real)
        gap = (dual - primal) / max(1.0, dual)
        int_viol = max(0.0, abs(np.vdot(w, i_hat)) - eta_hat)
        cap_viol = max(0.0, float(np.max(np.abs(w))) - cap)
        return SolveInfo(primal * sig_norm, dual * sig_norm, gap, int_viol, cap_viol, method, z)

    dual_hat = _dual_value(z_star, s_hat, i_hat, eta_hat, cap)
    info = certificate(w, z_star, dual_hat, "dual")
    if _certified(info):
        return w, info

    # fallback: primal-dual splitting on the normalized problem
    w_pd, z_pd = _pdhg(s_hat, i_hat, eta_hat, cap)
    w_pd = _feasibility_polish(w_pd, i_hat, eta_hat, cap)
    w_pd = _phase_align(w_pd, h_sig)
    dual_pd = min(dual_hat, _dual_value(z_pd, s_hat, i_hat, eta_hat, cap))
    info_pd = certificate(w_pd, z_pd, dual_pd, "pdhg")
    if _certified(info_pd):
        return w_pd, info_pd
    raise SolverError(
        f"subproblem not certified: gap={info.gap:.3e}/{info_pd.gap:.3e}, "
        f"feas={info.int_violation:.3e}/{info_pd.int_violation:.3e}"
    )


def solve_bf_subproblem(
    h_sig: np.ndarray, h_int: np.ndarray, eta: float, cap: float
) -> np.ndarray:
    """Certified maximizer of Re(w^H h_sig) under the interference and cap limits."""
    w, _ = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
    return w

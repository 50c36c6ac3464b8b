"""Exact solver for the per-array beamforming subproblem.

Each alternating step maximizes Re(w^H h_sig) subject to an interference cap
|w^H h_int| <= eta and per-element magnitude caps |w_n| <= cap. The solver
minimizes the dual

    D(z) = cap * sum_n |h_sig_n - z * h_int_n| + eta * |z|,   z complex,

a planar weighted Fermat-Weber problem whose minimizer is either one of the
ratio points h_sig_n / h_int_n, the origin, or a smooth stationary point.
The primal is recovered in closed form: every element saturates its cap
except (at most) those tied to the active ratio point, and a duality-gap
certificate is computed for every solve. If the recovery misses it, a
second at a looser residual tolerance lets elements whose residual is
rounding noise join the free group, and a z* within 1e-6 of the origin is
last tried as z = 0; a solve none certifies raises SolverError.

A kink within the kink test's tie tolerance (_TIE = 1e-12) of the origin is
the origin's kink and is snapped to z* = 0. One further out is a real
multiplier: zeroing it saturates that point's element along a noise phase,
which can miss the interference cap. A smooth minimizer is never snapped;
near the origin the z = 0 recovery stands in for it.

Bit identity. The seeded outputs of every trial are fixed, so the loops were
made cheaper without moving an output bit; each device below names the
BENCH_*.json that measured its gain. Reductions call the ufunc directly
(np.add.reduce gives the bits of np.sum on a 1-D operand), and np.max,
np.argmin, np.flatnonzero and np.linalg.norm give way to np.maximum.reduce,
the array methods and sqrt(re.re + im.im) (BENCH_12.json, BENCH_22.json; the
norm, BENCH_28.json). _kink_point (BENCH_11.json) and _weiszfeld
(BENCH_12.json) screen their exact tests. |s_hat| and |i_hat| are taken once
per solve (BENCH_15.json); the anchor residuals are one array, and each
recovery rung forms s_hat - z i_hat and its magnitude once (BENCH_25.json).
The matched filter and the anchor set-up mask out zero, subnormal, NaN and
non-carrier elements only where there are some (BENCH_22.json), and a
recovery masks only where some residual is within its tolerance, zero or NaN
(BENCH_25.json). The Weiszfeld loop writes into step arrays allocated once
per call (BENCH_15.json); w / d is the real part of a zeroed complex inv_c,
so the moment points * inv_c needs no cast (BENCH_22.json); and the iterate
and the sum pass through 0-d arrays, np.subtract(points, z_buf, diff) and
np.add.reduce(inv, 0, None, s_buf).item() (BENCH_27.json). These facts of
numpy 2.4.6 are relied on. A ufunc given an output array, 0-d included, runs
the inner loop of the expression that allocates its result. A 0-d complex128
holding a Python complex is the operand that complex becomes, .item()
returns the exact double, and np.complex128 / float divides by the value
np.float64 held. numpy has no complex x float64 loop: it casts x to (x,
+0.0) and runs the complex loop. np.abs of a complex array can differ by one
ulp from the scalar abs(z), libm hypot, so an array that must reproduce
abs(z) uses np.hypot. An elementwise ufunc gives an element the same bits
over a whole array as over a masked part of it. np.add.reduce sums a strided
1-D view, such as inv, in the order of a contiguous copy, and a reduction
along the last axis of a contiguous 2-D array gives each row the bits of
np.sum on that row. tests/test_solver.py pins the outputs of a seeded
battery by sha256.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

GAP_TOL = 1e-6  # relative duality-gap certificate
FEAS_TOL = 1e-8  # interference-constraint violation, normalized units
CAP_TOL = 1e-12  # per-element magnitude violation
_NORMAL_MIN = sys.float_info.min  # smallest normal float, np.finfo(float).tiny
_TIE = 1e-12  # relative distance at which two points, or a kink and the origin, tie
_WEISZFELD_ITERS = 200  # step cap of the geometric-median iteration
_NEWTON_ITERS = 60  # step cap of the Newton polish
_POLISH_ROUNDS = 12  # alternating projections of the feasibility polish
_ANCHOR_BLOCK = 2**16  # elements of the anchor residual table formed at once


class SolverError(RuntimeError):
    """No route produced a certified solution."""


@contextlib.contextmanager
def solver_error_context(where: str):
    """Prefix a SolverError raised within with where it happened."""
    try:
        yield
    except SolverError as exc:
        raise SolverError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class SolveInfo:
    """Certificate and diagnostics of one subproblem solve."""

    objective: float  # Re(w^H h_sig), original scaling
    dual_bound: float  # D(z*), original scaling; objective <= dual_bound up to rounding
    gap: float  # relative duality gap
    int_violation: float  # max(0, |w^H h_int| - eta), normalized units
    cap_violation: float  # max(0, max_n |w_n| - cap)
    method: str  # "shortcut" (matched filter) or "dual" (closed-form recovery)
    z_star: complex


def _phase_align(w: np.ndarray, h_sig: np.ndarray) -> np.ndarray:
    """Rotate w by a global phase so that w^H h_sig is real nonnegative."""
    c = complex(np.vdot(w, h_sig))
    if abs(c) == 0.0:
        return w
    return w * cmath.exp(1j * cmath.phase(c))


def _weiszfeld(points: np.ndarray, weights: np.ndarray, z0: complex) -> complex:
    """Modified Weiszfeld iteration for the weighted geometric median.

    A step whose iterate lies within tie = _TIE (1 + |z|) of an anchor steps
    off it; any other step is the weighted mean with weights w / d. The
    exact anchor test, fmin(d) <= tie, runs only on a step that the sum
    s = sum(w / d), which the mean needs anyway, does not rule out: a step
    with s < w_min / tie has no anchor within tie. Why: the weights are
    nonnegative, and division and addition round monotonically. If
    d_i <= tie, then fl(w_i / d_i) >= fl(w_i / tie) >= fl(w_min / tie), and
    a sum of nonnegative terms is at least each term, so
    s >= fl(w_min / tie). No error bound enters, so subnormal quotients
    and weights cannot break it. The screen is off, and every step takes
    the exact test, where a weight is zero (the threshold is 0) or NaN, or
    the iterate is NaN (the threshold is NaN). An anchor on the iterate
    puts inf or 0/0 into s, an anchor so near that w / d overflows puts
    inf, and a NaN point puts NaN, so such a step takes the exact test too.
    The warnings of those divisions are silenced, since every smooth start
    sits on an anchor (d = 0). A mean step whose sum is still below
    2**-1022 with the weights lifted by 2**512 cannot form its mean and
    raises SolverError. tests/oracles.py keeps the unscreened loop.
    """
    # fmin.reduce(d) <= tol is any(d <= tol) in one call: fmin skips NaN
    absolute, add, fmin = np.abs, np.add.reduce, np.fmin.reduce
    subtract, divide, multiply = np.subtract, np.divide, np.multiply
    w_min = float(np.minimum.reduce(weights))
    # each step writes into these (see "Bit identity" in the module docstring)
    diff, moment = np.empty_like(points), np.empty_like(points)
    d, inv_c = np.empty(points.shape), np.zeros(points.shape, dtype=complex)
    inv = inv_c.real
    s_buf, z_buf = np.empty(()), np.empty((), dtype=complex)
    z = z0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_WEISZFELD_ITERS):
            z_buf[()] = z
            subtract(points, z_buf, diff)
            absolute(diff, d)
            scale = 1.0 + abs(z)
            tie = _TIE * scale
            divide(weights, d, inv)
            s = add(inv, 0, None, s_buf).item()
            if not s < w_min / tie and fmin(d) <= tie:
                # sitting on an anchor: step off along the descent direction;
                # the anchors within the kink test's tie tolerance count as
                # one, else a near neighbour's 1/d weight pins the iterate to
                # the cluster
                on = d <= tie
                others = ~on
                if not others.any():
                    return z
                u = (z - points[others]) / d[others]
                r = complex(add(weights[others] * u))
                w_on = add(weights[on])
                if abs(r) <= w_on:
                    return z
                step = (abs(r) - w_on) / add(inv[others])
                z = z - (r / abs(r)) * step
                continue
            if s < _NORMAL_MIN:
                # complex / float division forms 1 / s, which overflows for a
                # subnormal s; the mean does not depend on the weights' scale,
                # and w / d <= s < 2**-1022 with d < 2**1024 keeps 2**512 w finite
                divide(weights * 2.0**512, d, inv)
                s = add(inv)
                if s < _NORMAL_MIN:
                    raise SolverError("Weiszfeld reciprocal sum underflows past the 2**512 rescale")
            multiply(points, inv_c, moment)
            z_new = complex(add(moment) / s)
            if abs(z_new - z) <= 1e-15 * scale:
                return z_new
            z = z_new
    return z


def _newton_polish(z: complex, points: np.ndarray, weights: np.ndarray) -> complex:
    """Damped Newton on the smooth Fermat-Weber objective near the optimum."""
    absolute, add = np.abs, np.add.reduce

    def value(zz: complex) -> float:
        return float(add(weights * absolute(points - zz)))

    grad_floor = 1e-15 * add(weights)
    f = value(z)
    for _ in range(_NEWTON_ITERS):
        d = z - points
        r = absolute(d)
        if np.fmin.reduce(r) < 1e-300:
            break
        u = d / r
        grad = complex(add(weights * u))
        if abs(grad) <= grad_floor:
            break
        # 2x2 Hessian of sum w*|z - p| in real coordinates
        ux, uy = u.real, u.imag
        wr = weights / r
        hxx, hyy, hxy = add(wr * (1.0 - ux * ux)), add(wr * (1.0 - uy * uy)), add(wr * -(ux * uy))
        det = hxx * hyy - hxy * hxy
        if det <= 0:
            break
        step = complex((hyy * grad.real - hxy * grad.imag) / det, (hxx * grad.imag - hxy * grad.real) / det)
        scale = 1.0
        for _ in range(40):
            z_try = z - scale * step
            if z_try == z:
                # rounding is monotone: every smaller step also lands on z
                return z
            f_try = value(z_try)
            if f_try < f:
                z, f = z_try, f_try
                break
            scale *= 0.5
        else:
            return z
    return z


def _kink_point(
    points: np.ndarray, weights: np.ndarray, mags: np.ndarray, d_vals: np.ndarray, drift: float
) -> complex | None:
    """First candidate, in index order, at which D has its minimum, or None.

    Exact test at candidate p: the points tied with p (within _TIE
    relative) must outweigh the pull of all the others,
    |sum_rest w u| <= w_same * (1 + 1e-12), u the unit vectors towards p.
    Nearly every dual solve has no such candidate, so a screen first drops
    every candidate whose value of D, ``d_vals[i]``, lies more than
    margin_i = 1e-9 * (sum(w) + drift + d_vals[k]) * (1 + |p_i| + |p_k|)
    above the best anchor's, k = argmin(d_vals). ``mags`` holds the |p_i|
    (np.hypot, shared with d_vals) and ``drift`` is cap * N.

    Why the screen is exact: let F(z) = sum_j w_j |z - p_j|. When the exact
    test accepts p_i, moving the points tied with p_i onto it changes F by
    at most sum(w) * tau_i, tau_i = 1e-12 (1 + |p_i|), and leaves a
    subgradient of norm at most 1e-12 sum(w) at p_i, so convexity gives
    F(p_i) - F(p_k) <= sum(w) * (2 tau_i + 1e-12 |p_i - p_k|). D differs
    from F + const in two ways. The non-carrier elements (|i_n| <= 1e-14)
    drift by at most cap * N * 1e-14 * |z|, and d_vals carries rounding of
    about N eps (cap sqrt(N) (1 + |z|) + D). Both lie far inside the margin
    for any N below 10^6. So the screen never drops a candidate the exact
    test accepts, and the exact test run on the survivors in index order
    returns what it returns alone.
    """
    k = int(d_vals.argmin())
    margin = 1e-9 * (np.add.reduce(weights) + drift + d_vals[k]) * (1.0 + mags + mags[k])
    for idx in (d_vals <= d_vals[k] + margin).nonzero()[0]:
        p = points[idx]
        same = np.abs(points - p) <= _TIE * (1.0 + abs(p))
        same[idx] = True
        # with every point tied to p the pull is an empty sum, 0
        rest = ~same
        toward = p - points[rest]
        u = toward / np.abs(toward)
        if abs(complex(np.add.reduce(weights[rest] * u))) <= np.add.reduce(weights[same]) * (1.0 + 1e-12):
            return p
    return None


def _fill_free_elements(
    w: np.ndarray, idx: np.ndarray, i_hat: np.ndarray, rhs: complex, cap: float
) -> None:
    """Greedy fill of residual-zero elements to move w^H i_hat by rhs.

    Elements are taken in decreasing interference magnitude, so at most one
    of them lands strictly inside its cap. A subnormal element would overflow
    both divisions: it saturates its cap, and an exact power of two lifts it
    for its phase, as in the matched filter.
    """
    remaining = abs(rhs)
    if remaining == 0.0 or idx.size == 0:
        return
    psi = cmath.phase(rhs)
    order = idx[np.argsort(-np.abs(i_hat[idx]))]
    for k in order:
        i_k = i_hat[k]
        if abs(i_k) < _NORMAL_MIN:
            mag, i_k = cap, i_k * 2.0**512
        else:
            mag = min(cap, remaining / abs(i_k))
        # conj(w_k) * i_hat_k contributes mag*|i_hat_k| at phase psi
        w[k] = mag * cmath.exp(-1j * psi) * i_k / abs(i_k)
        remaining -= mag * abs(i_hat[k])
        if remaining <= 0:
            break


def _recover_primal(
    z_star: complex, resid: np.ndarray, resid_mag: np.ndarray, s_mag: np.ndarray,
    i_hat: np.ndarray, i_mag: np.ndarray, eta: float, cap: float, tol: float,
) -> np.ndarray:
    """Closed-form primal from the dual minimizer.

    Elements whose residual ``resid`` = s_hat - z*i_hat is nonzero (above
    ``tol``, relative) saturate the cap along the residual phase; the
    residual-zero group absorbs the interference, filled greedily so at most
    one element stays strictly inside its cap. ``resid_mag``, ``s_mag`` and
    ``i_mag`` are |resid|, |s_hat| and |i_hat|.
    With z* nonzero the constraint is active at phase -arg(z*); with z* zero
    the constraint is slack at the optimum, so the free elements only cancel
    whatever leakage exceeds the cap eta.
    """
    # the absolute floor matters: on the normalized problem an element whose
    # residual is below tol contributes nothing to the objective but may
    # carry full interference-cancellation capacity
    floor = tol * np.maximum(s_mag + abs(z_star) * i_mag, 1.0)
    if np.logical_and.reduce(resid_mag > floor):
        # no free element and no zero residual: every element saturates
        return cap * resid / resid_mag
    w = np.zeros(resid.size, dtype=complex)
    active = resid_mag <= floor
    nz = ~active & (resid_mag > 0)
    w[nz] = cap * resid[nz] / resid_mag[nz]

    rest = complex(np.vdot(w, i_hat))
    if abs(z_star) == 0.0:
        if abs(rest) <= eta:
            return w
        target = eta * cmath.exp(1j * cmath.phase(rest))
    else:
        target = eta * cmath.exp(-1j * cmath.phase(z_star))
    idx = (active & (i_mag > 0)).nonzero()[0]
    _fill_free_elements(w, idx, i_hat, target - rest, cap)
    return w


def _clip_to_cap(w: np.ndarray, cap: float, slack: float = 0.0) -> np.ndarray:
    """Scale every element above cap * (1 + slack) back onto the cap circle."""
    mags = np.abs(w)
    over = mags > cap * (1.0 + slack)
    if np.logical_or.reduce(over):
        w = w.copy()
        w[over] *= cap / mags[over]
    return w


def _feasibility_polish(w: np.ndarray, i_hat: np.ndarray, eta: float, cap: float) -> np.ndarray:
    """Tiny alternating projections to clear rounding-level violations.

    The caller passes the unit-norm interference direction, so ``i_hat`` is
    never zero. When the rounds run out, the last step was an interference
    projection, which can push an element past its cap; a final clip runs
    only if the cap is then missed by more than CAP_TOL, so a solve that
    already meets it keeps its bits.
    """
    i_norm_sq = float(np.vdot(i_hat, i_hat).real)
    for _ in range(_POLISH_ROUNDS):
        w = _clip_to_cap(w, cap, slack=1e-15)
        s = complex(np.vdot(w, i_hat))
        if abs(s) <= eta * (1.0 + 1e-15) + 1e-15:
            return w
        gamma = s.conjugate() * (eta / abs(s) - 1.0) / i_norm_sq
        w = w + gamma * i_hat
    if float(np.maximum.reduce(np.abs(w))) - cap > CAP_TOL:
        w = _clip_to_cap(w, cap)
    return w


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

    sig_norm = math.sqrt(h_sig.real.dot(h_sig.real) + h_sig.imag.dot(h_sig.imag))
    int_norm = math.sqrt(h_int.real.dot(h_int.real) + h_int.imag.dot(h_int.imag))
    if sig_norm == 0.0:
        return np.zeros_like(h_sig), SolveInfo(0.0, 0.0, 0.0, 0.0, 0.0, "shortcut", 0j)
    s_hat = h_sig / sig_norm

    # matched constant-magnitude filter whenever it already meets the cap;
    # built from the raw channel so the closed form is recovered bit-exactly
    mag = np.abs(h_sig)
    mag_min = np.minimum.reduce(mag)
    if mag_min >= _NORMAL_MIN:
        w_mf = cap * h_sig / mag
    else:
        w_mf = np.zeros_like(h_sig)
        nz = mag > 0
        h_nz = h_sig[nz]
        if mag_min < _NORMAL_MIN:
            # a subnormal element would underflow cap * h to 0 (or overflow the
            # division); an exact power of two lifts it and leaves its phase alone
            h_nz[mag[nz] < _NORMAL_MIN] *= 2.0**512
        w_mf[nz] = cap * h_nz / np.abs(h_nz)
    if int_norm == 0.0 or abs(np.vdot(w_mf, h_int)) <= eta:
        obj = float(np.vdot(w_mf, h_sig).real)
        return w_mf, SolveInfo(obj, obj, 0.0, 0.0, 0.0, "shortcut", 0j)

    i_hat = h_int / int_norm
    eta_hat = eta / int_norm

    # dual route: minimize D over the ratio points, the origin, and the plane
    i_mag = np.abs(i_hat)
    s_c, i_c, mag_c = s_hat, i_hat, i_mag
    if not np.minimum.reduce(i_mag) > 1e-14:
        carriers = i_mag > 1e-14
        s_c, i_c, mag_c = s_hat[carriers], i_hat[carriers], i_mag[carriers]
    m = mag_c.size  # the carriers' ratio points and weights, then the origin's
    all_points, all_weights = np.zeros(m + 1, dtype=complex), np.empty(m + 1)
    np.divide(s_c, i_c, all_points[:m])
    np.multiply(cap, mag_c, all_weights[:m])
    all_weights[m] = eta_hat

    # D at every anchor, the table's rows formed a block at a time; hypot
    # gives the bits of a rung's abs(z)
    mags = np.hypot(all_points.real, all_points.imag)
    resid_sums = np.empty(m + 1)
    rows = max(1, _ANCHOR_BLOCK // h_sig.size)
    for lo in range(0, m + 1, rows):
        resid = np.multiply(all_points[lo:lo + rows, None], i_hat)
        np.subtract(s_hat, resid, resid)
        resid_sums[lo:lo + rows] = np.add.reduce(np.abs(resid), axis=1)
    d_vals = cap * resid_sums + eta_hat * mags
    z_star = _kink_point(all_points, all_weights, mags, d_vals, cap * h_sig.size)
    if z_star is None:
        # start from the best anchor
        z0 = all_points[int(d_vals.argmin())]
        z_w = _weiszfeld(all_points, all_weights, z0)
        z_star = _newton_polish(z_w, all_points, all_weights)
    elif abs(z_star) <= _TIE:
        # the origin's kink: a slack constraint (see the module docstring)
        z_star = 0.0 + 0.0j

    # z* is fixed only to the rounding of D, so the residual phase of an
    # element whose ratio point lies as close to z* is noise. A smooth z* at
    # a distance r from a cluster of ratio points is fixed only to about
    # sqrt(eps * r), a phase error of sqrt(eps / r) seen from the cluster, so
    # the second recovery frees every element within 1e-6, at an objective
    # cost of at most 2 * cap * their residuals. For z* that close to the
    # origin the last takes the constraint's phase -arg(z*) as noise too:
    # z = 0 recovers a slack constraint, and D(0) exceeds D(z*) by at most
    # (sum of the weights) * |z*|
    rungs = [(z_star, 1e-12), (z_star, 1e-6)]
    if 0.0 < abs(z_star) <= 1e-6:
        rungs.append((0j, 1e-6))
    s_mag = np.abs(s_hat)
    for z, tol in rungs:
        resid = s_hat - z * i_hat
        resid_mag = np.abs(resid)
        dual_hat = cap * float(np.add.reduce(resid_mag)) + eta_hat * abs(z)
        w = _recover_primal(z, resid, resid_mag, s_mag, i_hat, i_mag, eta_hat, cap, tol)
        w = _feasibility_polish(w, i_hat, eta_hat, cap)
        w = _phase_align(w, h_sig)
        # gap and violations on the normalized problem, bounds in original scaling
        primal = float(np.vdot(w, s_hat).real)
        info = SolveInfo(
            primal * sig_norm, dual_hat * sig_norm, (dual_hat - primal) / max(1.0, dual_hat),
            max(0.0, abs(np.vdot(w, i_hat)) - eta_hat),
            max(0.0, float(np.maximum.reduce(np.abs(w))) - cap), "dual", z,
        )
        if _certified(info):
            return w, info
    raise SolverError(
        f"subproblem not certified: gap={info.gap:.3e}, feas={info.int_violation:.3e}"
    )


def solve_bf_subproblem(
    h_sig: np.ndarray, h_int: np.ndarray, eta: float, cap: float
) -> np.ndarray:
    """Certified maximizer of Re(w^H h_sig) under the interference and cap limits."""
    w, _ = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
    return w

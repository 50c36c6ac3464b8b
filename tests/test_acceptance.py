"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS line; a failed assertion is the FAIL line. The
criteria cover closed-form-versus-oracle equivalence, the subproblem solver,
the Monte Carlo reproductions, benchmark ordering, sweep monotonicity,
misalignment robustness, and bit-exact replay.
"""

import math
import time

import numpy as np
import pytest

from fdrelay.beamforming import cm_repair, interior_census
from fdrelay.channel import (
    AngleSet,
    EnvParams,
    EnvironmentRealization,
    UpaSpec,
    Vec3,
    build_links,
    los_path_gain,
    steering_vector,
)
from fdrelay.harness import (
    SCHEMES,
    Scenario,
    SweepSpec,
    apply_sweep_value,
    run_sweep,
    run_trials,
)
from fdrelay.positioning import FeasibleBox, LinkBudget, conditional_optimal_position
from fdrelay.rates import EffectiveGains, achievable_rates, optimal_powers
from fdrelay.solver import solve_bf_subproblem_report
from oracles import n2_dense_best, power_grid_best_min_rate, rho_grid_argmax

TABLE1 = Scenario(trials=200, master_seed=0)


@pytest.fixture(scope="session")
def table1_results():
    return run_trials(TABLE1)


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def test_acceptance_01_positioning_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        n1 = int(rng.choice([16, 64, 256, 1024]))
        n2 = int(rng.choice([16, 64, 256, 1024]))
        p_s = 10.0 ** rng.uniform(-3, 0)
        p_v = 10.0 ** rng.uniform(-3, 0)
        noise1 = 10.0 ** rng.uniform(-15, -12)
        noise2 = 10.0 ** rng.uniform(-15, -12)
        dn = Vec3(rng.uniform(20, 1000), rng.uniform(20, 1000), 0.0)
        h_min = rng.uniform(50, 300)
        alpha = rng.uniform(1.6, 3.0)
        budget = LinkBudget(
            n_s2v=n1, n_v2d=n2, p_s_tot=p_s, p_v_tot=p_v, noise1=noise1, noise2=noise2
        )
        box = FeasibleBox(dn.x, dn.y, h_min, h_min + 100.0)
        env = EnvParams(alpha_los=alpha, alpha_nlos=3.3)
        _, rho = conditional_optimal_position(budget, box, env, dn)
        rho_ref = rho_grid_argmax(
            q_s=n1 * p_s / noise1,
            q_v=n2 * p_v / noise2,
            d_horiz=math.hypot(dn.x, dn.y),
            h=h_min,
            alpha=alpha,
            step=1e-5,
        )
        worst = max(worst, abs(rho - rho_ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 2e-5, f"closed-form/grid disagreement {worst:.3e}"
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 01: PASS (worst |rho diff| {worst:.2e}, {elapsed:.1f}s)")


def test_acceptance_02_power_control_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271)
    cap_s = cap_v = 0.1
    noise1 = noise2 = 1e-14
    checked_equal = 0
    for _ in range(100):
        gains = EffectiveGains(
            g_s2v=10.0 ** rng.uniform(-12, -4),
            g_si=10.0 ** rng.uniform(-18, -8),
            g_v2d=10.0 ** rng.uniform(-12, -4),
            g_s2d=10.0 ** rng.uniform(-22, -12),
        )
        powers = optimal_powers(gains, cap_s, cap_v, noise1, noise2)
        r1, r2, rmin = achievable_rates(gains, powers, noise1, noise2)
        grid_best = power_grid_best_min_rate(
            gains.g_s2v, gains.g_si, gains.g_v2d, gains.g_s2d,
            cap_s, cap_v, noise1, noise2, grid=200,
        )
        assert rmin >= grid_best - 1e-9, f"closed form {rmin} below grid {grid_best}"
        interior = (0.0 < powers.p_s < cap_s) or (0.0 < powers.p_v < cap_v)
        at_cap = powers.p_s == cap_s or powers.p_v == cap_v
        if interior and at_cap and min(powers.p_s, powers.p_v) < min(cap_s, cap_v):
            assert abs(r1 - r2) <= 1e-9, f"unclamped rates differ by {abs(r1 - r2)}"
            checked_equal += 1
    elapsed = time.perf_counter() - t0
    assert checked_equal > 0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 02: PASS ({checked_equal} equalized pairs, {elapsed:.1f}s)")


def test_acceptance_03_subproblem_solver_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    cap = 1.0 / math.sqrt(2)
    worst = 0.0
    shortcut_seen = 0
    for _ in range(50):
        h_sig = rng.normal(size=2) + 1j * rng.normal(size=2)
        h_int = rng.normal(size=2) + 1j * rng.normal(size=2)
        mf_leak = cap * float(np.sum(np.abs(h_int)))
        eta = rng.uniform(0.02, 1.2) * mf_leak
        w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert info.int_violation <= 1e-8, f"constraint violated by {info.int_violation}"
        mine = float(np.vdot(w, h_sig).real)
        oracle = n2_dense_best(h_sig, h_int, eta, cap)
        worst = max(worst, abs(mine - oracle))
        if info.method == "shortcut":
            shortcut_seen += 1
            expected = cap * h_sig / np.abs(h_sig)
            assert np.array_equal(w, expected), "inactive-constraint optimum not exact"
    assert shortcut_seen > 0, "no instance exercised the inactive-constraint path"
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4, f"dense-oracle disagreement {worst:.3e}"
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 03: PASS (worst objective diff {worst:.2e}, "
        f"{shortcut_seen} matched-filter cases, {elapsed:.1f}s)"
    )


def test_acceptance_04_mean_rate_near_strict_bound(table1_results):
    prop, _ = _mean_se([r.rates["proposed"] for r in table1_results])
    bound, _ = _mean_se([r.strict_bound_min for r in table1_results])
    gap = bound - prop
    assert gap >= -1e-9, "proposed rate exceeds its upper bound"
    assert gap <= 0.5, f"mean gap to strict bound {gap:.3f} bps/Hz"
    print(f"ACCEPTANCE 04: PASS (mean gap {gap:.3f} bps/Hz over 200 trials)")


def test_acceptance_05_iterations_bounded_across_relay_power():
    means = {}
    for dbm in (10.0, 20.0, 30.0):
        scenario = apply_sweep_value(
            Scenario(trials=50, master_seed=0), "p_v_tot_dbm", dbm
        )
        results = run_trials(scenario)
        means[dbm] = float(np.mean([r.iters["proposed"] for r in results]))
        assert means[dbm] <= 10.0, f"mean iterations {means[dbm]:.2f} at {dbm} dBm"
    summary = ", ".join(f"{k:.0f} dBm: {v:.2f}" for k, v in means.items())
    print(f"ACCEPTANCE 05: PASS (mean iterations {summary})")


def test_acceptance_06_si_gain_trace_convergence(table1_results):
    eta_sq = TABLE1.schedule.eta_floor**2
    worst_final = 0.0
    for r in table1_results:
        trace = r.si_gain_trace
        for a, b in zip(trace[1:], trace[2:]):
            assert b <= a * (1 + 1e-9), f"trial {r.trial_index}: SI gain rose {a} -> {b}"
        assert trace[-1] <= 10.0 * eta_sq, (
            f"trial {r.trial_index}: final SI gain {trace[-1]:.3e} above 10*eta^2"
        )
        worst_final = max(worst_final, trace[-1])
    print(
        f"ACCEPTANCE 06: PASS (worst final SI gain {worst_final:.2e} "
        f"vs limit {10 * eta_sq:.2e})"
    )


def test_acceptance_07_benchmark_ordering(table1_results):
    prop = np.array([r.rates["proposed"] for r in table1_results])
    for name in ("despos_steer", "randpos_ais"):
        bench = np.array([r.rates[name] for r in table1_results])
        diff = prop - bench
        mean, se = _mean_se(diff)
        assert mean >= -2.0 * se, f"proposed statistically worse than {name}"
    print("ACCEPTANCE 07: PASS (proposed >= both benchmarks on 200 paired trials)")


def test_acceptance_08_distance_sweep_monotonicity():
    stats: dict[str, list[tuple[float, float]]] = {s: [] for s in SCHEMES}
    for dist in (200.0, 400.0, 600.0, 800.0):
        scenario = apply_sweep_value(Scenario(trials=100, master_seed=0), "distance_m", dist)
        results = run_trials(scenario)
        for scheme in SCHEMES:
            stats[scheme].append(_mean_se([r.rates[scheme] for r in results]))
    for scheme, rows in stats.items():
        for (m1, s1), (m2, s2) in zip(rows, rows[1:]):
            slack = 2.0 * math.hypot(s1, s2)
            assert m2 < m1 + slack, f"{scheme} rate did not decrease: {m1} -> {m2}"
    print("ACCEPTANCE 08: PASS (all schemes decay over 200-800 m)")


def test_acceptance_09_misalignment_robustness():
    stats = []
    for delta in (0.0, 1.0, 10.0, 20.0):
        scenario = apply_sweep_value(Scenario(trials=100, master_seed=0), "delta_m_deg", delta)
        results = run_trials(scenario)
        stats.append(_mean_se([r.rates["proposed"] for r in results]))
    ratio = stats[2][0] / stats[0][0]
    assert ratio >= 0.8, f"rate at 10 degrees fell to {ratio:.3f} of aligned"
    for (m1, s1), (m2, s2) in zip(stats, stats[1:]):
        slack = 2.0 * math.hypot(s1, s2)
        assert m2 <= m1 + slack, f"rate rose with misalignment: {m1} -> {m2}"
    print(f"ACCEPTANCE 09: PASS (10-degree ratio {ratio:.3f}, non-increasing)")


class _AlwaysLos(EnvironmentRealization):
    def los_indicator(self, role, ground, uav):
        return True


def test_acceptance_10_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # steering-vector identities
    for _ in range(20):
        upa = UpaSpec(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        angles = AngleSet(rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(0, 2 * math.pi))
        a = steering_vector(upa, angles)
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12
        assert np.linalg.norm(a) ** 2 == pytest.approx(upa.n_tot, rel=1e-12)
        assert a[0] == 1.0 + 0.0j

    # full array gain under matched beamforming on a pure LoS link
    env = EnvParams(num_nlos=0)
    real = _AlwaysLos(env, master_seed=0, trial_index=0)
    sn, dn, uav = Vec3(0, 0, 0), Vec3(400, 300, 0), Vec3(200, 150, 100)
    upa = UpaSpec(4, 4)
    links = build_links(real, dn, uav, upa, upa, upa, upa)
    n = upa.n_tot
    a_dep = steering_vector(upa, links.s2v_angles) / math.sqrt(n)
    a_arr = steering_vector(upa, links.s2v_angles) / math.sqrt(n)
    got = abs(np.vdot(a_arr, links.s2v.entries @ a_dep)) ** 2
    beta = los_path_gain(sn.distance_to(uav), env)
    assert got == pytest.approx(beta**2 * n * n, rel=1e-12)

    # repair preserves both inner products and reports the census
    cap = 1.0 / math.sqrt(8)
    for _ in range(20):
        h_sig = rng.normal(size=8) + 1j * rng.normal(size=8)
        ratio = complex(rng.normal(), rng.normal())
        h_int = ratio * h_sig
        w = (
            rng.uniform(0.05, 1.0, size=8)
            * cap
            * np.exp(1j * rng.uniform(0, 2 * math.pi, size=8))
        )
        before_sig = np.vdot(w, h_sig)
        before_int = np.vdot(w, h_int)
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert abs(np.vdot(out, h_sig) - before_sig) <= 1e-9
        assert abs(np.vdot(out, h_int) - before_int) <= 1e-9
        assert rep.interior_before == interior_census(w, cap)
        assert rep.interior_after == interior_census(out, cap)
        assert rep.interior_after <= 1

    # seeded bit-exact replay of a full sweep
    spec = SweepSpec(
        param="delta_m_deg",
        values=(0.0, 10.0),
        base=Scenario(trials=3, master_seed=5),
    )
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    assert rows1 == rows2

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 10 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10: PASS (invariants and bit-exact replay, {elapsed:.1f}s)")

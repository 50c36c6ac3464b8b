import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fdrelay.beamforming as beamforming
from fdrelay.beamforming import (
    CM_TOL,
    SuppressionSchedule,
    ais_iterate,
    cm_repair,
    eta_floor_rule,
    initial_state,
    interior_census,
    normalize_cm,
    run_ais,
)
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
from fdrelay.positioning import LinkBudget

ENV = EnvParams()
UPA4 = UpaSpec(4, 4)
SN = Vec3(0.0, 0.0, 0.0)
DN = Vec3(400.0, 300.0, 0.0)
UAV = Vec3(200.0, 150.0, 100.0)


class _AlwaysLos(EnvironmentRealization):
    def los_indicator(self, role, ground, uav):
        return True


def _budget():
    n = UPA4.n_tot
    return LinkBudget(
        n_s2v=n * n, n_v2d=n * n, p_s_tot=0.1, p_v_tot=0.1, noise1=1e-14, noise2=1e-14
    )


def _on_cap(w, cap=None):
    """Every element on the cap circle, 1/sqrt(N) unless given: none inside
    it and none above it."""
    cap = 1.0 / math.sqrt(w.size) if cap is None else cap
    return interior_census(w, cap) == 0 and np.max(np.abs(w)) <= cap + CM_TOL


def _schedule():
    return SuppressionSchedule(eta_floor=eta_floor_rule(0.1, 0.1, 1e-14, 1e-14), kappa=10)


def _links(master_seed=7, trial=0, realization_cls=EnvironmentRealization, env=ENV):
    real = realization_cls(env, master_seed=master_seed, trial_index=trial)
    return build_links(real, DN, UAV, UPA4, UPA4, UPA4, UPA4)


def _run_ais(links, eps_r=0.01, max_iters=50):
    """run_ais from the steering-vector start."""
    start = initial_state(links, _budget(), _schedule())
    return run_ais(start, links, _budget(), eps_r, max_iters)


class TestSchedule:
    def test_eta_floor_rule_value(self):
        assert eta_floor_rule(0.1, 0.1, 1e-14, 1e-14) == 3.1622776601683795e-8

    def test_eta_floor_rule_takes_minimum(self):
        assert eta_floor_rule(0.1, 10.0, 1e-14, 1e-14) == eta_floor_rule(
            10.0, 0.1, 1e-14, 1e-14
        )
        assert eta_floor_rule(0.1, 10.0, 1e-14, 1e-14) < eta_floor_rule(
            0.1, 0.1, 1e-14, 1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SuppressionSchedule(eta_floor=-1e-9, kappa=10)
        with pytest.raises(ValueError):
            SuppressionSchedule(eta_floor=0.0, kappa=1.0)
        with pytest.raises(ValueError):
            SuppressionSchedule(eta_floor=0.0, kappa=10, mu_si=-0.1)


class TestInitBeamformers:
    def test_scaled_steering_vectors(self):
        s2v = AngleSet(0.4, 1.1)
        v2d = AngleSet(0.2, 5.0)
        links = replace(_links(), s2v_angles=s2v, v2d_angles=v2d)
        state = initial_state(links, _budget(), _schedule())
        w_s, w_r, w_t, w_d = state.w_s, state.w_r, state.w_t, state.w_d
        n = UPA4.n_tot
        assert np.allclose(w_s, steering_vector(UPA4, s2v) / math.sqrt(n))
        assert np.allclose(w_r, steering_vector(UPA4, s2v) / math.sqrt(n))
        assert np.allclose(w_t, steering_vector(UPA4, v2d) / math.sqrt(n))
        assert np.allclose(w_d, steering_vector(UPA4, v2d) / math.sqrt(n))
        assert all(_on_cap(bf) for bf in (w_s, w_r, w_t, w_d))

    def test_full_array_gain_on_pure_los_link(self):
        env = EnvParams(num_nlos=0)
        links = _links(realization_cls=_AlwaysLos, env=env)
        state = initial_state(links, _budget(), _schedule())
        w_s, w_r = state.w_s, state.w_r
        got = abs(np.vdot(w_r, links.s2v.entries @ w_s)) ** 2
        beta = los_path_gain(SN.distance_to(UAV), env)
        want = abs(beta) ** 2 * UPA4.n_tot * UPA4.n_tot
        assert got == pytest.approx(want, rel=1e-12)


class TestNormalizeCm:
    def test_all_elements_land_on_cap(self, rng):
        cap = 0.25
        w = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = normalize_cm(w, cap)
        assert np.max(np.abs(np.abs(out) - cap)) <= 1e-15
        assert _on_cap(out, cap)

    def test_phases_preserved(self, rng):
        cap = 0.5
        w = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = normalize_cm(w, cap)
        assert np.allclose(np.angle(out), np.angle(w))

    def test_zero_maps_to_real_cap(self):
        out = normalize_cm(np.array([0j, 1j]), 0.5)
        assert out[0] == 0.5 + 0j
        assert out[1] == pytest.approx(0.5j)

    def test_already_cm_unchanged(self):
        cap = 1.0 / math.sqrt(4)
        w = cap * np.exp(1j * np.array([0.0, 0.5, 1.5, -2.2]))
        out = normalize_cm(w, cap)
        assert np.allclose(out, w, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("w", [
        [0j, 1j, -0.0 + 0j, 3 - 4j],
        # subnormal magnitudes down to 2**-1023, where 1 / |w| is still finite
        [1e-308 + 0j, 6e-309 + 8e-309j, -1.5e-308j, 2.0**-1023 + 0j],
        [complex("nan+1j"), complex(1.0, float("nan")), complex("nan"), 1 + 1j],
        list(np.random.default_rng(3).normal(size=(16, 2)) @ [1, 1j]),
    ], ids=["zero", "subnormal", "nan", "zero_free"])
    def test_matches_the_mask_formula(self, w):
        # the bits of writing cap * w / |w| through a mask, |w| > 0, over a cap fill
        w, cap = np.array(w), 0.5
        mags = np.abs(w)
        ref = np.full(w.shape, cap + 0j)
        nz = mags > 0
        ref[nz] = cap * w[nz] / mags[nz]
        assert normalize_cm(w, cap).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("w", [
        [1e-320 + 0j],
        # 1 / |w| overflows from 2**-1024 down; the element above keeps the
        # mask formula's bits
        [2.0**-1024 * 1j, 5e-324 - 5e-324j, -(2.0**-1023) + 0j],
    ], ids=["single", "mixed"])
    def test_elements_whose_division_overflows_land_on_cap(self, w):
        w, cap = np.array(w), 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_cm(w, cap)
        assert np.max(np.abs(np.abs(out) - cap)) <= 1e-15
        assert np.array_equal(np.angle(out), np.angle(w))
        keep = np.abs(w) > 2.0**-1024
        assert out[keep].tobytes() == (cap * w[keep] / np.abs(w[keep])).tobytes()


class TestInteriorCensus:
    def test_counts_strict_interior(self):
        cap = 0.5
        w = np.array([0.5, 0.3 + 0.1j, 0.5j, 0.0])
        assert interior_census(w, cap) == 2

    def test_tolerance_excludes_near_cap(self):
        cap = 0.5
        w = np.array([cap - 1e-12 + 0j])
        assert interior_census(w, cap) == 0


class TestCmRepair:
    def _ratio_channels(self, n, rng, ratio=0.3 + 0.4j):
        h_sig = rng.normal(size=n) + 1j * rng.normal(size=n)
        h_int = ratio * h_sig
        return h_sig, h_int

    def test_triangle_case_preserves_inner_products(self, rng):
        # two interior elements whose combined contribution can be re-phased
        # with both elements pushed onto the cap circle
        cap = 0.5
        h_sig, h_int = self._ratio_channels(4, rng)
        w = np.array([cap, 0.2 * cap, 0.3 * cap * 1j, cap], dtype=complex)
        before_sig = np.vdot(w, h_sig)
        before_int = np.vdot(w, h_int)
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert np.vdot(out, h_sig) == pytest.approx(before_sig, abs=1e-9)
        assert np.vdot(out, h_int) == pytest.approx(before_int, abs=1e-9)
        assert rep.interior_before == 2
        assert rep.interior_after <= 1
        assert rep.pairs_repaired >= 1

    def test_short_contribution_leaves_one_interior(self, rng):
        # both weights tiny: the pair contribution is too short for both
        # elements to sit on the cap, so exactly one stays interior
        cap = 0.5
        h_sig, h_int = self._ratio_channels(2, rng)
        w = np.array([1e-3 * cap, 1e-3 * cap * 1j], dtype=complex)
        before_sig = np.vdot(w, h_sig)
        before_int = np.vdot(w, h_int)
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert np.vdot(out, h_sig) == pytest.approx(before_sig, abs=1e-9)
        assert np.vdot(out, h_int) == pytest.approx(before_int, abs=1e-9)
        assert rep.interior_after == 1
        assert np.sum(np.abs(np.abs(out) - cap) <= 1e-12) >= 1

    def test_non_ratio_pair_skipped(self, rng):
        cap = 0.5
        h_sig = np.array([1.0 + 0j, 1.0 + 0j])
        h_int = np.array([0.5 + 0j, -0.5 + 0.7j])  # not proportional
        w = np.array([0.1 + 0j, 0.1j])
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert rep.pairs_repaired == 0
        assert rep.pairs_skipped == 1
        assert rep.interior_after == rep.interior_before == 2
        assert np.array_equal(out, w)

    def test_no_interior_is_noop(self, rng):
        cap = 0.5
        h_sig, h_int = self._ratio_channels(3, rng)
        w = cap * np.exp(1j * rng.uniform(0, 2 * math.pi, size=3))
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert np.array_equal(out, w)
        assert rep.pairs_repaired == 0 and rep.interior_before == 0

    def test_degenerate_triangle_puts_both_on_the_cap(self):
        # a zero contribution of two equal-magnitude entries: the pair lands
        # anti-aligned on the cap and its contribution stays zero
        cap = 0.5
        w1, w2 = beamforming._repair_pair(0j, 0j, 1, 1j, cap)
        assert abs(w1) == pytest.approx(cap, abs=1e-15)
        assert abs(w2) == pytest.approx(cap, abs=1e-15)
        assert abs(w1.conjugate() * 1 + w2.conjugate() * 1j) <= 1e-15 * cap

    def test_skipped_pair_is_not_retested(self, monkeypatch):
        # elements 0 and 2 share the ratio 0.3, element 1 does not: (0, 1) is
        # skipped, the short (0, 2) repair leaves element 0 interior, and the
        # next sweep passes (0, 1) by without a second ratio test
        cap = 0.5
        h_sig = np.array([2.0, 1.0, 1.0], dtype=complex)
        h_int = np.array([0.6, -0.5 + 0.7j, 0.3])
        w = 1e-3 * cap * np.array([1.0, 1.0, 1j])
        tested = []
        ratio = beamforming._constant_ratio
        monkeypatch.setattr(
            beamforming, "_constant_ratio", lambda *a: tested.append(a) or ratio(*a)
        )
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert len(tested) == 2
        assert rep.pairs_repaired == 1 and rep.pairs_skipped == 1
        assert rep.interior_before == 3 and rep.interior_after == 2
        assert abs(out[0]) < cap - CM_TOL and abs(out[2]) == pytest.approx(cap, abs=1e-15)
        assert out[1] == w[1]
        assert np.vdot(out, h_sig) == pytest.approx(np.vdot(w, h_sig), abs=1e-15)
        assert np.vdot(out, h_int) == pytest.approx(np.vdot(w, h_int), abs=1e-15)

    def test_many_interior_reduced_to_at_most_one(self, rng):
        cap = 1.0 / math.sqrt(8)
        h_sig, h_int = self._ratio_channels(8, rng)
        w = rng.uniform(0.1, 0.9, size=8) * cap * np.exp(
            1j * rng.uniform(0, 2 * math.pi, size=8)
        )
        before_sig = np.vdot(w, h_sig)
        before_int = np.vdot(w, h_int)
        out, rep = cm_repair(w, h_sig, h_int, cap)
        assert rep.interior_after <= 1
        assert np.vdot(out, h_sig) == pytest.approx(before_sig, abs=1e-9)
        assert np.vdot(out, h_int) == pytest.approx(before_int, abs=1e-9)
        assert np.max(np.abs(out)) <= cap + 1e-12


class TestInitialState:
    def test_invariants(self):
        links = _links()
        state = initial_state(links, _budget(), _schedule())
        assert state.k == 0
        assert len(state.trace) == 1
        assert all(_on_cap(bf) for bf in (state.w_s, state.w_r, state.w_t, state.w_d))
        mu_si = abs(np.vdot(state.w_r, links.si.entries @ state.w_t))
        mu_s2d = abs(np.vdot(state.w_d, links.s2d.entries @ state.w_s))
        assert state.schedule.mu_si == pytest.approx(mu_si)
        assert state.schedule.mu_s2d == pytest.approx(mu_s2d)
        assert state.powers == state.trace[0].powers
        assert state.trace[0].rate > 0


class TestAisIterate:
    def test_one_pass_bookkeeping(self):
        links = _links()
        budget = _budget()
        s0 = initial_state(links, budget, _schedule())
        s1 = ais_iterate(s0, links, budget)
        assert s1.k == 1
        assert s1.trace[0] is s0.trace[0]
        assert len(s1.trace) == 2
        kappa = s0.schedule.kappa
        assert s1.schedule.mu_si == (s0.schedule.mu_si / kappa) / kappa
        assert s1.schedule.mu_s2d == (s0.schedule.mu_s2d / kappa) / kappa
        assert all(_on_cap(bf) for bf in (s1.w_s, s1.w_r, s1.w_t, s1.w_d))

    def test_each_solve_takes_its_arrays_cap(self, monkeypatch):
        # each array's cap is 1/sqrt(N) of its own size, the double that
        # scales its steering start
        upa_s, upa_r, upa_t, upa_d = UpaSpec(2, 3), UpaSpec(4, 4), UpaSpec(3, 3), UpaSpec(1, 5)
        real = EnvironmentRealization(ENV, master_seed=7, trial_index=0)
        links = build_links(real, DN, UAV, upa_s, upa_r, upa_t, upa_d)
        budget = LinkBudget(
            n_s2v=6 * 16, n_v2d=9 * 5, p_s_tot=0.1, p_v_tot=0.1, noise1=1e-14, noise2=1e-14
        )
        seen = []
        solve = beamforming.solve_bf_subproblem

        def spy(h_sig, h_int, eta, cap):
            seen.append((h_sig.size, cap))
            return solve(h_sig, h_int, eta, cap)

        monkeypatch.setattr(beamforming, "solve_bf_subproblem", spy)
        s1 = ais_iterate(initial_state(links, budget, _schedule()), links, budget)
        # solved in the order w_r, w_t, w_s, w_d
        assert seen == [(n, 1.0 / math.sqrt(n)) for n in (16, 9, 6, 5)]
        assert all(_on_cap(w) for w in (s1.w_s, s1.w_r, s1.w_t, s1.w_d))

    def test_zero_interference_channels_give_matched_filters(self):
        # with the SI and direct channels nulled the caps are slack, so every
        # subproblem reduces to the matched filter of its signal product
        links = _links()
        links0 = replace(
            links,
            s2d=replace(links.s2d, entries=np.zeros_like(links.s2d.entries), components=()),
            si=replace(links.si, entries=np.zeros_like(links.si.entries)),
        )
        budget = _budget()
        s0 = initial_state(links0, budget, _schedule())
        s1 = ais_iterate(s0, links0, budget)
        cap = 1.0 / math.sqrt(UPA4.n_tot)
        want_r = cap * np.exp(1j * np.angle(links.s2v.entries @ s0.w_s))
        assert np.allclose(s1.w_r, want_r, atol=1e-12)
        assert s1.trace[-1].gains.g_si == 0.0
        assert s1.trace[-1].gains.g_s2d == 0.0


class TestRunAis:
    def test_stop_rule_and_monotone_tail(self):
        links = _links()
        state = _run_ais(links, eps_r=0.01, max_iters=50)
        assert 1 <= state.k <= 50
        if state.k < 50:
            assert state.trace[-1].rate - state.trace[-2].rate <= 0.01
        # the suppression caps force the SI gain down each pass after the first
        si_trace = [p.gains.g_si for p in state.trace]
        for a, b in zip(si_trace[1:], si_trace[2:]):
            assert b <= a * (1 + 1e-9)

    def test_converged_rate_beats_start(self):
        links = _links()
        state = _run_ais(links)
        assert state.trace[-1].rate >= state.trace[0].rate

    def test_max_iters_respected(self):
        links = _links()
        state = _run_ais(links, eps_r=1e-12, max_iters=3)
        assert state.k == 3

    def test_validation(self):
        links = _links()
        with pytest.raises(ValueError):
            _run_ais(links, eps_r=0.0)
        with pytest.raises(ValueError):
            _run_ais(links, max_iters=0)

import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdrelay.solver as solver
from fdrelay import config, harness
from trialbench.workloads import WORKLOADS
from fdrelay.solver import (
    CAP_TOL,
    FEAS_TOL,
    GAP_TOL,
    SolverError,
    solve_bf_subproblem,
    solve_bf_subproblem_report,
)
from oracles import kink_point, n2_dense_best, recover_primal, weiszfeld
from solver_corpus import (
    FUZZ_FAMILIES,
    NAMED,
    capture,
    failures,
    from_flat,
    fuzz_cases,
    instance,
    solve_recorded,
)

complex_arrays = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-2, 2), min_size=2 * n, max_size=2 * n),
        st.lists(st.floats(-2, 2), min_size=2 * n, max_size=2 * n),
        st.floats(0.01, 1.0),
    )
)


class TestCertificates:
    @pytest.mark.parametrize("n", [2, 4, 16, 32])
    def test_random_instances_certify(self, rng, n):
        cap = 1.0 / math.sqrt(n)
        for _ in range(25):
            h_sig, h_int = instance(rng, n)
            mf_leak = cap * np.sum(np.abs(h_int))
            eta = rng.uniform(0.01, 1.1) * mf_leak
            w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            assert info.gap <= GAP_TOL
            assert info.int_violation <= FEAS_TOL
            assert info.cap_violation <= CAP_TOL
            assert np.all(np.abs(w) <= cap + 1e-9)
            obj = np.vdot(w, h_sig)
            assert obj.imag == pytest.approx(0.0, abs=1e-9 * (1 + abs(obj)))
            assert obj.real >= -1e-12

    def test_matched_filter_when_constraint_slack(self, rng):
        n = 8
        cap = 1.0 / math.sqrt(n)
        h_sig, h_int = instance(rng, n)
        eta = cap * np.sum(np.abs(h_int)) * 1.001
        w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert info.method == "shortcut"
        expected = cap * np.exp(1j * np.angle(h_sig))
        assert np.allclose(w, expected, atol=1e-12)
        assert np.vdot(w, h_sig).real == pytest.approx(
            cap * np.sum(np.abs(h_sig)), rel=1e-12
        )

    def test_matched_filter_of_subnormal_element(self):
        # cap * h underflows to 0 for h = 5e-324(1 + j), and 0 / |h| is NaN
        # in numpy's complex division, unless the element is rescaled first
        h_sig = np.array([5e-324 + 5e-324j, 1.0, 0.5j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, info = solve_bf_subproblem_report(h_sig, np.ones(3, complex), 5.0, 0.25)
        assert info.method == "shortcut"
        assert w[0] == pytest.approx(0.25 * np.exp(0.25j * np.pi), abs=1e-15)
        assert w[1] == 0.25 and w[2] == 0.25j

    def test_subnormal_interference_element_certifies(self):
        # the free-element fill divided by |i_hat_0| ~ 1.6e-311 and overflowed,
        # which left a NaN gap; with i_hat_0 = 0 the same solve certifies
        infos = []
        for name in ("subnormal_h_int", "zeroed_h_int"):
            h_sig, h_int, eta, cap = NAMED[name].case
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            assert info.method == "dual"
            assert info.gap <= GAP_TOL
            assert info.int_violation <= FEAS_TOL
            assert np.max(np.abs(w)) <= cap + CAP_TOL
            infos.append(info)
        assert infos[0].objective == pytest.approx(infos[1].objective, rel=1e-12)

    @pytest.mark.parametrize("element", [None, (0j, 0j), (5e-324 + 5e-324j, 2.2e-311 + 0j),
                                         (0.7 - 0.2j, 1e-17 + 1e-17j)],
                             ids=["all_normal", "zero", "subnormal", "non_carrier"])
    def test_matched_filter_and_anchors_have_the_masked_bits(self, element, monkeypatch):
        # an all-normal, all-carrier instance takes the unmasked matched
        # filter and anchor set-up; one zero, subnormal or non-carrier
        # element takes the masked one; both certify with the masked bits
        h_sig, h_int = instance(np.random.default_rng(11), 8)
        if element is not None:
            h_sig[3], h_int[3] = element
        cap = 1.0 / math.sqrt(8)
        mag = np.abs(h_sig)
        nz = mag > 0
        h_nz = h_sig[nz]
        h_nz[mag[nz] < solver._NORMAL_MIN] *= 2.0**512
        w_mf = np.zeros_like(h_sig)
        w_mf[nz] = cap * h_nz / np.abs(h_nz)
        s_hat, i_hat = h_sig / np.linalg.norm(h_sig), h_int / np.linalg.norm(h_int)
        carriers = np.abs(i_hat) > 1e-14
        anchors = np.concatenate([s_hat[carriers] / i_hat[carriers], [0j]])
        eta_mf = abs(np.vdot(w_mf, h_int))
        eta_hat = 0.2 * eta_mf / np.linalg.norm(h_int)
        anchor_weights = np.concatenate([cap * np.abs(i_hat)[carriers], [eta_hat]])

        seen = []
        kink_point = solver._kink_point

        def spy(points, weights, *args):
            seen.append((points.copy(), weights.copy()))
            return kink_point(points, weights, *args)

        monkeypatch.setattr(solver, "_kink_point", spy)
        w, info = solve_bf_subproblem_report(h_sig, h_int, eta_mf, cap)
        assert info.method == "shortcut"
        assert w.tobytes() == w_mf.tobytes()
        w, info = solve_bf_subproblem_report(h_sig, h_int, 0.2 * eta_mf, cap)
        assert info.method == "dual"
        assert solver._certified(info)
        assert seen[0][0].tobytes() == anchors.tobytes()
        assert seen[0][1].tobytes() == anchor_weights.tobytes()

    @pytest.mark.parametrize("case", ["all_normal", "zero", "kink", "nan", "origin", "origin_kink"])
    def test_recovery_has_the_masked_bits(self, case):
        # every residual above its tolerance takes the whole-array recovery;
        # a zero residual, one within tolerance (a kink, a free element) or
        # a NaN one takes the masked construction; both give its bits
        s_hat, i_hat = instance(np.random.default_rng(12), 8)
        s_hat, i_hat = s_hat / np.linalg.norm(s_hat), i_hat / np.linalg.norm(i_hat)
        z = 0j if case.startswith("origin") else 0.3 - 0.4j
        if case == "zero":
            s_hat[3] = (z * i_hat)[3]
        elif case.endswith("kink"):
            s_hat[3] = (z * i_hat)[3] + 3e-14j
        elif case == "nan":
            s_hat[3] = complex("nan")
        cap, eta, tol = 1.0 / math.sqrt(8), 0.05, 1e-12
        resid = s_hat - z * i_hat
        resid_mag, s_mag, i_mag = np.abs(resid), np.abs(s_hat), np.abs(i_hat)
        whole = np.all(resid_mag > tol * np.maximum(s_mag + abs(z) * i_mag, 1.0))
        assert whole == (case in ("all_normal", "origin"))
        w = solver._recover_primal(z, resid, resid_mag, s_mag, i_hat, i_mag, eta, cap, tol)
        assert w.tobytes() == recover_primal(z, s_hat, i_hat, eta, cap, tol).tobytes()

    @pytest.mark.parametrize("name", ["smooth_beside_5e-9_ratio_a", "smooth_beside_5e-9_ratio_b"])
    def test_smooth_minimizer_beside_near_origin_ratio_point_certifies(self, name):
        # each case's history is in tests/solver_corpus.py's NAMED
        h_sig, h_int, eta, cap = NAMED[name].case
        w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert info.method == "dual"
        assert info.gap <= GAP_TOL
        assert info.int_violation <= FEAS_TOL
        assert np.max(np.abs(w)) <= cap + CAP_TOL
        assert abs(np.vdot(w, h_int)) <= eta + FEAS_TOL * np.linalg.norm(h_int)
        assert np.vdot(w, h_sig).real == pytest.approx(info.objective, rel=1e-12)

    def test_zero_signal_returns_zero_vector(self):
        w, info = solve_bf_subproblem_report(
            np.zeros(4, complex), np.ones(4, complex), 0.1, 0.5
        )
        assert np.all(w == 0)

    def test_full_suppression_of_identical_channels(self):
        h = np.array([1 + 1j, -2 + 0.5j, 0.3 - 0.7j])
        w = solve_bf_subproblem(h, h, 0.0, 1 / math.sqrt(3))
        assert abs(np.vdot(w, h)) <= 1e-8 * np.linalg.norm(h)

    @pytest.mark.parametrize("seed", [*range(60), 289])
    def test_wide_dynamic_range_certifies_on_dual_route(self, seed):
        # per-element magnitudes 10^U(-6, 6); when a kink within 1e-9 of the
        # origin was snapped to zero, 9 of these seeds missed the certificate
        rng = np.random.default_rng(seed)
        n = 16
        h_sig = 10 ** rng.uniform(-6, 6, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        h_int = 10 ** rng.uniform(-6, 6, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        cap = 0.25
        eta = 0.01 * cap * np.linalg.norm(h_int)

        w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert info.method == "dual"
        assert info.gap <= GAP_TOL
        assert info.int_violation <= FEAS_TOL
        assert info.cap_violation <= CAP_TOL
        assert np.max(np.abs(w)) <= cap + CAP_TOL
        assert abs(np.vdot(w, h_int)) <= eta + FEAS_TOL * np.linalg.norm(h_int)
        assert np.vdot(w, h_sig).real == pytest.approx(info.objective, rel=1e-12)
        # weak duality; at the optimum both bounds are one number computed two
        # ways, and the primal exceeds the dual by up to 4e-16 in 19 of these
        assert info.objective <= info.dual_bound * (1.0 + 1e-15)

    @pytest.mark.parametrize("name, snapped", [
        ("kink_1e-9_raised", False), ("kink_1e-9_missed_eta", False), ("kink_tied_with_origin", True),
    ])
    def test_kink_beside_origin_certifies(self, name, snapped):
        # each case's history is in tests/solver_corpus.py's NAMED
        h_sig, h_int, eta, cap = NAMED[name].case
        w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert info.method == "dual"
        assert (info.z_star == 0) == snapped
        assert info.gap <= GAP_TOL
        assert info.int_violation <= FEAS_TOL
        assert info.cap_violation <= CAP_TOL
        assert abs(np.vdot(w, h_int)) <= eta + FEAS_TOL * max(1.0, eta)

    @pytest.mark.parametrize("name, z_min, z_max", [
        ("cluster_1e-15_ratio", 1e-3, 1.0), ("cluster_1e-7_and_1e-11j", 1e-8, 1e-6),
        ("cluster_1e-8j_slack", 0.0, 0.0),
    ])
    def test_smooth_minimizer_beside_a_cluster_certifies(self, name, z_min, z_max):
        # each case's history is in tests/solver_corpus.py's NAMED
        h_sig, h_int, eta, cap = NAMED[name].case
        w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert info.method == "dual"
        assert z_min <= abs(info.z_star) <= z_max
        assert info.gap <= GAP_TOL
        assert info.int_violation <= FEAS_TOL
        assert info.cap_violation <= CAP_TOL
        assert abs(np.vdot(w, h_int)) <= eta + FEAS_TOL * max(1.0, eta)

    def test_validation_errors(self):
        h = np.ones(3, complex)
        with pytest.raises(ValueError):
            solve_bf_subproblem(h, h, -0.1, 0.5)
        with pytest.raises(ValueError):
            solve_bf_subproblem(h, np.ones(4, complex), 0.1, 0.5)
        with pytest.raises(ValueError):
            solve_bf_subproblem(h, h, 0.1, 0.0)


class TestOracleAgreement:
    def test_two_element_instances_match_dense_oracle(self, rng):
        cap = 1.0 / math.sqrt(2)
        for k in range(10):
            h_sig, h_int = instance(rng, 2)
            eta = rng.uniform(0.05, 1.1) * cap * np.sum(np.abs(h_int))
            w, _ = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            mine = float(np.vdot(w, h_sig).real)
            oracle = n2_dense_best(h_sig, h_int, eta, cap)
            assert mine == pytest.approx(oracle, abs=1e-4)
            assert mine >= oracle - 1e-8

    def test_beats_scaled_steering_reference(self, rng):
        # any feasible down-scaled matched filter is a valid lower bound
        n = 16
        cap = 1.0 / math.sqrt(n)
        for _ in range(10):
            h_sig, h_int = instance(rng, n)
            w_mf = cap * np.exp(1j * np.angle(h_sig))
            leak = abs(np.vdot(w_mf, h_int))
            eta = 0.25 * leak
            scale = eta / leak
            w, _ = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            assert np.vdot(w, h_sig).real >= scale * np.vdot(w_mf, h_sig).real - 1e-9


class TestInvariances:
    @given(data=complex_arrays)
    # two ratio points 2.4e-320 apart: a Weiszfeld step on one overflows w / d
    @example(
        data=(
            [1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.3488817122319486e-304,
             0.0, 2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 0.0],
            [1.0, 0.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.3488817122319486e-304,
             0.0, 2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 1.0],
            0.5,
        )
    )
    @settings(max_examples=30)
    def test_output_feasible_on_arbitrary_inputs(self, data):
        sig_flat, int_flat, eta_frac = data
        h_sig = from_flat(sig_flat)
        h_int = from_flat(int_flat)
        n = h_sig.size
        cap = 1.0 / math.sqrt(n)
        eta = eta_frac * max(cap * np.sum(np.abs(h_int)), 1e-6)
        try:
            w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        except SolverError:
            pytest.fail("solver declined a routine instance")
        assert np.all(np.abs(w) <= cap + 1e-9)
        assert abs(np.vdot(w, h_int)) <= eta + FEAS_TOL * max(1.0, eta)

    def test_signal_phase_rotation_rotates_solution(self, rng):
        n = 6
        cap = 1.0 / math.sqrt(n)
        h_sig, h_int = instance(rng, n)
        eta = 0.3 * cap * np.sum(np.abs(h_int))
        w1, _ = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        w2, _ = solve_bf_subproblem_report(h_sig * np.exp(0.7j), h_int, eta, cap)
        assert abs(np.vdot(w1, h_sig)) == pytest.approx(
            abs(np.vdot(w2, h_sig * np.exp(0.7j))), rel=1e-6
        )

    def test_objective_scale_invariance_of_argmax(self, rng):
        n = 5
        cap = 1.0 / math.sqrt(n)
        h_sig, h_int = instance(rng, n)
        eta = 0.4 * cap * np.sum(np.abs(h_int))
        w1, _ = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        w2, _ = solve_bf_subproblem_report(3.5 * h_sig, h_int, eta, cap)
        assert np.vdot(w2, 3.5 * h_sig).real == pytest.approx(
            3.5 * np.vdot(w1, h_sig).real, rel=1e-9
        )

    def test_report_and_plain_wrapper_agree(self, rng):
        n = 4
        cap = 0.5
        h_sig, h_int = instance(rng, n)
        eta = 0.3 * cap * np.sum(np.abs(h_int))
        w_plain = solve_bf_subproblem(h_sig, h_int, eta, cap)
        w_rep, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        assert np.array_equal(w_plain, w_rep)
        assert info.method in ("shortcut", "dual")


def _pin_battery():
    """Seeded subproblems that reach every route and branch of the solver."""
    rng = np.random.default_rng(4)
    cases = []
    for n in (4, 16, 64):
        cap = 1.0 / math.sqrt(n)
        for frac in (0.02, 0.1, 0.25, 0.5):
            h_sig, h_int = instance(rng, n)
            cases.append((h_sig, h_int, frac * cap * np.sum(np.abs(h_int)), cap))
        # one dominant interference element: the kink sits on its ratio point
        h_sig, h_int = instance(rng, n)
        h_int[n // 2] *= 30.0
        cases.append((h_sig, h_int, 0.2 * cap * np.sum(np.abs(h_int)), cap))
    cap = 0.25
    # a zero signal element puts a ratio point on the origin, which is the kink
    h_sig, h_int = instance(rng, 16)
    h_sig[3] = 0.0
    h_int[3] *= 10.0
    w_mf = cap * np.exp(1j * np.angle(h_sig)) * (h_sig != 0)
    cases.append((h_sig, h_int, 0.9 * abs(np.vdot(w_mf, h_int)), cap))
    # a cap just under the matched-filter leakage: the origin candidate itself
    h_sig, h_int = instance(rng, 16)
    leak = abs(np.vdot(cap * np.exp(1j * np.angle(h_sig)), h_int))
    cases.append((h_sig, h_int, leak * (1.0 - 1e-13), cap))
    # duplicated ratio points (exact multiples), on the smooth path and at a kink
    for boost in (1.0, 30.0):
        h_sig, h_int = instance(rng, 16)
        h_sig[5], h_int[5] = 2.0 * h_sig[4], 2.0 * h_int[4]
        h_sig[9], h_int[9] = h_sig[4], h_int[4]
        h_sig[[4, 5, 9]] *= boost
        h_int[[4, 5, 9]] *= boost
        cases.append((h_sig, h_int, 0.3 * cap * np.sum(np.abs(h_int)), cap))
    h_sig, h_int = instance(rng, 16)
    cases.append((h_sig, h_int, 1.01 * cap * np.sum(np.abs(h_int)), cap))
    # element magnitudes over twelve decades; seed 289's kink lies 9.3e-11
    # from the origin
    for seed in (None, None, None, 289):
        r = rng if seed is None else np.random.default_rng(seed)
        h_sig = 10 ** r.uniform(-6, 6, 16) * np.exp(2j * np.pi * r.uniform(size=16))
        h_int = 10 ** r.uniform(-6, 6, 16) * np.exp(2j * np.pi * r.uniform(size=16))
        cases.append((h_sig, h_int, 0.01 * cap * np.linalg.norm(h_int), cap))
    return cases


class TestBitPin:
    # sha256 over every weight vector and every SolveInfo field of the
    # battery; the lean Weiszfeld and Newton loops and the kink screen must
    # not move a single bit
    DIGEST = "172d72d26a3958e33ae532e737bc754e02573a7b133624206e5af9dc598551c6"

    def test_battery_outputs_are_pinned(self, monkeypatch, pin_note):
        smooth_calls = []
        weiszfeld = solver._weiszfeld
        monkeypatch.setattr(
            solver, "_weiszfeld", lambda *a: smooth_calls.append(1) or weiszfeld(*a)
        )
        digest = hashlib.sha256()
        routes = []
        for h_sig, h_int, eta, cap in _pin_battery():
            before = len(smooth_calls)
            w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            z = complex(info.z_star)
            routes.append((info.method, len(smooth_calls) > before, z == 0))
            digest.update(w.tobytes())
            for v in (info.objective, info.dual_bound, info.gap, info.int_violation,
                      info.cap_violation, z.real, z.imag):
                digest.update(float(v).hex().encode())
            digest.update(info.method.encode())
        # shortcut; kink at a ratio point, at the origin; smooth path
        assert ("shortcut", False, True) in routes
        assert ("dual", False, False) in routes
        assert ("dual", False, True) in routes
        assert ("dual", True, False) in routes
        assert digest.hexdigest() == self.DIGEST, pin_note


@st.composite
def _fuzz_subproblems(draw):
    """Subproblems with exact ratio-point ties, near-collinear ratio points,
    a vanishing or borderline cap eta, element magnitudes over 10^-6..10^6,
    and N from 1 to 64."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from([0.0, 6.0]))
    h_int = 10 ** rng.uniform(-decades, decades, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    if draw(st.booleans()):
        # ratio points on a line, off it by 1e-12 of their spread
        t = rng.normal(size=n)
        ratio = (0.3 - 0.2j) + (1.0 + 0.5j) * t + 1e-12j * rng.normal(size=n)
    else:
        ratio = rng.normal(size=n) + 1j * rng.normal(size=n)
        ratio *= 10 ** rng.uniform(-decades, decades, n)
    if draw(st.booleans()):
        # one dominant interference element pulls the kink onto its ratio point
        h_int[rng.integers(n)] *= 10 ** rng.uniform(0.5, 2.0)
    h_sig = ratio * h_int
    for _ in range(draw(st.integers(0, n // 2))):
        # exact ties: a copy, or both entries doubled, divides to the same point
        src, dst = rng.integers(n, size=2)
        scale = 2.0 if rng.uniform() < 0.5 else 1.0
        h_sig[dst], h_int[dst] = scale * h_sig[src], scale * h_int[src]
    cap = 1.0 / math.sqrt(n)
    leak = abs(np.vdot(cap * np.exp(1j * np.angle(h_sig)), h_int))
    eta = draw(
        st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 1.0 - 1e-13])
    ) * leak
    return h_sig, h_int, eta, cap


def _solve_spied(case, kink):
    """Solve with ``kink`` as the kink test; return its arguments and the recovered z*.

    Either is None when the solve never reaches it (the shortcut route).
    """
    with mock.patch.object(solver, "_kink_point", mock.Mock(wraps=kink)) as kink_spy, \
            mock.patch.object(solver, "_recover_primal", wraps=solver._recover_primal) as spy:
        try:
            solve_bf_subproblem_report(*case)
        except SolverError:
            pass
    args = kink_spy.call_args.args if kink_spy.call_args else None
    return args, spy.call_args.args[0] if spy.call_args else None


def _bits(z):
    return None if z is None else (float(z.real).hex(), float(z.imag).hex())


def _margin_case(h_sig, h_int, eta_frac):
    h_sig, h_int = np.array(h_sig, complex), np.array(h_int, complex)
    cap = 1.0 / math.sqrt(h_sig.size)
    leak = abs(np.vdot(cap * np.exp(1j * np.angle(h_sig)), h_int))
    return h_sig, h_int, eta_frac * leak, cap


_DIAG, _ANTI = 1 + 1j, -1 + 1j  # two ratio points of equal modulus
_THIRD = complex(-0.5, math.sqrt(3) / 2)  # exp(2j*pi/3)
_CLUSTER_INT = [complex(math.cos(math.pi * k / 12), math.sin(math.pi * k / 12)) * (1 + k / 24)
                for k in range(24)]
_CLUSTER_OFF = [1.2e-13] + [(k - 12) * 1e-14 for k in range(1, 24)]


class TestKinkScreen:
    @pytest.mark.parametrize("case", [
        # F is flat between the two ratio points; a non-carrier element
        # (|i_hat| = 7e-15) makes D lower at the second, so D != F + const
        _margin_case([_ANTI, _DIAG, 1.0], [1, 1, 1e-14 * (1 - 1j) / math.sqrt(2)], 1e-300),
        # F falls by 1e-12 relative from the first ratio point to the second,
        # far away, and the exact test's tolerance still accepts the first
        _margin_case([_ANTI, _DIAG * (1 + 0.5e-12)], [1, 1 + 0.5e-12], 1e-300),
        # N = 24 ratio points within 2e-13 of each other, the first at the
        # cluster's edge: D's argmin is another member
        _margin_case([(0.6 + 0.8j) * (1 + d) * h for d, h in zip(_CLUSTER_OFF, _CLUSTER_INT)],
                     _CLUSTER_INT, 1e-300),
        # a ratio point 1e-13 from the origin, tied with it, beside one at
        # 1e10: D is lowest at the origin itself
        _margin_case([2e-13, _THIRD, 0.5 * _THIRD], [2, 1e-10, 1], 0.95),
    ], ids=["non_carrier_drift", "kink_far_from_best_anchor", "n24_cluster",
            "origin_tie_beside_large_p"])
    def test_kink_above_the_best_anchor_survives_the_screen(self, case):
        args, z_star = _solve_spied(case, solver._kink_point)
        _, z_star_reference = _solve_spied(case, kink_point)
        points, _, _, d_vals, _ = args
        kink = kink_point(*args)
        assert kink is not None
        # the exact test accepts a candidate whose value of D lies above the
        # best anchor's: only the margin keeps it
        assert d_vals[np.flatnonzero(points == kink)[0]] > d_vals.min()
        assert _bits(solver._kink_point(*args)) == _bits(kink)
        assert _bits(z_star) == _bits(z_star_reference)

    @given(case=_fuzz_subproblems())
    @settings(max_examples=150)
    def test_screened_kink_test_matches_unscreened_reference(self, case):
        args, z_star = _solve_spied(case, solver._kink_point)
        _, z_star_reference = _solve_spied(case, kink_point)
        assert _bits(z_star) == _bits(z_star_reference)
        if args is not None:
            assert _bits(solver._kink_point(*args)) == _bits(kink_point(*args))


@st.composite
def _weiszfeld_cases(draw):
    """Weiszfeld inputs at the edges of the anchor screen: starts on an anchor
    or about the tie tolerance 1e-12 (1 + |z|) from one, anchor clusters
    within that tolerance, a zero origin weight, subnormal weights, weights
    over 10^-150..10^150, a NaN point, and N from 1 to 65."""
    n = draw(st.integers(1, 65))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10 ** rng.uniform(-3, 3, n)
    kind = draw(st.sampled_from(["plain", "wide", "subnormal", "zero_origin"]))
    weights = rng.uniform(0.01, 1.0, n)
    if kind == "wide":
        weights = 10 ** rng.uniform(-150, 150, n)
    elif kind == "subnormal":
        # some weights, or all: then s = sum(w / d) is subnormal and the mean
        # step rescales the weights
        count = n if draw(st.booleans()) else 1 + n // 4
        weights[rng.choice(n, size=min(n, count), replace=False)] = 5e-324 * rng.integers(1, 2**20, min(n, count))
    elif kind == "zero_origin":
        points[-1], weights[-1] = 0j, 0.0
    for _ in range(draw(st.integers(0, n // 2))):
        # a cluster member within the tie tolerance of another point, or a copy
        src, dst = rng.integers(n, size=2)
        spread = draw(st.sampled_from([0.0, 1e-13, 1e-12]))
        points[dst] = points[src] + spread * (1 + abs(points[src])) * np.exp(
            2j * np.pi * rng.uniform()
        ) * rng.uniform()
    if draw(st.integers(0, 9)) == 0:
        points[rng.integers(n)] = complex("nan+nanj")
    anchor = points[rng.integers(n)]
    start = draw(st.sampled_from(["anchor", "tie", "exact_tie", "free"]))
    factor = draw(st.sampled_from([0.5, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 2.0]))
    if start == "anchor":
        z0 = anchor
    elif start == "tie":
        # a start whose distance to the anchor rounds near the tolerance
        z0 = anchor + factor * 1e-12 * (1.0 + abs(anchor)) * np.exp(2j * np.pi * rng.uniform())
    elif start == "exact_tie":
        # from the origin the tolerance is 1e-12 exactly, and a point on an
        # axis lies exactly factor times that far away
        points[0], z0 = factor * 1e-12 * (1, 1j, -1, -1j)[rng.integers(4)], 0j
    else:
        z0 = complex(rng.normal(), rng.normal())
    return points, weights, z0


# trials of the three trialbench workloads
_WORKLOAD_OVERRIDES = pytest.mark.parametrize("overrides", [
    {},
    {**{key: 8 for key in ("m_s", "n_s", "m_r", "n_r", "m_t", "n_t", "m_d", "n_d")},
     "delta_m_deg": 10.0},
    {"los_a": 27.23, "los_b": 0.08, "dn_rule": "fixed", "dn_x": 560.0, "dn_y": 420.0},
], ids=["paper_default", "large_array_misaligned", "los_starved"])


class TestWeiszfeldScreen:
    """The screened Weiszfeld loop returns the bits of the loop that tests
    every step for an anchor (tests/oracles.py), and warns nowhere."""

    @staticmethod
    def _both(points, weights, z0):
        def run(loop):
            try:
                return _bits(loop(points, weights, z0))
            except SolverError as exc:
                return str(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = run(solver._weiszfeld)
        # the reference warns where a NaN point meets an anchor step
        with np.errstate(invalid="ignore"):
            return new, run(weiszfeld)

    @pytest.mark.parametrize("points, weights, z0", [
        # the start lies exactly the tolerance 1e-12 from the only anchor:
        # the reciprocal sum equals the screen's threshold to the bit
        ([1e-12], [1.0], 0j),
        ([1e-12, 1e6], [1.0, 1e-300], 0j),
        # a normal weight over a tie of 3e12 underflows w / d; a screen that
        # rescales s by tie and allows for relative rounding would skip the
        # anchor here
        ([3e24], [2.44e-308], complex(3e24 + 2999300000000.0)),
        # a zero origin weight with the iterate on the origin: 0 / 0 in s
        ([1.0, 1j, 0.0], [1.0, 1.0, 0.0], 0j),
        ([1.0, float("nan"), 2.0], [1.0, 1.0, 1.0], 1.0 + 0j),
        # s = w / d is subnormal: complex / float division forms 1 / s, which
        # overflows unless the mean step rescales the weights
        ([2.2145e-4 - 2.3268e-4j], [9.08e-319], 0.3616 + 1.3040j),
        # every w / d underflows even with the weights lifted by 2**512
        ([1e300, 2e300], [5e-324, 5e-324], 0j),
        # an anchor a subnormal distance from the start overflows w / d
        ([1.0, complex(1.0, 2.4e-320), 3.0], [1.0, 1.0, 1.0], 1.0 + 0j),
    ], ids=["exact_tie", "exact_tie_far_neighbour", "underflowing_quotient",
            "zero_weight_on_origin", "nan_point", "subnormal_reciprocal_sum",
            "reciprocal_sum_underflow", "overflowing_quotient"])
    def test_edge_cases_match_unscreened_loop(self, points, weights, z0):
        new, ref = self._both(np.array(points, complex), np.array(weights, float), z0)
        assert new == ref
        if isinstance(new, str):
            assert "underflows" in new
        elif all(np.isfinite(points)):
            assert all(math.isfinite(part) for part in (float.fromhex(h) for h in new))

    def test_rescaled_mean_steps_finish_as_the_unscreened_loop(self):
        # every w / d is subnormal, so every mean step lifts the weights by
        # 2**512, and the loop still converges: it takes the mean steps of
        # the lifted weights, bit for bit
        rng = np.random.default_rng(5)
        points = rng.normal(size=17) + 1j * rng.normal(size=17)
        weights, z0 = rng.uniform(1.0, 2.0, 17) * 1e-311, 0.1 + 0.1j
        assert np.add.reduce(weights / np.abs(points - z0)) < solver._NORMAL_MIN
        new, ref = self._both(points, weights, z0)
        assert new == ref == _bits(solver._weiszfeld(points, weights * 2.0**512, z0))
        assert new != _bits(z0)

    @given(case=_weiszfeld_cases())
    @settings(max_examples=300)
    def test_matches_unscreened_loop(self, case):
        new, ref = self._both(*case)
        assert new == ref

    @_WORKLOAD_OVERRIDES
    def test_trial_calls_match_unscreened_loop(self, overrides, monkeypatch):
        calls = []
        screened = solver._weiszfeld

        def spy(points, weights, z0):
            z = screened(points, weights, z0)
            calls.append((points.copy(), weights.copy(), z0, z))
            return z

        monkeypatch.setattr(solver, "_weiszfeld", spy)
        scenario = config.build_scenario(overrides)
        for trial in (0, 1):
            harness.run_trial(scenario, trial)
        assert len(calls) > 10
        for points, weights, z0, z in calls:
            assert _bits(z) == _bits(weiszfeld(points, weights, z0))


def _fermat_weber(z, points, weights):
    return float(np.sum(weights * np.abs(points - z)))


class TestNewtonDescent:
    """The Newton polish never returns a point whose Fermat-Weber sum
    exceeds its start's."""

    def test_seeded_polishes_never_raise_the_sum(self):
        moved = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 66))
            points = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10 ** rng.uniform(-3, 3)
            weights = rng.uniform(0.01, 1.0, n)
            # a cold start, and one a little off the Weiszfeld point, where
            # the line search compares values that differ in the last bits
            median = weiszfeld(points, weights, complex(rng.normal(), rng.normal()))
            for z0 in (complex(rng.normal(), rng.normal()), median * (1 + 1e-9j)):
                z = solver._newton_polish(z0, points, weights)
                assert _fermat_weber(z, points, weights) <= _fermat_weber(z0, points, weights), (seed, z0)
                moved += z != z0
        assert moved > 200

    @_WORKLOAD_OVERRIDES
    def test_trial_polishes_never_raise_the_sum(self, overrides, monkeypatch):
        calls = []
        polish = solver._newton_polish

        def spy(z0, points, weights):
            z = polish(z0, points, weights)
            calls.append((z0, points.copy(), weights.copy(), z))
            return z

        monkeypatch.setattr(solver, "_newton_polish", spy)
        scenario = config.build_scenario(overrides)
        # large_array_misaligned's first polish that moves is in trial 2
        for trial in range(4):
            harness.run_trial(scenario, trial)
        assert len(calls) > 10 and any(z != z0 for z0, _, _, z in calls)
        for z0, points, weights, z in calls:
            assert _fermat_weber(z, points, weights) <= _fermat_weber(z0, points, weights)


class TestNumericBranches:
    def test_newton_stops_on_an_anchor(self):
        # the unit vector towards an anchor under the iterate is 0 / 0
        points = np.array([1.0, 2.0 + 1.0j, -1.0j])
        assert solver._newton_polish(1.0 + 0j, points, np.ones(3)) == 1.0 + 0j

    def test_newton_stops_on_a_singular_hessian(self):
        # collinear points: the Hessian across their line is 0, and the
        # gradient at 0.5 (pull 1 left, 2 right) is not
        points = np.array([0.0, 1.0, 2.0], complex)
        assert solver._newton_polish(0.5 + 0j, points, np.ones(3)) == 0.5 + 0j

    def test_kink_test_accepts_a_point_tied_with_every_other(self):
        points = np.array([1.0 + 1.0j, 1.0 + 1.0j, (1.0 + 1.0j) * (1 + 1e-13)])
        weights = np.array([0.5, 1.0, 0.25])
        mags = np.hypot(points.real, points.imag)
        d_vals = np.array([weights @ np.abs(points - p) for p in points])
        assert solver._kink_point(points, weights, mags, d_vals, 1.0) == points[0]


class TestAnchorTable:
    @pytest.mark.parametrize("block", [1, 40, 200])
    def test_row_blocks_keep_the_bits(self, block, monkeypatch):
        # each row of the anchor table reduces alone, so D at every anchor,
        # and with it the solve, has the bits of the one-block table
        rng = np.random.default_rng(13)
        cases = []
        for n in (2, 3, 5, 16, 33, 64):
            h_sig, h_int = instance(rng, n)
            cap = 1.0 / math.sqrt(n)
            cases.append((h_sig, h_int, 0.3 * cap * np.linalg.norm(h_int), cap))

        def run():
            d_bits = []
            kink = solver._kink_point

            def spy(points, weights, mags, d_vals, drift):
                d_bits.append(d_vals.tobytes())
                return kink(points, weights, mags, d_vals, drift)

            with mock.patch.object(solver, "_kink_point", spy):
                solves = [solve_bf_subproblem_report(*case) for case in cases]
            return d_bits, [(w.tobytes(), info) for w, info in solves]

        one_block = run()
        assert len(one_block[0]) == len(cases)
        monkeypatch.setattr(solver, "_ANCHOR_BLOCK", block)
        assert run() == one_block

    def test_large_array_peak_is_a_block(self):
        # at N = 1024 the whole table would hold 1025 x 1024 complex residuals
        import tracemalloc

        rng = np.random.default_rng(5)
        n = 1024
        h_sig, h_int = instance(rng, n)
        cap = 1.0 / math.sqrt(n)
        tracemalloc.start()
        try:
            _, info = solve_bf_subproblem_report(h_sig, h_int, 0.3 * cap * np.linalg.norm(h_int), cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.method == "dual"
        assert peak <= 3 * 2**20


class TestSeededFuzz:
    @pytest.mark.parametrize("family", FUZZ_FAMILIES)
    def test_every_solve_certifies(self, family):
        # 1000 seeded instances a family, N from 2 to 64; every solve must
        # meet the three tolerances, checked on w itself too
        for i, (n, case) in enumerate(fuzz_cases(family, 2029, 1000)):
            w, info = solve_bf_subproblem_report(*case)
            assert not failures(case, w, info), f"{family} instance {i} (N = {n})"


class TestTrialCaptures:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_check_trial_solves_certify_and_replay(self, workload):
        # every subproblem the benchmark's check trials solve, recorded at
        # the binding the trials call; a re-solve outside the trial must
        # give the same weight bytes and certificate
        check = WORKLOADS[workload]
        solves = capture(workload, check.check_trials, check.check_master_seed)
        assert {s.info.method for s in solves} == {"shortcut", "dual"}
        for i, (case, w, info, _) in enumerate(solves):
            w_again, info_again = solver.solve_bf_subproblem_report(*case)
            assert (w_again.tobytes(), info_again) == (w, info), f"{workload} solve {i}"
            # GAP_TOL, FEAS_TOL and CAP_TOL, on the SolveInfo and on w itself
            assert not failures(case, w_again, info_again), f"{workload} solve {i}"


class TestRecoveries:
    """Each route the dual solve keeps certifies a named instance that
    fails without it: the recovery at z* and tol 1e-6 the 1e-7/1e-11j
    cluster, the one at z = 0 the 1e-8j cluster and seed 821, the kink snap
    the kink tied with the origin at the first recovery, and the feasibility
    polish's final clip the decades_6 instance."""

    @pytest.mark.parametrize("name", NAMED)
    def test_named_instance_certifies_at_its_recovery(self, name):
        case, recovery = NAMED[name]
        w, info, seen = solve_recorded(case)
        assert info.method == "dual"
        assert not failures(case, w, info)
        assert seen == recovery

import hashlib
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrelay.beamforming as beamforming
import fdrelay.harness as harness
import fdrelay.positioning as positioning
from fdrelay.channel import (
    ROLE_S2V,
    ROLE_V2D,
    SOURCE,
    TAG_MISALIGN,
    EnvironmentRealization,
    UpaSpec,
    Vec3,
    build_links,
    trial_rng,
)
from fdrelay.config import build_scenario
from fdrelay.harness import (
    MIN_GROUND_SEPARATION,
    SCHEMES,
    OutputRow,
    Scenario,
    SweepSpec,
    TrialResult,
    _sample_dn,
    aggregate,
    apply_misalignment,
    apply_sweep_value,
    dbm_to_watts,
    place_relay,
    run_sweep,
    run_trial,
    run_trials,
)
from fdrelay.solver import CAP_TOL, FEAS_TOL, GAP_TOL, SolverError, solve_bf_subproblem_report
from trialbench.workloads import WORKLOADS

FAST = Scenario(dn_rule="fixed", trials=4, master_seed=7)
JOB_LOG = None  # the file slow_trial_failing_first logs each job it starts to


def slow_trial_failing_first(scenario, trial_index):
    """A stand-in ``harness.run_trial``: trial 0 of each scenario fails at
    once, and every other trial takes 0.3 s."""
    with open(JOB_LOG, "a") as fh:
        fh.write(f"{scenario.p_v_tot} {trial_index}\n")
    if trial_index == 0:
        raise SolverError("stub failure")
    time.sleep(0.3)


class TestScenario:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="rule"):
            Scenario(dn_rule="line")

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            Scenario(trials=0)

    def test_negative_misalignment_rejected(self):
        with pytest.raises(ValueError):
            Scenario(delta_m_deg=-1.0)

    def test_budget_and_schedule_derivation(self):
        s = Scenario()
        assert s.budget.n_s2v == 256
        assert s.budget.n_v2d == 256
        assert s.schedule.eta_floor == 3.1622776601683795e-8
        assert s.schedule.kappa == 10.0


class TestDnSampling:
    def test_fixed_rule_exact(self):
        assert _sample_dn(FAST, 3) == Vec3(400.0, 300.0, 0.0)

    def test_disk_rule_in_quadrant_within_radius(self):
        s = Scenario(dn_rule="disk", dn_radius_m=500.0)
        for i in range(50):
            dn = _sample_dn(s, i)
            assert dn.x >= 0 and dn.y >= 0 and dn.z == 0
            r = math.hypot(dn.x, dn.y)
            assert MIN_GROUND_SEPARATION <= r <= 500.0 + 1e-9

    def test_circle_rule_radius_exact(self):
        s = Scenario(dn_rule="circle", dn_radius_m=400.0)
        for i in range(20):
            dn = _sample_dn(s, i)
            assert math.hypot(dn.x, dn.y) == pytest.approx(400.0, rel=1e-12)

    def test_close_draws_are_redrawn(self):
        # in a 12 m disk most draws fall inside the 10 m separation
        s = Scenario(dn_rule="disk", dn_radius_m=12.0)
        for i in range(20):
            dn = _sample_dn(s, i)
            assert math.hypot(dn.x, dn.y) >= MIN_GROUND_SEPARATION
        with pytest.raises(ValueError, match="minimum ground separation"):
            _sample_dn(Scenario(dn_rule="circle", dn_radius_m=5.0), 0)

    def test_deterministic_per_trial(self):
        s = Scenario(dn_rule="disk")
        assert _sample_dn(s, 5) == _sample_dn(s, 5)
        assert _sample_dn(s, 5) != _sample_dn(s, 6)


class TestMisalignment:
    def _raw_links(self):
        from fdrelay.channel import EnvironmentRealization, build_links

        real = EnvironmentRealization(FAST.env, FAST.master_seed, 0)
        return build_links(
            real,
            Vec3(400, 300, 0),
            Vec3(200, 150, 100),
            FAST.upa_s,
            FAST.upa_r,
            FAST.upa_t,
            FAST.upa_d,
        )

    def _offsets(self, delta, trial=0):
        # the block run_trial draws from the trial's TAG_MISALIGN stream
        rng = trial_rng(FAST.master_seed, trial, TAG_MISALIGN)
        block = rng.uniform(-0.5, 0.5, size=(2, 1 + FAST.env.num_nlos, 4))
        return (math.radians(delta) * block).tolist()

    def test_zero_delta_returns_same_object(self):
        links = self._raw_links()
        assert apply_misalignment(links, None) is links

    def test_offsets_bounded_and_gains_kept(self):
        links = self._raw_links()
        delta = 10.0
        out = apply_misalignment(links, self._offsets(delta))
        half = math.radians(delta) / 2
        for before, after in ((links.s2v, out.s2v), (links.v2d, out.v2d)):
            assert len(before.components) == len(after.components)
            for b, a in zip(before.components, after.components):
                assert a.gain == b.gain
                assert a.is_los == b.is_los
                assert abs(a.departure.elevation - b.departure.elevation) <= half + 1e-12
                assert abs(a.arrival.elevation - b.arrival.elevation) <= half + 1e-12

    def test_untouched_channels_pass_through(self):
        links = self._raw_links()
        out = apply_misalignment(links, self._offsets(5.0))
        assert out.si is links.si
        assert out.s2d is links.s2d
        assert out.s2v_angles == links.s2v_angles

    def test_same_rng_state_same_perturbation(self):
        links = self._raw_links()
        out1 = apply_misalignment(links, self._offsets(10.0))
        out2 = apply_misalignment(links, self._offsets(10.0))
        assert np.array_equal(out1.s2v.entries, out2.s2v.entries)
        assert np.array_equal(out1.v2d.entries, out2.v2d.entries)

    def test_entries_change_when_delta_positive(self):
        links = self._raw_links()
        out = apply_misalignment(links, self._offsets(10.0))
        assert not np.array_equal(out.s2v.entries, links.s2v.entries)

    def test_run_trial_builds_a_stream_only_where_it_draws(self, monkeypatch):
        # delta 0 builds no TAG_MISALIGN stream and passes no offsets; delta
        # 10 builds one stream, and both link sets take its one block
        tags, offsets = [], []
        build, apply = harness.trial_rng, harness.apply_misalignment
        monkeypatch.setattr(harness, "trial_rng", lambda *key: tags.append(key[2:]) or build(*key))

        def recorded(links, block):
            offsets.append(block)
            return apply(links, block)

        monkeypatch.setattr(harness, "apply_misalignment", recorded)
        run_trial(FAST, 1)
        assert tags and (TAG_MISALIGN,) not in tags
        assert offsets == [None, None]
        tags.clear()
        offsets.clear()
        run_trial(replace(FAST, delta_m_deg=10.0), 1)
        assert tags.count((TAG_MISALIGN,)) == 1
        assert len(offsets) == 2 and offsets[0] is offsets[1]
        assert offsets[0] == self._offsets(10.0, trial=1)

    def test_every_channel_carries_the_arrays_its_role_connects(self, monkeypatch):
        # each of the four panels differs, so a channel paired with the wrong
        # array, or rebuilt on one, fails on the array or on its shape
        panels = dict(zip("srtd", (UpaSpec(2, 3), UpaSpec(4, 4), UpaSpec(3, 3), UpaSpec(1, 5))))
        scenario = replace(FAST, delta_m_deg=10.0, **{f"upa_{k}": v for k, v in panels.items()})
        seen = []
        apply = harness.apply_misalignment

        def recorded(links, block):
            seen.extend((links, apply(links, block)))
            return seen[-1]

        monkeypatch.setattr(harness, "apply_misalignment", recorded)
        run_trial(scenario, 1)
        assert len(seen) == 4 and seen[0].s2v is not seen[1].s2v and seen[2].v2d is not seen[3].v2d
        for links in seen:
            for name, (tx, rx) in {"s2v": "sr", "v2d": "td", "s2d": "sd", "si": "tr"}.items():
                channel = getattr(links, name)
                assert (channel.tx, channel.rx) == (panels[tx], panels[rx]), name
                assert channel.entries.shape == (channel.rx.n_tot, channel.tx.n_tot), name


class TestRunTrial:
    def test_bit_exact_repeatability(self):
        a = run_trial(FAST, 0)
        b = run_trial(FAST, 0)
        assert a == b  # every field, the proposed run's records too

    def test_proposed_rate_is_last_trace_entry_at_zero_delta(self):
        # unperturbed, the proposed rate is the last record's and the steered
        # baseline's the first record's, bit for bit, on every workload
        for workload in WORKLOADS.values():
            scenario = build_scenario({**workload.overrides, "delta_m_deg": 0.0})
            for trial in range(20):
                res = run_trial(scenario, trial)
                assert res.rates["proposed"].hex() == res.trace[-1].rate.hex()
                assert res.rates["despos_steer"].hex() == res.trace[0].rate.hex()

    def test_steered_baseline_is_the_loop_start_to_the_bit(self):
        scenario = Scenario(trials=4, master_seed=7)
        for trial in range(4):
            res = run_trial(scenario, trial)
            assert res.rates["despos_steer"].hex() == res.trace[0].rate.hex()

    def test_perturbed_evaluation_departs_from_trace(self):
        res = run_trial(Scenario(dn_rule="fixed", trials=1, master_seed=7, delta_m_deg=10.0), 0)
        assert res.rates["proposed"] != res.trace[-1].rate

    def test_trace_lengths_consistent(self):
        res = run_trial(FAST, 0)
        k = res.iters["proposed"]
        assert len(res.trace) == k + 1
        powers = res.trace[-1].powers
        assert res.powers_proposed == (powers.p_s, powers.p_v)

    def test_bounds_ordering(self):
        res = run_trial(FAST, 0)
        assert res.strict_bound_min == min(res.strict_bound_s2v, res.strict_bound_v2d)
        assert res.rates["proposed"] <= res.strict_bound_min + 1e-9

    def test_fallback_flag_via_blocked_search(self, monkeypatch):
        from fdrelay.positioning import NoLosPositionError

        def always_blocked(*args, **kwargs):
            raise NoLosPositionError("no LoS position found")

        monkeypatch.setattr(harness, "los_adjusted_position", always_blocked)
        res = run_trial(FAST, 0)
        assert res.fallback is True
        # the designed position falls back to the unadjusted optimum
        assert res.designed_position == Vec3(200.0, 150.0, 100.0)

    @given(
        seed=st.integers(0, 2**31),
        trial=st.integers(0, 1000),
        dn=st.tuples(st.integers(0, 12), st.integers(0, 9)).filter(any),
        h_min=st.integers(1, 4),
        h_span=st.integers(0, 3),
    )
    @settings(max_examples=12)
    def test_fallback_on_an_exhausted_real_field(self, seed, trial, dn, h_min, h_span):
        # los_a = 100 deg, los_b = 10: no elevation draws LoS with p above
        # 1e-45, so the search exhausts the box on the real field
        scenario = build_scenario(
            {
                "los_a": 100.0,
                "los_b": 10.0,
                "dn_rule": "fixed",
                "dn_x": float(dn[0]),
                "dn_y": float(dn[1]),
                "h_min": float(h_min),
                "h_max": float(h_min + h_span),
                "master_seed": seed,
            }
        )
        placement = place_relay(scenario, trial)
        assert placement.fallback is True
        assert placement.designed == placement.p_star
        res = run_trial(scenario, trial)
        assert res.fallback is True
        assert res.designed_position == placement.p_star
        assert set(res.rates) == set(SCHEMES)
        assert all(math.isfinite(r) for r in res.rates.values())

    def test_every_solve_certified_when_polish_runs_out_of_rounds(self, monkeypatch):
        # 8x8 panels, 10 deg misalignment, master_seed 8, trial 307: one dual
        # solve ends its feasibility polish on an interference projection that
        # leaves max|w| - cap = 2.5e-12 > CAP_TOL unless the polish clips again
        upa = UpaSpec(8, 8)
        scenario = Scenario(
            upa_s=upa, upa_r=upa, upa_t=upa, upa_d=upa, delta_m_deg=10.0, master_seed=8
        )
        infos = []

        def audited(h_sig, h_int, eta, cap):
            w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            infos.append(info)
            return w

        monkeypatch.setattr(beamforming, "solve_bf_subproblem", audited)
        res = run_trial(scenario, 307)
        assert all(math.isfinite(r) for r in res.rates.values())
        assert infos
        for info in infos:
            assert info.gap <= GAP_TOL
            assert info.int_violation <= FEAS_TOL
            assert info.cap_violation <= CAP_TOL


class TestOddArrays:
    """Trials on single-element and mixed array shapes run like the 4x4 default."""

    @pytest.mark.parametrize(
        "shapes", [((1, 1),) * 4, ((1, 4), (2, 1), (3, 1), (1, 1)), ((2, 1), (1, 1), (1, 4), (3, 1))]
    )
    def test_solves_certify_and_powers_stay_in_budget(self, monkeypatch, shapes):
        upa_s, upa_r, upa_t, upa_d = (UpaSpec(m, n) for m, n in shapes)
        scenario = Scenario(upa_s=upa_s, upa_r=upa_r, upa_t=upa_t, upa_d=upa_d, master_seed=7)
        infos = []

        def audited(h_sig, h_int, eta, cap):
            w, info = solve_bf_subproblem_report(h_sig, h_int, eta, cap)
            infos.append(info)
            return w

        monkeypatch.setattr(beamforming, "solve_bf_subproblem", audited)
        for trial in range(4):
            res = run_trial(scenario, trial)
            assert all(math.isfinite(r) for r in res.rates.values())
            for p in res.trace:
                assert math.isfinite(p.rate)
                assert 0.0 <= p.powers.p_s <= scenario.p_s_tot
                assert 0.0 <= p.powers.p_v <= scenario.p_v_tot
        assert infos
        for info in infos:
            assert info.gap <= GAP_TOL
            assert info.int_violation <= FEAS_TOL
            assert info.cap_violation <= CAP_TOL


class TestPlacementPin:
    # sha256 over the designed position (float.hex) and the fallback flag of
    # trials 0-39 of three configs; recorded at the scalar cell-by-cell LoS
    # search, which the array ring search must reproduce
    DIGEST = "145a69e94c2cf8e01ebabd0516692ff2cf2836a2775af99bb4f113b86e9a2ca8"
    CONFIGS = (
        {},
        {"los_a": 27.23, "los_b": 0.08, "dn_rule": "fixed", "dn_x": 560.0, "dn_y": 420.0},
        {"eps_x": 2.5, "eps_h": 0.5},
    )

    def test_placements_are_pinned(self, pin_note):
        digest = hashlib.sha256()
        moved = []
        for overrides in self.CONFIGS:
            scenario = build_scenario(overrides)
            placements = [place_relay(scenario, i) for i in range(40)]
            moved.append(sum(pl.designed != pl.p_star for pl in placements))
            for pl in placements:
                for v in (pl.designed.x, pl.designed.y, pl.designed.z):
                    digest.update(float(v).hex().encode())
                digest.update(b"1" if pl.fallback else b"0")
        # every config moves some relays off the closed-form optimum
        assert min(moved) > 0
        assert digest.hexdigest() == self.DIGEST, pin_note


class TestProbeBudgetHeadroom:
    def test_largest_benchmark_or_pinned_search_charges_52_blocks(self, monkeypatch):
        # the figure LOS_PROBE_BUDGET's comment cites: over trials 0-299 of
        # the three benchmark workloads and TestPlacementPin's eps config,
        # no search charges more than 52 blocks, 26,624 of the 2**20 cells
        charges = []
        route = EnvironmentRealization.los_route

        def counted(self, role, ground, axes):
            out = route(self, role, ground, axes)
            if role == ROLE_S2V:
                decide = out.decide

                def charged(bi, bj, bk):
                    charges[-1] += -(-bi.size // positioning._BLOCK)
                    return decide(bi, bj, bk)

                out.decide = charged
            return out

        monkeypatch.setattr(EnvironmentRealization, "los_route", counted)
        worst = (0, None, None)
        configs = [w.overrides for w in WORKLOADS.values()] + [TestPlacementPin.CONFIGS[2]]
        for n, overrides in enumerate(configs):
            scenario = build_scenario(overrides)
            for trial in range(300):
                charges.append(0)
                place_relay(scenario, trial)
                worst = max(worst, (charges[-1], n, trial))
        blocks, n, trial = worst
        assert blocks == 52
        assert blocks * positioning._BLOCK * 32 < positioning.LOS_PROBE_BUDGET
        # the budget sees the same charge: one cell less ends that search
        scenario = build_scenario(configs[n])
        monkeypatch.setattr(positioning, "LOS_PROBE_BUDGET", blocks * positioning._BLOCK - 1)
        assert place_relay(scenario, trial).fallback
        monkeypatch.setattr(positioning, "LOS_PROBE_BUDGET", blocks * positioning._BLOCK)
        assert not place_relay(scenario, trial).fallback


class TestDesignedLos:
    @pytest.mark.parametrize("overrides", TestPlacementPin.CONFIGS)
    def test_designed_cells_have_los_on_both_links(self, overrides):
        # the search and the field decide each cell alike, so every designed
        # cell the search returns has LoS on both links, and its links carry
        # a LoS path on S2V and on V2D
        scenario = build_scenario(overrides)
        arrays = (scenario.upa_s, scenario.upa_r, scenario.upa_t, scenario.upa_d)
        placed = 0
        for trial in range(12):
            pl = place_relay(scenario, trial)
            if pl.fallback:
                continue
            placed += 1
            assert pl.env_real.los_indicator(ROLE_S2V, SOURCE, pl.designed)
            assert pl.env_real.los_indicator(ROLE_V2D, pl.dn, pl.designed)
            links = build_links(pl.env_real, pl.dn, pl.designed, *arrays)
            assert [c.is_los for c in links.s2v.components].count(True) == 1
            assert [c.is_los for c in links.v2d.components].count(True) == 1
        assert placed > 0

    def test_fallback_leaves_the_states_to_the_field(self, monkeypatch):
        from fdrelay.positioning import NoLosPositionError

        def always_blocked(*args, **kwargs):
            raise NoLosPositionError("no LoS position found")

        built = []

        def spy(*args, **kwargs):
            links = build_links(*args, **kwargs)
            built.append(links)
            return links

        monkeypatch.setattr(harness, "los_adjusted_position", always_blocked)
        monkeypatch.setattr(harness, "build_links", spy)
        res = run_trial(FAST, 0)
        pl = place_relay(FAST, 0)
        assert res.fallback and res.designed_position == pl.p_star
        # the designed links are built first, at p_star
        s2v, v2d = built[0].s2v, built[0].v2d
        assert any(c.is_los for c in s2v.components) == pl.env_real.los_indicator(
            ROLE_S2V, SOURCE, pl.p_star
        )
        assert any(c.is_los for c in v2d.components) == pl.env_real.los_indicator(
            ROLE_V2D, pl.dn, pl.p_star
        )


class TestRunTrials:
    def test_results_sorted_and_complete(self):
        results = run_trials(FAST)
        assert [r.trial_index for r in results] == [0, 1, 2, 3]

    def test_worker_pool_matches_serial(self):
        serial = run_trials(FAST)
        parallel = run_trials(Scenario(dn_rule="fixed", trials=4, master_seed=7, workers=2))
        for a, b in zip(serial, parallel):
            assert a.rates == b.rates
            assert a.trace == b.trace

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # a stand-in pool records its size and maps in this process, so no
        # worker is started whatever the requested count; the host reports
        # 64 CPUs unless a test says otherwise
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return sizes

    def test_pool_holds_no_more_workers_than_trials(self, pool_sizes):
        results = run_trials(replace(FAST, trials=2, workers=64))
        assert pool_sizes == [2]
        assert [r.trial_index for r in results] == [0, 1]
        assert run_trials(replace(FAST, trials=3, workers=2)) == run_trials(replace(FAST, trials=3))
        assert pool_sizes == [2, 2]
        run_trials(replace(FAST, trials=1, workers=8))
        assert pool_sizes == [2, 2]

    def test_pool_holds_no_more_workers_than_cpus(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run_trials(replace(FAST, workers=64)) == run_trials(FAST)
        assert pool_sizes == [3]
        # os.cpu_count() is None where the count is unknown: one worker, no pool
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_trials(replace(FAST, workers=64)) == run_trials(FAST)
        assert pool_sizes == [3]

    def test_sweep_opens_one_pool(self, pool_sizes):
        spec = SweepSpec(param="p_v_tot_dbm", values=(10.0, 20.0), base=replace(FAST, workers=2))
        assert run_sweep(spec) == run_sweep(replace(spec, base=FAST))
        assert pool_sizes == [2]

    def test_failing_sweep_cancels_the_jobs_not_started(self, tmp_path, monkeypatch):
        # a real pool, whose forked workers see the log path and run the
        # stand-in, pickled by name; run to the end, the sweep starts 16 jobs
        monkeypatch.setattr(harness, "run_trial", slow_trial_failing_first)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on a 1-CPU host too
        monkeypatch.setitem(globals(), "JOB_LOG", str(tmp_path / "jobs.log"))
        spec = SweepSpec(param="p_v_tot_dbm", values=(0.0, 10.0, 20.0, 30.0), base=replace(FAST, workers=2))
        with pytest.raises(SolverError, match="stub failure"):
            run_sweep(spec)
        assert len((tmp_path / "jobs.log").read_text().splitlines()) < 16


class TestAggregate:
    def _results(self):
        return run_trials(FAST)

    def test_row_schema(self):
        rows = aggregate(self._results(), "p_s_tot_dbm", 20.0)
        assert [r.scheme for r in rows] == [
            "proposed",
            "randpos_ais",
            "despos_steer",
            "strict_bound",
        ]
        assert all(r.sweep_param == "p_s_tot_dbm" and r.sweep_value == 20.0 for r in rows)
        assert all(r.n_trials == 4 for r in rows)
        assert len({r.fallback_frac for r in rows}) == 1

    def test_mean_and_stderr_formulas(self):
        results = self._results()
        rows = aggregate(results, "x", 0.0)
        vals = [r.rates["proposed"] for r in results]
        assert rows[0].mean_rate_bps_hz == pytest.approx(np.mean(vals))
        assert rows[0].stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    def test_one_trial_point_has_zero_stderr(self):
        results = run_trials(Scenario(dn_rule="fixed", trials=1, master_seed=7))
        rows = aggregate(results, "x", 0.0)
        assert [r.stderr for r in rows] == [0.0] * 4
        assert rows[0].mean_rate_bps_hz == results[0].rates["proposed"]

    def test_iteration_counts(self):
        rows = aggregate(self._results(), "x", 0.0)
        assert rows[0].mean_iters > 0
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["despos_steer"].mean_iters == 0.0
        assert by_scheme["strict_bound"].mean_iters == 0.0


class TestSweeps:
    def test_dbm_conversion(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(-110.0) == pytest.approx(1e-14)

    def test_apply_power_sweep(self):
        s = apply_sweep_value(FAST, "p_s_tot_dbm", 10.0)
        assert s.p_s_tot == pytest.approx(0.01)
        assert s.p_v_tot == FAST.p_v_tot

    def test_apply_distance_sweep_switches_rule(self):
        s = apply_sweep_value(FAST, "distance_m", 600.0)
        assert s.dn_rule == "circle"
        assert s.dn_radius_m == 600.0

    def test_apply_array_sweep(self):
        s = apply_sweep_value(FAST, "array", 8)
        assert s.upa_s.rows == s.upa_s.cols == 8
        assert s.budget.n_s2v == 64 * 64
        with pytest.raises(ValueError):
            apply_sweep_value(FAST, "array", 2.5)

    def test_apply_misalignment_sweep(self):
        s = apply_sweep_value(FAST, "delta_m_deg", 10.0)
        assert s.delta_m_deg == 10.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            apply_sweep_value(FAST, "altitude", 1.0)
        with pytest.raises(ValueError, match="sweep"):
            SweepSpec(param="altitude", values=(1.0,), base=FAST)
        with pytest.raises(ValueError):
            SweepSpec(param="array", values=(), base=FAST)

    def test_run_sweep_row_layout(self):
        spec = SweepSpec(param="p_v_tot_dbm", values=(10.0, 20.0), base=FAST)
        rows = run_sweep(spec)
        assert len(rows) == 8
        assert [r.sweep_value for r in rows] == [10.0] * 4 + [20.0] * 4
        assert all(isinstance(r, OutputRow) for r in rows)

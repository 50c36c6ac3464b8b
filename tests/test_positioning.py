import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay import positioning
from fdrelay.channel import (
    ROLE_S2V,
    TAG_TIEBREAK,
    DegenerateGeometryError,
    EnvParams,
    EnvironmentRealization,
    UpaSpec,
    Vec3,
    build_farfield_channel,
    trial_rng,
)
from fdrelay.positioning import (
    DegenerateEndpointsError,
    FeasibleBox,
    LinkBudget,
    NoLosPositionError,
    _axis_run,
    _ring_cells,
    _ring_tables,
    approx_upper_bounds,
    conditional_optimal_position,
    los_adjusted_position,
    strict_upper_bounds,
)
from oracles import los_ring_search, quantize, rho_grid_argmax

ENV = EnvParams()


def _budget(n1=256, n2=256, p_s=0.1, p_v=0.1, s1=1e-14, s2=1e-14):
    return LinkBudget(
        n_s2v=n1, n_v2d=n2, p_s_tot=p_s, p_v_tot=p_v, noise1=s1, noise2=s2
    )


def _box(x, y, h_min=100.0, h_max=300.0):
    return FeasibleBox(x_d=x, y_d=y, h_min=h_min, h_max=h_max)


class TestConditionalOptimalPosition:
    def test_symmetric_budget_splits_midway(self):
        pos, rho = conditional_optimal_position(
            _budget(), _box(400, 300), ENV, Vec3(400, 300, 0)
        )
        assert rho == 0.5
        assert (pos.x, pos.y, pos.z) == (200.0, 150.0, 100.0)

    def test_quartic_branch_frozen(self):
        env = EnvParams(alpha_los=2.0)
        budget = _budget(n1=4, n2=1, p_s=1.0, p_v=1.0, s1=1.0, s2=1.0)
        pos, rho = conditional_optimal_position(
            budget, _box(300, 400), env, Vec3(300, 400, 0)
        )
        assert rho == pytest.approx(0.6973738657220362, abs=1e-12)
        assert pos.x == pytest.approx(rho * 300.0, rel=1e-12)
        assert pos.y == pytest.approx(rho * 400.0, rel=1e-12)
        assert pos.z == 100.0

    def test_lopsided_budgets_hit_the_segment_ends(self):
        # a strong source affords distance, so the relay moves to the DN end
        budget = _budget(n1=256, n2=256, p_s=1e4, p_v=1e-12)
        _, rho = conditional_optimal_position(budget, _box(50, 0), ENV, Vec3(50, 0, 0))
        assert rho == 1.0
        budget = _budget(n1=256, n2=256, p_s=1e-12, p_v=1e4)
        _, rho = conditional_optimal_position(budget, _box(50, 0), ENV, Vec3(50, 0, 0))
        assert rho == 0.0

    def test_near_equal_budgets_take_the_linear_root(self):
        # budgets one part in 2**50 apart leave the quadratic's leading
        # coefficient ~5e-16 of the linear one; the textbook root gives 0.466
        budget = _budget(p_v=0.1 * (1 + 2**-50))
        _, rho = conditional_optimal_position(budget, _box(400, 300), ENV, Vec3(400, 300, 0))
        assert rho == pytest.approx(0.5, abs=1e-12)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(DegenerateEndpointsError, match="SN and DN coincide"):
            conditional_optimal_position(_budget(), _box(0, 0), ENV, Vec3(0, 0, 0))

    @given(
        log_ratio=st.floats(-8, 8),
        d=st.floats(20.0, 1500.0),
        h=st.floats(50.0, 300.0),
        alpha=st.floats(1.5, 4.0),
    )
    @settings(max_examples=60)
    def test_matches_grid_oracle(self, log_ratio, d, h, alpha):
        env = EnvParams(alpha_los=alpha, alpha_nlos=max(alpha, 3.3))
        q_ratio = 10.0**log_ratio
        budget = _budget(n1=1, n2=1, p_s=q_ratio, p_v=1.0, s1=1.0, s2=1.0)
        dn = Vec3(d, 0.0, 0.0)
        _, rho = conditional_optimal_position(budget, _box(d, 0, h, h), env, dn)
        ref = ENV.ref_amplitude**2
        grid = rho_grid_argmax(q_ratio * ref, ref, d, h, alpha, step=1e-4)
        assert abs(rho - grid) <= 2e-4


class TestBounds:
    def test_approx_bound_matches_direct_formula(self):
        pos = Vec3(200, 150, 100)
        sn, dn = Vec3(0, 0, 0), Vec3(400, 300, 0)
        b1, b2 = approx_upper_bounds(pos, _budget(), ENV, dn)
        for bound, a, b in ((b1, sn, pos), (b2, dn, pos)):
            d = math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))
            snr = (
                ENV.ref_amplitude**2
                * 256
                * 0.1
                / (d**ENV.alpha_los * 1e-14)
            )
            assert bound == pytest.approx(math.log2(1.0 + snr), rel=1e-12)

    def test_strict_bound_matches_component_sum(self):
        real = EnvironmentRealization(ENV, 21, 0)
        sn, uav = Vec3(0, 0, 0), Vec3(180, 140, 120)
        upa = UpaSpec(4, 4)
        ch = build_farfield_channel(ROLE_S2V, real, sn, uav, upa, upa)
        budget = _budget()
        b1, _ = strict_upper_bounds(ch, ch, budget)
        power_sum = sum(abs(c.gain) ** 2 for c in ch.components)
        expected = math.log2(1.0 + power_sum * 256 * 0.1 / 1e-14)
        assert b1 == pytest.approx(expected, rel=1e-12)

    def test_strict_bound_rejects_si_channel(self):
        from fdrelay.channel import build_si_channel

        si = build_si_channel(ENV, UpaSpec(2, 2), UpaSpec(2, 2))
        with pytest.raises(ValueError):
            strict_upper_bounds(si, si, _budget(n1=16, n2=16))

    def test_strict_bound_at_least_los_only_bound(self):
        # with the LoS path present, the all-path bound dominates the LoS-only one
        for seed in range(30):
            real = EnvironmentRealization(ENV, seed, 0)
            sn, dn = Vec3(0, 0, 0), Vec3(400, 300, 0)
            uav = Vec3(200, 150, 100)
            upa = UpaSpec(4, 4)
            s2v = build_farfield_channel(ROLE_S2V, real, sn, uav, upa, upa)
            if not any(c.is_los for c in s2v.components):
                continue
            v2d = build_farfield_channel(
                "V2D", real, uav, dn, upa, upa
            )
            b1, _ = strict_upper_bounds(s2v, v2d, _budget())
            a1, _ = approx_upper_bounds(uav, _budget(), ENV, dn)
            assert b1 >= a1 - 1e-9


class TestRingCells:
    def test_matches_brute_force(self):
        # every clipping of rings 1-3: clipped i and j ranges, boxes one cell
        # wide, k_top < t, i ranges that miss +-t and, where the j range
        # misses +-t too, rings with an empty rim
        for t in range(1, 4):
            ranges = [(lo, hi) for lo in range(-t, 1) for hi in range(0, t + 1)]
            for i_range in ranges:
                for j_range in ranges:
                    for k_top in range(t + 1):
                        want = [
                            (i, j, k)
                            for i in range(i_range[0], i_range[1] + 1)
                            for j in range(j_range[0], j_range[1] + 1)
                            for k in range(k_top + 1)
                            if max(abs(i), abs(j), k) == t
                        ]
                        cells = _ring_cells(t, i_range, j_range, k_top)
                        assert list(zip(*(c.tolist() for c in cells))) == want

    def test_tables_are_read_only(self):
        for table in _ring_tables(3, (-3, 2), 3):
            assert not table.flags.writeable


class TestAxisRun:
    @staticmethod
    def _scan(box, p, axis, origin, step, n_min, n_max):
        """Every n in [n_min, n_max] whose point, p with coordinate ``axis``
        moved to origin + n * step, the box contains: (first, last, coords)."""
        hits = []
        for n in range(n_min, n_max + 1):
            c = origin + n * step
            q = [p.x, p.y, p.z]
            q[axis] = c
            if box.contains(Vec3(*q)):
                hits.append((n, c))
        return hits[0][0], hits[-1][0], [c for _, c in hits]

    def _run(self, box, p, axis, step, n_min, n_max):
        """_axis_run on one axis of the box, as the search calls it, checked
        against the scan."""
        lo, hi, origin = (
            (0.0, box.x_d, p.x), (0.0, box.y_d, p.y), (box.h_min, box.h_max, box.h_min)
        )[axis]
        first, last, coords = _axis_run(lo, hi, origin, step, n_min, n_max)
        got = (first, last, coords.tolist())
        assert got == self._scan(box, p, axis, origin, step, n_min, n_max)
        return got

    def test_edge_on_the_grid_up_to_rounding(self):
        # 0.1 + 2 * 0.1 rounds above x_d = 0.3; the slack keeps that cell
        box = _box(0.3, 1.0, 100.0, 110.0)
        first, last, xs = self._run(box, Vec3(0.1, 0.5, 100.0), 0, 0.1, -5, 5)
        assert (first, last) == (-1, 2)
        assert xs[-1] > 0.3

    def test_zero_extent_axis_keeps_the_clamped_cells(self):
        # with a 1e-12 step, _SLACK spans 1000 steps each side; the clamp
        # [n_min, n_max] is what keeps a single cell
        box = _box(40.0, 0.0, 100.0, 110.0)
        p = Vec3(20.0, 0.0, 100.0)
        assert self._run(box, p, 1, 1e-12, 0, 0) == (0, 0, [0.0])
        assert self._run(box, p, 1, 1e-12, -3, 3)[:2] == (-3, 3)

    @pytest.mark.parametrize("step", [0.1, 0.7, 1.0, 3.0])
    def test_heights_start_at_h_min(self, step):
        box = _box(40.0, 30.0, 100.0, 110.0)
        t_h = math.ceil(10.0 / step)
        first, last, zs = self._run(box, Vec3(20.0, 15.0, 105.0), 2, step, 0, t_h)
        assert first == 0 and zs[0] == 100.0
        assert last in (t_h - 1, t_h)

    def test_matches_the_scan_on_decimal_grids(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            step = float(rng.choice([0.1, 0.3, 0.7, 1.0, 1.0 / 3.0]))
            extent = round(float(rng.uniform(0.0, 5.0)), 1)
            box = _box(extent, extent, 100.0, 100.0 + extent)
            c = round(float(rng.uniform(0.0, extent)), 1)
            p = Vec3(c, c, 100.0 + c)
            t = math.ceil(extent / step) + 2
            for axis in (0, 1):
                self._run(box, p, axis, step, -t, t)
            self._run(box, p, 2, step, 0, t)


class _StubRealization(EnvironmentRealization):
    """LoS field overridden by an explicit set of allowed cells."""

    def __init__(self, env, allowed_cells, grid_step=(1.0, 1.0, 1.0)):
        super().__init__(env, master_seed=0, trial_index=0, grid_step=grid_step)
        self._allowed = allowed_cells

    def los_indicator(self, role, ground, uav):
        return quantize(self, uav) in self._allowed

    def los_route(self, role, ground, axes):
        return _StubRoute(self._allowed, axes)


class _StubRoute:
    """A LosRoute that allows the cells of a set."""

    def __init__(self, allowed, axes):
        self._allowed = allowed
        self._axes = axes

    def decide(self, bi, bj, bk):
        cells = zip(*(axis[b].tolist() for axis, b in zip(self._axes, (bi, bj, bk))))
        return np.array([cell in self._allowed for cell in cells], dtype=bool)


class TestLosAdjustedPosition:
    DN = Vec3(40, 30, 0)

    def _box(self):
        return _box(40, 30, 100, 110)

    def test_keeps_position_when_both_links_clear(self):
        p_star = Vec3(20, 15, 100)
        cell = (20, 15, 100)
        real = _StubRealization(ENV, {cell})
        out = los_adjusted_position(real, p_star, self._box(), self.DN)
        assert out == p_star

    def test_moves_to_nearest_clear_cell(self):
        p_star = Vec3(20, 15, 100)
        real = _StubRealization(ENV, {(22, 15, 100)})
        out = los_adjusted_position(real, p_star, self._box(), self.DN)
        assert (out.x, out.y, out.z) == (22.0, 15.0, 100.0)

    def test_prefers_smaller_euclidean_distance(self):
        p_star = Vec3(20, 15, 100)
        # (21,15,100) at distance 1 beats (20,15,102) at distance 2
        real = _StubRealization(ENV, {(21, 15, 100), (20, 15, 102)})
        out = los_adjusted_position(real, p_star, self._box(), self.DN)
        assert (out.x, out.y, out.z) == (21.0, 15.0, 100.0)

    def test_tie_break_is_seeded_and_valid(self):
        p_star = Vec3(20, 15, 100)
        ties = {(21, 15, 100), (19, 16, 100), (20, 16, 100), (20, 14, 100)}
        real = _StubRealization(ENV, ties)
        outs = [
            los_adjusted_position(real, p_star, self._box(), self.DN)
            for _ in range(3)
        ]
        assert outs[0] == outs[1] == outs[2]  # deterministic under one seed
        tied = [(20, 14, 100), (20, 16, 100), (21, 15, 100)]  # (i, j, k) order
        draw = int(trial_rng(0, 0, TAG_TIEBREAK).integers(len(tied)))
        assert quantize(real, outs[0]) == tied[draw]

    def test_exhaustion_raises(self):
        p_star = Vec3(20, 15, 100)
        real = _StubRealization(ENV, set())
        with pytest.raises(NoLosPositionError, match="no LoS position found"):
            los_adjusted_position(real, p_star, self._box(), self.DN)

    def test_probe_budget_ends_the_search(self, monkeypatch):
        # rings 1-3 hold 17 + 57 + 121 cells in 2 + 4 + 8 blocks of 16, and
        # the hit sits in ring 3: each block counts as 16 cells, so the
        # search needs a budget of 14 * 16 = 224
        p_star = Vec3(20, 15, 100)
        real = _StubRealization(ENV, {(23, 15, 100)})
        monkeypatch.setattr(positioning, "_BLOCK", 16)
        monkeypatch.setattr(positioning, "LOS_PROBE_BUDGET", 223)
        with pytest.raises(NoLosPositionError, match="probe budget of 223 cells"):
            los_adjusted_position(real, p_star, self._box(), self.DN)
        monkeypatch.setattr(positioning, "LOS_PROBE_BUDGET", 224)
        out = los_adjusted_position(real, p_star, self._box(), self.DN)
        assert quantize(real, out) == (23, 15, 100)

    def test_result_stays_inside_box(self):
        p_star = Vec3(39, 29, 110)
        real = _StubRealization(ENV, {(30, 25, 105)})
        box = self._box()
        out = los_adjusted_position(real, p_star, box, self.DN)
        assert box.contains(out)

    def test_reaches_the_box_corners(self):
        # the rings are clipped to the box; its far corners stay in reach
        p_star = Vec3(20, 15, 100)
        for corner in ((40, 30, 110), (0, 0, 110), (0, 30, 100), (40, 0, 105)):
            real = _StubRealization(ENV, {corner})
            out = los_adjusted_position(real, p_star, self._box(), self.DN)
            assert quantize(real, out) == corner

    def test_altitude_candidates_start_at_h_min(self):
        # candidate altitudes are h_min + k*eps_h, never below the floor
        p_star = Vec3(20, 15, 100)
        real = _StubRealization(ENV, {(20, 15, 101), (20, 15, 99)})
        out = los_adjusted_position(real, p_star, self._box(), self.DN)
        assert out.z == 101.0


LOS_MODELS = ((11.95, 0.14), (27.23, 0.08), (100.0, 10.0))


def _search_both(env, seed, trial, box, p_star, grid_step=(1.0, 1.0, 1.0)):
    """The array search and the scalar oracle on one real LoS field."""
    dn = Vec3(box.x_d, box.y_d, 0.0)
    outs = []
    for search in (los_adjusted_position, los_ring_search):
        real = EnvironmentRealization(env, seed, trial, grid_step=grid_step)
        try:
            out = search(real, p_star, box, dn)
        except NoLosPositionError:
            outs.append(None)
        except DegenerateGeometryError:
            # a floor below half a height step snaps cells onto the ground
            outs.append("degenerate")
        else:
            outs.append((out.x.hex(), out.y.hex(), out.z.hex()))
    return outs


class TestRingSearchMatchesScalarLoop:
    """The array ring search returns the cell-by-cell loop's point, bit for bit."""

    @given(
        seed=st.integers(0, 2**31),
        trial=st.integers(0, 1000),
        model=st.sampled_from(LOS_MODELS),
        eps_xy=st.sampled_from([0.5, 2.5]),
        eps_h=st.sampled_from([0.5, 2.5]),
        halves=st.tuples(
            st.integers(0, 24), st.integers(0, 24), st.integers(1, 24), st.integers(0, 10)
        ),
        where=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
    )
    @settings(max_examples=60)
    def test_matches_oracle(self, seed, trial, model, eps_xy, eps_h, halves, where):
        # extents, floor and p_star all on the half-integer lattice
        x_d, y_d, h_min, h_span = (n / 2 for n in halves)
        box = FeasibleBox(x_d, y_d, h_min, h_min + h_span)
        px, py, pz = (
            math.floor(f * 2 * hi) / 2 + lo
            for f, lo, hi in zip(where, (0, 0, h_min), (x_d, y_d, h_span))
        )
        env = EnvParams(los_a=model[0], los_b=model[1])
        new, ref = _search_both(env, seed, trial, box, Vec3(px, py, pz), (eps_xy, eps_xy, eps_h))
        assert new == ref

    def test_distance_ties_draw_the_same_member(self, monkeypatch):
        # p_star on a grid point: equidistant hits are common, and both
        # searches must hand the same tied list to the same draws of the
        # tie-break stream each builds
        sizes = []
        build = np.random.default_rng

        class Draws:
            def __init__(self, seed):
                self.gen = build(seed)

            def integers(self, n):
                sizes.append(n)
                return self.gen.integers(n)

        monkeypatch.setattr(np.random, "default_rng", Draws)
        box = FeasibleBox(12.0, 9.0, 3.0, 6.0)
        p_star, dn = Vec3(6.0, 4.0, 3.0), Vec3(12.0, 9.0, 0.0)
        tied = 0
        for seed in range(40):
            outs = []
            for search in (los_adjusted_position, los_ring_search):
                sizes.clear()
                out = search(EnvironmentRealization(ENV, seed, 0), p_star, box, dn)
                outs.append((out, list(sizes)))
            assert outs[0] == outs[1]
            tied += bool(outs[0][1])
        assert tied >= 5

    def test_destination_on_an_axis(self):
        env = EnvParams(los_a=27.23, los_b=0.08)
        for x_d, y_d in ((0.0, 30.0), (30.0, 0.0)):
            box = FeasibleBox(x_d, y_d, 5.0, 15.0)
            found = 0
            for seed in range(15):
                new, ref = _search_both(env, seed, 0, box, Vec3(x_d / 2, y_d / 2, 5.0))
                assert new == ref
                found += new is not None
            assert found > 0

    def test_flat_box(self):
        env = EnvParams(los_a=27.23, los_b=0.08)
        box = FeasibleBox(20.0, 15.0, 8.0, 8.0)
        for seed in range(15):
            new, ref = _search_both(env, seed, 2, box, Vec3(10.0, 7.5, 8.0), (0.5, 0.5, 0.5))
            assert new == ref
            assert new is None or new[2] == (8.0).hex()

    def test_exhausted_box_raises(self):
        # los_a = 100 deg: every elevation has probability near 0
        env = EnvParams(los_a=100.0, los_b=10.0)
        box = FeasibleBox(6.0, 4.0, 2.0, 5.0)
        for seed in range(3):
            assert _search_both(env, seed, 0, box, Vec3(3.0, 2.0, 2.0)) == [None, None]

    def test_cells_straight_above_a_ground_node(self):
        # p_star above the source; the rings sweep the cells above both nodes
        env = EnvParams(los_a=27.23, los_b=0.08)
        box = FeasibleBox(3.0, 2.0, 1.0, 6.0)
        for seed in range(20):
            for p_star in (Vec3(0.0, 0.0, 1.0), Vec3(3.0, 2.0, 1.0)):
                new, ref = _search_both(env, seed, 1, box, p_star)
                assert new == ref


class TestValidation:
    def test_budget_requires_positive_fields(self):
        with pytest.raises(ValueError):
            LinkBudget(n_s2v=0, n_v2d=1, p_s_tot=1, p_v_tot=1, noise1=1, noise2=1)
        with pytest.raises(ValueError):
            LinkBudget(n_s2v=1, n_v2d=1, p_s_tot=-1, p_v_tot=1, noise1=1, noise2=1)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            FeasibleBox(x_d=10, y_d=10, h_min=0.0, h_max=100)
        with pytest.raises(ValueError):
            FeasibleBox(x_d=10, y_d=10, h_min=200, h_max=100)
        with pytest.raises(ValueError):
            FeasibleBox(x_d=-5, y_d=10, h_min=100, h_max=200)

    def test_contains_uses_slack(self):
        box = _box(40, 30)
        assert box.contains(Vec3(40.0 + 1e-10, 30.0, 100.0))
        assert not box.contains(Vec3(41.0, 30.0, 100.0))

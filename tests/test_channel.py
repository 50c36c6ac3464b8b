import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdrelay.channel import (
    ROLE_S2D,
    ROLE_S2V,
    ROLE_SI,
    ROLE_V2D,
    SPEED_OF_LIGHT,
    AngleSet,
    DegenerateGeometryError,
    EnvParams,
    EnvironmentRealization,
    UpaSpec,
    Vec3,
    _hash_uniform,
    build_farfield_channel,
    build_links,
    build_si_channel,
    link_geometry,
    los_path_gain,
    los_probability,
    nlos_path_gain,
    steering_vector,
)
from oracles import los_indicator as los_indicator_oracle

ENV = EnvParams()

angles_st = st.tuples(
    st.floats(-math.pi / 2, math.pi / 2),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
).map(lambda t: AngleSet(*t))

upa_st = st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: UpaSpec(*t))


class TestSteeringVector:
    @given(upa=upa_st, ang=angles_st)
    def test_unit_modulus_and_norm(self, upa, ang):
        a = steering_vector(upa, ang)
        assert a.shape == (upa.n_tot,)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.linalg.norm(a) ** 2 == pytest.approx(upa.n_tot, rel=1e-12)

    @given(upa=upa_st, ang=angles_st)
    def test_first_element_is_phase_reference(self, upa, ang):
        a = steering_vector(upa, ang)
        assert a[0] == 1.0 + 0.0j

    def test_row_major_element_order(self):
        ang = AngleSet(0.3, 0.7)
        a = steering_vector(UpaSpec(2, 3), ang)
        base = 2.0 * math.pi * 0.5 * math.cos(0.3)
        for m in range(2):
            for n in range(3):
                expected = np.exp(
                    1j * base * (m * math.cos(0.7) + n * math.sin(0.7))
                )
                assert a[m * 3 + n] == pytest.approx(expected, abs=1e-12)

    def test_overhead_angle_gives_uniform_vector(self):
        a = steering_vector(UpaSpec(4, 4), AngleSet(math.pi / 2, 0.0))
        assert np.allclose(a, 1.0, atol=1e-9)

    @given(upa=upa_st, ang=angles_st)
    def test_matched_filter_reaches_full_array_gain(self, upa, ang):
        a = steering_vector(upa, ang)
        w = a / math.sqrt(upa.n_tot)
        gain = abs(np.vdot(w, a)) ** 2
        assert gain == pytest.approx(upa.n_tot, rel=1e-9)


class TestGeometry:
    def test_three_four_five_frozen(self):
        d, ang = link_geometry(Vec3(0, 0, 0), Vec3(300, 400, 100))
        assert d == pytest.approx(509.9019513592785, abs=1e-9)
        assert ang.elevation == pytest.approx(math.atan2(100, 500), abs=1e-12)
        assert ang.azimuth == pytest.approx(0.9272952180016122, abs=1e-12)

    def test_vertical_link(self):
        d, ang = link_geometry(Vec3(5, 5, 0), Vec3(5, 5, 120))
        assert d == pytest.approx(120.0)
        assert ang.elevation == pytest.approx(math.pi / 2)
        assert ang.azimuth == 0.0

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="degenerate geometry"):
            link_geometry(Vec3(1, 2, 3), Vec3(1, 2, 3))

    @given(
        x=st.floats(-500, 500),
        y=st.floats(-500, 500),
        z=st.floats(10, 400),
    )
    def test_azimuth_range_and_distance(self, x, y, z):
        d, ang = link_geometry(Vec3(0, 0, 0), Vec3(x, y, z))
        assert d == pytest.approx(math.sqrt(x * x + y * y + z * z), rel=1e-12)
        assert 0.0 <= ang.azimuth < 2.0 * math.pi
        assert 0.0 < ang.elevation <= math.pi / 2


class TestPathGains:
    def test_reference_amplitude_frozen(self):
        assert ENV.ref_amplitude == pytest.approx(6.278085735838083e-4, rel=1e-12)
        assert ENV.ref_amplitude == pytest.approx(
            SPEED_OF_LIGHT / (4.0 * math.pi * 38e9), rel=1e-15
        )

    def test_wavelength_frozen(self):
        assert ENV.wavelength == pytest.approx(7.889275210526316e-3, rel=1e-12)

    def test_los_gain_frozen(self):
        g = los_path_gain(100.0, ENV)
        assert g == pytest.approx(7.903641670269047e-6, rel=1e-12)

    @given(d=st.floats(1.0, 5000.0))
    def test_los_gain_formula(self, d):
        assert los_path_gain(d, ENV) == pytest.approx(
            ENV.ref_amplitude * d ** (-ENV.alpha_los / 2.0), rel=1e-12
        )

    @given(d=st.floats(1.0, 5000.0))
    def test_nlos_gain_applies_steeper_exponent(self, d):
        draw = 0.3 - 0.4j
        g = nlos_path_gain(d, ENV, draw)
        assert g == pytest.approx(
            ENV.ref_amplitude * d ** (-ENV.alpha_nlos / 2.0) * draw, rel=1e-12
        )

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            los_path_gain(0.0, ENV)


class TestLosProbability:
    def test_frozen_values(self):
        assert los_probability(math.radians(11.95), ENV) == pytest.approx(
            0.07722007722007722, rel=1e-12
        )
        assert los_probability(math.pi / 2, ENV) == pytest.approx(
            0.9997853460579836, rel=1e-12
        )
        assert los_probability(0.0, ENV) == pytest.approx(
            0.015462849710898698, rel=1e-12
        )

    @given(
        lo=st.floats(0.0, math.pi / 2),
        hi=st.floats(0.0, math.pi / 2),
    )
    def test_monotone_in_elevation(self, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        assert los_probability(lo, ENV) <= los_probability(hi, ENV) + 1e-15

    @given(theta=st.floats(0.0, math.pi / 2))
    def test_is_a_probability(self, theta):
        p = los_probability(theta, ENV)
        assert 0.0 < p < 1.0


class TestHashUniform:
    def test_deterministic(self):
        a = _hash_uniform(7, 3, "S2V", 10, 20, 100)
        b = _hash_uniform(7, 3, "S2V", 10, 20, 100)
        assert a == b

    def test_sensitive_to_every_part(self):
        base = _hash_uniform(7, 3, "S2V", 10, 20, 100)
        assert base != _hash_uniform(8, 3, "S2V", 10, 20, 100)
        assert base != _hash_uniform(7, 4, "S2V", 10, 20, 100)
        assert base != _hash_uniform(7, 3, "V2D", 10, 20, 100)
        assert base != _hash_uniform(7, 3, "S2V", 11, 20, 100)

    @given(seed=st.integers(0, 2**32), trial=st.integers(0, 10**6))
    def test_uniform_range(self, seed, trial):
        u = _hash_uniform(seed, trial, "S2V", 0, 0, 0)
        assert 0.0 <= u < 1.0


class TestEnvironmentRealization:
    def test_los_indicator_is_cell_consistent(self):
        real = EnvironmentRealization(ENV, master_seed=5, trial_index=2)
        ground = Vec3(0, 0, 0)
        a = real.los_indicator(ROLE_S2V, ground, Vec3(10.2, 20.3, 100.4))
        b = real.los_indicator(ROLE_S2V, ground, Vec3(9.8, 19.8, 99.8))
        assert a == b

    def test_los_indicator_deterministic_across_instances(self):
        ground, uav = Vec3(0, 0, 0), Vec3(150, 90, 140)
        vals = [
            EnvironmentRealization(ENV, 5, 2).los_indicator(ROLE_S2V, ground, uav)
            for _ in range(2)
        ]
        assert vals[0] == vals[1]

    def test_los_indicator_rejects_non_ground_roles(self):
        real = EnvironmentRealization(ENV, 5, 2)
        with pytest.raises(ValueError):
            real.los_indicator(ROLE_SI, Vec3(0, 0, 0), Vec3(1, 1, 100))

    def test_nlos_draws_reproducible_and_cached(self):
        a = EnvironmentRealization(ENV, 11, 4).nlos_draws(ROLE_V2D)
        real = EnvironmentRealization(ENV, 11, 4)
        b = real.nlos_draws(ROLE_V2D)
        assert a == b
        assert real.nlos_draws(ROLE_V2D) is b

    def test_nlos_draws_match_documented_stream(self):
        real = EnvironmentRealization(ENV, 11, 4)
        draws = real.nlos_draws(ROLE_S2V)
        rng = np.random.default_rng(np.random.SeedSequence((11, 4, 11, 1)))
        for d in draws:
            dep_az = rng.uniform(0.0, 2.0 * math.pi)
            dep_el = rng.uniform(0.0, math.pi / 2)
            arr_az = rng.uniform(0.0, 2.0 * math.pi)
            arr_el = rng.uniform(0.0, math.pi / 2)
            re, im = rng.normal(0.0, ENV.sigma_f / math.sqrt(2.0), size=2)
            assert d.departure == AngleSet(dep_el, dep_az)
            assert d.arrival == AngleSet(arr_el, arr_az)
            assert d.gain == complex(re, im)

    def test_nlos_draws_differ_between_roles(self):
        real = EnvironmentRealization(ENV, 11, 4)
        assert real.nlos_draws(ROLE_S2V) != real.nlos_draws(ROLE_V2D)

    def test_quantize_uses_grid_step(self):
        real = EnvironmentRealization(ENV, 0, 0, grid_step=(2.0, 1.0, 0.5))
        assert real.quantize(Vec3(3.1, 3.1, 3.1)) == (2, 3, 6)

    def test_positions_above_ground_skip_the_ground_layer(self):
        # a relay below half a height step used to share layer 0 with the
        # ground nodes, where a cell over a node has no elevation
        real = EnvironmentRealization(ENV, 0, 0, grid_step=(1.0, 1.0, 2.5))
        assert real.quantize(Vec3(3.0, 4.0, 0.4)) == (3, 4, 1)
        assert real.quantize(Vec3(3.0, 4.0, 1.25)) == (3, 4, 1)
        assert real.quantize(Vec3(3.0, 4.0, 0.0)) == (3, 4, 0)
        assert real.quantize(Vec3(3.0, 4.0, 3.8)) == (3, 4, 2)


LOS_MODELS = ((11.95, 0.14), (27.23, 0.08), (100.0, 10.0))


class TestLosCells:
    """los_cells must equal the per-cell definition of the LoS field."""

    @given(
        seed=st.integers(0, 2**31),
        trial=st.integers(0, 500),
        model=st.sampled_from(LOS_MODELS),
        step=st.sampled_from([(1.0, 1.0, 1.0), (0.5, 0.5, 2.5), (2.5, 2.5, 0.5)]),
        ground_xyz=st.tuples(st.integers(0, 40), st.integers(0, 40), st.sampled_from([0.0, 1.5])),
        role=st.sampled_from([ROLE_S2V, ROLE_V2D]),
    )
    def test_matches_oracle(self, seed, trial, model, step, ground_xyz, role):
        env = EnvParams(los_a=model[0], los_b=model[1])
        real = EnvironmentRealization(env, seed, trial, grid_step=step)
        ground = Vec3(*map(float, ground_xyz))
        rng = np.random.default_rng(seed)
        xyz = np.column_stack(
            [rng.uniform(0, 60, 300), rng.uniform(0, 60, 300), rng.uniform(3.0, 120, 300)]
        )
        # cells straight above the ground node and on half-step rounding ties
        xyz[:20, :2] = ground.x, ground.y
        xyz[20:40] = np.round(xyz[20:40] / step) * step + 0.5 * np.asarray(step)
        cells = real.quantize_xyz(xyz[:, 0], xyz[:, 1], xyz[:, 2])
        ref = [los_indicator_oracle(real, role, ground, Vec3(*row)) for row in xyz.tolist()]
        assert real.los_cells(role, ground, cells.tolist()) == ref
        assert real.los_cells(role, ground, cells.astype(float).tolist()) == ref
        assert [real.los_indicator(role, ground, Vec3(*row)) for row in xyz.tolist()] == ref

    def test_cell_on_the_ground_node_is_degenerate(self):
        real = EnvironmentRealization(ENV, 1, 1)
        with pytest.raises(DegenerateGeometryError):
            real.los_cells(ROLE_S2V, Vec3(3.0, 4.0, 0.0), [(5, 5, 5), (3, 4, 0)])

    def test_empty_and_role_check(self):
        real = EnvironmentRealization(ENV, 1, 1)
        assert real.los_cells(ROLE_S2V, Vec3(0, 0, 0), []) == []
        with pytest.raises(ValueError):
            real.los_cells(ROLE_S2D, Vec3(0, 0, 0), [(1, 1, 1)])

    def test_quantize_xyz_matches_quantize(self):
        real = EnvironmentRealization(ENV, 0, 0, grid_step=(2.0, 1.0, 0.5))
        xyz = np.array([[3.1, 3.1, 3.1], [1.0, 0.5, 0.25], [3.0, 2.5, 0.75], [-1.0, -0.5, 5.0]])
        cells = real.quantize_xyz(xyz[:, 0], xyz[:, 1], xyz[:, 2])
        assert cells.dtype == np.int64
        assert [tuple(c) for c in cells.tolist()] == [real.quantize(Vec3(*r)) for r in xyz.tolist()]
        # cells past the int64 range stay integral floats
        huge = np.array([2.0**70, 3.0, -(2.0**64)])
        cells = real.quantize_xyz(huge, huge, huge)
        assert [tuple(c) for c in cells.tolist()] == [real.quantize(Vec3(v, v, v)) for v in huge]


class TestFarfieldChannel:
    def _channel(self, role, seed=3):
        real = EnvironmentRealization(ENV, seed, 0)
        src = Vec3(0, 0, 0)
        dst = Vec3(120, 90, 130)
        return build_farfield_channel(
            role, real, ENV, src, dst, UpaSpec(2, 2), UpaSpec(3, 2)
        )

    def test_matrix_equals_component_sum(self):
        ch = self._channel(ROLE_S2V)
        acc = np.zeros_like(ch.entries)
        for comp in ch.components:
            a_rx = steering_vector(UpaSpec(3, 2), comp.arrival)
            a_tx = steering_vector(UpaSpec(2, 2), comp.departure)
            acc += comp.gain * np.outer(a_rx, a_tx.conj())
        assert np.allclose(ch.entries, acc, atol=1e-18)

    def test_shape_is_rx_by_tx(self):
        ch = self._channel(ROLE_S2V)
        assert ch.entries.shape == (6, 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_blocked_direct_link_never_has_los(self, seed):
        ch = self._channel(ROLE_S2D, seed)
        assert all(not c.is_los for c in ch.components)
        assert len(ch.components) == ENV.num_nlos

    def test_los_component_matches_indicator_and_gain(self):
        real = EnvironmentRealization(ENV, 3, 0)
        src, dst = Vec3(0, 0, 0), Vec3(120, 90, 130)
        ch = build_farfield_channel(
            ROLE_S2V, real, ENV, src, dst, UpaSpec(2, 2), UpaSpec(3, 2)
        )
        los = [c for c in ch.components if c.is_los]
        if real.los_indicator(ROLE_S2V, src, dst):
            assert len(los) == 1
            d, ang = link_geometry(src, dst)
            assert los[0].gain == pytest.approx(los_path_gain(d, ENV), rel=1e-12)
            assert los[0].departure == ang
            assert los[0].arrival == ang
        else:
            assert not los

    def test_los_steering_shared_between_ends(self):
        for seed in range(20):
            real = EnvironmentRealization(ENV, seed, 0)
            src, dst = Vec3(0, 0, 0), Vec3(200, 50, 110)
            ch = build_farfield_channel(
                ROLE_S2V, real, ENV, src, dst, UpaSpec(2, 2), UpaSpec(2, 2)
            )
            los = [c for c in ch.components if c.is_los]
            if los:
                assert los[0].departure == los[0].arrival
                return
        pytest.fail("no trial produced a LoS draw")


class TestSelfInterference:
    def test_single_element_frozen(self):
        ch = build_si_channel(ENV, UpaSpec(1, 1), UpaSpec(1, 1))
        assert ch.entries.shape == (1, 1)
        val = ch.entries[0, 0]
        assert abs(val) == pytest.approx(7.008772951635888e-3, rel=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-12 * abs(val))

    def test_entry_formula(self):
        from fdrelay.channel import si_element_distances

        tx, rx = UpaSpec(2, 3), UpaSpec(3, 2)
        ch = build_si_channel(ENV, tx, rx)
        r = si_element_distances(ENV, tx, rx)
        expected = (
            ENV.ref_amplitude
            * r ** (-ENV.alpha_los / 2.0)
            * np.exp(-2j * math.pi * r / ENV.wavelength)
        )
        assert np.allclose(ch.entries, expected, rtol=1e-12)
        assert ch.entries.shape == (6, 6)

    def test_panels_stack_vertically(self):
        from fdrelay.channel import si_element_distances

        r = si_element_distances(ENV, UpaSpec(1, 1), UpaSpec(1, 1))
        assert r[0, 0] == pytest.approx(10.0 * ENV.wavelength, rel=1e-12)
        r44 = si_element_distances(ENV, UpaSpec(4, 4), UpaSpec(4, 4))
        assert r44.min() == pytest.approx(10.0 * ENV.wavelength, rel=1e-12)
        assert r44.max() > r44.min()

    def test_si_has_no_farfield_components(self):
        ch = build_si_channel(ENV, UpaSpec(2, 2), UpaSpec(2, 2))
        assert ch.components == ()
        assert ch.role == ROLE_SI


class TestLinkSet:
    def test_shapes_roles_and_angles(self):
        real = EnvironmentRealization(ENV, 9, 0)
        sn, dn, uav = Vec3(0, 0, 0), Vec3(400, 300, 0), Vec3(200, 150, 100)
        links = build_links(
            real, ENV, sn, dn, uav, UpaSpec(2, 2), UpaSpec(3, 3), UpaSpec(4, 4), UpaSpec(5, 5)
        )
        assert links.s2v.entries.shape == (9, 4)
        assert links.si.entries.shape == (9, 16)
        assert links.v2d.entries.shape == (25, 16)
        assert links.s2d.entries.shape == (25, 4)
        assert links.s2v.role == ROLE_S2V
        assert links.v2d.role == ROLE_V2D
        _, ang_s2v = link_geometry(sn, uav)
        _, ang_v2d = link_geometry(dn, uav)
        assert links.s2v_angles == ang_s2v
        assert links.v2d_angles == ang_v2d

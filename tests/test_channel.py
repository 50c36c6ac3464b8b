import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdrelay import channel
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
    _digest_uniforms,
    build_farfield_channel,
    build_links,
    build_si_channel,
    link_geometry,
    los_path_gain,
    los_probability,
    nlos_path_gain,
    steering_matrix,
    steering_vector,
    wrap_azimuth,
)
from oracles import hash_uniform
from oracles import los_indicator as los_indicator_oracle
from oracles import quantize as quantize_oracle
from oracles import steering_vector as steering_vector_oracle

ENV = EnvParams()


def _snap(real, x, y, z):
    """quantize_axes on one point, checked against the oracle's snap."""
    cell = tuple(c.item() for c in real.quantize_axes(np.array([x]), np.array([y]), np.array([z])))
    assert cell == quantize_oracle(real, Vec3(x, y, z))
    return cell


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


_TWO_PI_BELOW = math.nextafter(2.0 * math.pi, 0.0)
edge_angles_st = st.tuples(
    st.one_of(st.sampled_from([-math.pi / 2, math.pi / 2]), st.floats(-math.pi / 2, math.pi / 2)),
    st.one_of(st.sampled_from([0.0, _TWO_PI_BELOW]),
              st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
).map(lambda t: AngleSet(*t))
edge_upa_st = st.builds(
    UpaSpec,
    st.one_of(st.just(1), st.integers(1, 9)),
    st.one_of(st.just(1), st.integers(1, 9)),
)


class TestSteeringMatrix:
    @given(upa=edge_upa_st, angles=st.lists(edge_angles_st, min_size=1, max_size=6))
    def test_every_row_is_the_steering_vector_bit_for_bit(self, upa, angles):
        a = steering_matrix(upa, angles)
        assert a.shape == (len(angles), upa.n_tot)
        for row, ang in zip(a, angles):
            assert row.tobytes() == steering_vector(upa, ang).tobytes()
            assert row.tobytes() == steering_vector_oracle(upa, ang).tobytes()

    def test_no_angles_give_an_empty_matrix(self):
        assert steering_matrix(UpaSpec(2, 3), []).shape == (0, 6)


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
        a = hash_uniform(7, 3, "S2V", 10, 20, 100)
        b = hash_uniform(7, 3, "S2V", 10, 20, 100)
        assert a == b

    def test_sensitive_to_every_part(self):
        base = hash_uniform(7, 3, "S2V", 10, 20, 100)
        assert base != hash_uniform(8, 3, "S2V", 10, 20, 100)
        assert base != hash_uniform(7, 4, "S2V", 10, 20, 100)
        assert base != hash_uniform(7, 3, "V2D", 10, 20, 100)
        assert base != hash_uniform(7, 3, "S2V", 11, 20, 100)

    @given(seed=st.integers(0, 2**32), trial=st.integers(0, 10**6))
    def test_uniform_range(self, seed, trial):
        u = hash_uniform(seed, trial, "S2V", 0, 0, 0)
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

    @pytest.mark.parametrize("step", [(0.0, 1.0, 1.0), (1.0, 1.0, -1.0)])
    def test_non_positive_grid_step_rejected(self, step):
        with pytest.raises(ValueError, match="grid steps must be positive"):
            EnvironmentRealization(ENV, 0, 0, grid_step=step)

    def test_quantize_uses_grid_step(self):
        real = EnvironmentRealization(ENV, 0, 0, grid_step=(2.0, 1.0, 0.5))
        assert _snap(real, 3.1, 3.1, 3.1) == (2, 3, 6)

    def test_positions_above_ground_skip_the_ground_layer(self):
        # a relay below half a height step used to share layer 0 with the
        # ground nodes, where a cell over a node has no elevation
        real = EnvironmentRealization(ENV, 0, 0, grid_step=(1.0, 1.0, 2.5))
        assert _snap(real, 3.0, 4.0, 0.4) == (3, 4, 1)
        assert _snap(real, 3.0, 4.0, 1.25) == (3, 4, 1)
        assert _snap(real, 3.0, 4.0, 0.0) == (3, 4, 0)
        assert _snap(real, 3.0, 4.0, 3.8) == (3, 4, 2)


LOS_MODELS = ((11.95, 0.14), (27.23, 0.08), (100.0, 10.0))


def _route_states(real, role, ground, cells):
    """LoS states of (n, 3) cells through one LosRoute over the sorted
    values of their columns."""
    cells = np.asarray(cells).reshape(-1, 3)
    runs, at = zip(*(np.unique(column, return_inverse=True) for column in cells.T))
    return real.los_route(role, ground, runs).decide(*at)


class TestLosCells:
    """The LoS route and los_indicator must equal the per-cell definition of
    the LoS field."""

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
        # cells straight above the ground node, on half-step rounding ties,
        # and heights below half a step, which take layer 1
        xyz[:20, :2] = ground.x, ground.y
        xyz[20:40] = np.round(xyz[20:40] / step) * step + 0.5 * np.asarray(step)
        xyz[40:60, 2] = rng.uniform(0.0, 0.5, 20) * step[2]
        xyz[40, 2] = 0.5 * step[2]
        cells = np.column_stack(real.quantize_axes(xyz[:, 0], xyz[:, 1], xyz[:, 2]))
        assert (cells[40:60, 2] == 1).all()
        ref = [los_indicator_oracle(real, role, ground, Vec3(*row)) for row in xyz.tolist()]
        assert _route_states(real, role, ground, cells).tolist() == ref
        assert _route_states(real, role, ground, cells.astype(float)).tolist() == ref
        assert [real.los_indicator(role, ground, Vec3(*row)) for row in xyz.tolist()] == ref

    @pytest.mark.parametrize("role", [ROLE_S2V, ROLE_V2D])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_route_keys_are_the_cell_keys(self, role, dtype, monkeypatch):
        # ring by ring, an i fragment hashed once per run of equal x
        # positions and a (j, k) tail per cell hash the bytes of the
        # "master_seed|trial_index|role|%d|%d|%d" key of every cell, in input
        # order; the y and z fragments hold only the entries between the
        # least and greatest positions (the others are NaN, which b"%d"
        # refuses)
        seed, trial = 12, 34
        real = EnvironmentRealization(ENV, seed, trial)
        axes = [np.arange(-40, 41).astype(dtype), np.arange(-25.0, 30.0), np.arange(0.0, 33.0)]
        if dtype is np.float64:
            axes[0] *= 2.0**57  # integral floats past 2**62
        runs = [run.copy() for run in axes]
        hashed, uniforms = [], channel._digest_uniforms
        monkeypatch.setattr(channel, "_digest_uniforms", lambda d: hashed.append(d) or uniforms(d))
        route = real.los_route(role, Vec3(0.5, 0.25, 0.0), runs)
        origin = (40, 25)
        rng = np.random.default_rng(0)
        key = f"{seed}|{trial}|{role}|%d|%d|%d".encode()
        for t in range(1, 36):
            bounds = [(max(0, o - t), min(len(a) - 1, o + t)) for o, a in zip(origin, axes)]
            bounds.append((0, min(t, len(axes[2]) - 1)))
            at = [rng.integers(lo, hi + 1, 40) for lo, hi in bounds]
            for run, axis, p in zip(runs[1:], axes[1:], at[1:]):
                run[:] = np.nan
                run[p.min() : p.max() + 1] = axis[p.min() : p.max() + 1]
            # the x positions sorted, where some cells share a head, and shuffled
            sorted_x = np.sort(at[0])
            assert (sorted_x[1:] == sorted_x[:-1]).any()
            for x in (sorted_x, rng.permutation(at[0])):
                hashed.clear()
                route.decide(x, at[1], at[2])
                cells = zip(*(a[p].tolist() for a, p in zip(axes, (x, *at[1:]))))
                assert hashed == [b"".join(hashlib.sha256(key % cell).digest() for cell in cells)]

    def test_cell_on_the_ground_node_is_degenerate(self):
        real = EnvironmentRealization(ENV, 1, 1)
        ground = Vec3(3.0, 4.0, 0.0)
        with pytest.raises(DegenerateGeometryError):
            _route_states(real, ROLE_S2V, ground, [(5, 5, 5), (3, 4, 0)])
        with pytest.raises(DegenerateGeometryError):
            real.los_indicator(ROLE_S2V, ground, ground)

    def test_empty_and_role_check(self):
        real = EnvironmentRealization(ENV, 1, 1)
        assert _route_states(real, ROLE_S2V, Vec3(0, 0, 0), []).tolist() == []
        with pytest.raises(ValueError):
            real.los_route(ROLE_S2D, Vec3(0, 0, 0), ([1], [1], [1]))
        with pytest.raises(ValueError):
            real.los_indicator(ROLE_S2D, Vec3(0, 0, 0), Vec3(1, 1, 1))

    def test_quantize_axes_matches_oracle(self):
        real = EnvironmentRealization(ENV, 0, 0, grid_step=(2.0, 1.0, 0.5))
        xyz = np.array([[3.1, 3.1, 3.1], [1.0, 0.5, 0.25], [3.0, 2.5, 0.75], [-1.0, -0.5, 5.0]])
        cells = np.column_stack(real.quantize_axes(xyz[:, 0], xyz[:, 1], xyz[:, 2]))
        assert cells.dtype == np.float64
        assert [tuple(c) for c in cells.tolist()] == [quantize_oracle(real, Vec3(*r)) for r in xyz.tolist()]
        # and past the int64 range
        huge = np.array([2.0**70, 3.0, -(2.0**64)])
        cells = np.column_stack(real.quantize_axes(huge, huge, huge))
        assert cells.dtype == np.float64
        assert [tuple(c) for c in cells.tolist()] == [quantize_oracle(real, Vec3(v, v, v)) for v in huge]

    def test_los_indicator_past_the_int64_range(self):
        # a cell past 2**62 is an integral float on the route and a Python
        # int on the one-cell route; both give the same key and center
        real = EnvironmentRealization(ENV, 3, 1)
        ground, uav = Vec3(0.0, 0.0, 0.0), Vec3(2.0**70, 3.0, 100.0)
        want = _route_states(real, ROLE_S2V, ground, [(2.0**70, 3.0, 100.0)])[0]
        assert real.los_indicator(ROLE_S2V, ground, uav) == want
        assert want == los_indicator_oracle(real, ROLE_S2V, ground, uav)


def _oracle_cells(real, role, ground, cells):
    """The per-cell definition at each cell's center."""
    ex, ey, eh = real.grid_step
    return [
        los_indicator_oracle(real, role, ground, Vec3(i * ex, j * ey, k * eh))
        for i, j, k in np.asarray(cells).tolist()
    ]


def _indicator_cells(real, role, ground, cells):
    """los_indicator at each cell's center."""
    ex, ey, eh = real.grid_step
    return [
        real.los_indicator(role, ground, Vec3(i * ex, j * ey, k * eh))
        for i, j, k in np.asarray(cells).tolist()
    ]


def _decided(real, role, ground, cells):
    """The cells' states, asserting that the route, los_indicator at each
    center and the per-cell definition decide every cell alike."""
    got = _route_states(real, role, ground, cells).tolist()
    assert got == _oracle_cells(real, role, ground, cells)
    assert _indicator_cells(real, role, ground, cells) == got
    return got


def _near_tie(seed, trial, ground, a):
    """A cell and a los_b that put the cell's probability on its uniform."""
    for i in range(1, 200):
        cell = (i, 2 * i, 50)
        u = hash_uniform(seed, trial, ROLE_S2V, *cell)
        _, angles = link_geometry(ground, Vec3(*map(float, cell)))
        deg = math.degrees(angles.elevation)
        b = -math.log((1.0 / u - 1.0) / a) / (deg - a)
        if b > 0:
            return cell, b
    raise AssertionError("no cell admits a tie")


def _los_chain(dx, dy, dz, env):
    """The rule's probability: los_probability at arctan2(dz, hypot(dx, dy))."""
    return los_probability(np.arctan2(dz, np.hypot(dx, dy)), env)


class TestLosRuleEdges:
    """The route, los_indicator and the definition on the cells where the
    rule's arithmetic is at its edges: elevation 90 deg, an exponential
    that overflows, and a uniform on its probability."""

    @pytest.mark.parametrize("model", [(27.23, 0.08), (100.0, 10.0)])
    def test_rule_is_the_same_on_every_length(self, model):
        # numpy picks SIMD loops by length and alignment; the route decides
        # a pass's cells in one call and los_indicator one cell, so the
        # chain must give each element the same bits at every length, from
        # the start or to the end of an array, and on a lone scalar
        env = EnvParams(los_a=model[0], los_b=model[1])
        rng = np.random.default_rng(21)
        n = 4096
        dx, dy = rng.uniform(-500.0, 500.0, (2, n))
        dz = rng.uniform(0.5, 300.0, n)
        dx[:64] = dy[:64] = 0.0
        full = _los_chain(dx, dy, dz, env)
        if model[1] > 1.0:
            assert 0 < (full == 0.0).sum() < n
        for m in range(1, n + 1):
            head = _los_chain(dx[:m], dy[:m], dz[:m], env)
            tail = _los_chain(dx[n - m :], dy[n - m :], dz[n - m :], env)
            assert head.tobytes() == full[:m].tobytes()
            assert tail.tobytes() == full[n - m :].tobytes()
        for i in range(0, n, 61):
            assert _los_chain(float(dx[i]), float(dy[i]), float(dz[i]), env) == full[i]

    def test_cells_straight_above_the_ground_node(self):
        # p = 0.85 at 90 deg (horiz 0, arctan2 gives pi/2): both states occur
        env = EnvParams(los_a=27.23, los_b=0.08)
        real = EnvironmentRealization(env, 3, 4)
        ground = Vec3(5.0, 7.0, 0.0)
        cells = np.array([(5, 7, k) for k in range(1, 120)])
        got = _decided(real, ROLE_V2D, ground, cells)
        p90 = los_probability(math.pi / 2, env)
        us = [hash_uniform(3, 4, ROLE_V2D, *cell) for cell in cells.tolist()]
        assert min(abs(u - p90) for u in us) > 1e-6
        assert got == [u < p90 for u in us]
        assert 0 < sum(got) < len(cells)

    def test_exp_overflow_model(self):
        # los_a = 100, los_b = 10: the exponential overflows below ~29 deg
        real = EnvironmentRealization(EnvParams(los_a=100.0, los_b=10.0), 5, 6)
        rng = np.random.default_rng(0)
        cells = np.column_stack(
            [rng.integers(1, 300, 400), rng.integers(-300, 300, 400), rng.integers(1, 200, 400)]
        )
        elevation = np.arctan(cells[:, 2] / np.hypot(cells[:, 0], cells[:, 1]))
        assert (np.degrees(elevation) < 29.0).mean() > 0.5
        _decided(real, ROLE_S2V, Vec3(0.0, 0.0, 0.0), cells)

    def test_exponent_at_the_overflow_edge(self):
        # los_a = 100 and seven los_b an ulp apart put the first cell's
        # exponent on exp's overflow edge; its companion lies at the ground
        # node's height, at elevation 0
        cells = [(40, 30, 20), (40, 30, 0)]
        ground = Vec3(0.0, 0.0, 0.0)
        _, angles = link_geometry(ground, Vec3(*map(float, cells[0])))
        edge = math.log(np.finfo(float).max) / (100.0 - math.degrees(angles.elevation))
        for step in range(-3, 4):
            env = EnvParams(los_a=100.0, los_b=edge * (1.0 + step * 2.0**-52))
            assert _decided(EnvironmentRealization(env, 1, 1), ROLE_S2V, ground, cells) == [False] * 2

    def test_bound_past_the_overflow_edge_with_a_small_los_a(self):
        # los_a = 2.5, los_b = 1000: the exponential overflows at every
        # cell, so p = 0 and no cell has LoS
        env = EnvParams(los_a=2.5, los_b=1000.0)
        real = EnvironmentRealization(env, 2, 9)
        cells = [(1000 + n, n, 20) for n in range(50)]
        with pytest.raises(OverflowError):
            math.exp(-env.los_b * (math.degrees(math.atan(20 / 1000)) - env.los_a))
        assert los_probability(math.atan(20 / 1000), env) == 0.0
        assert _decided(real, ROLE_S2V, Vec3(0.0, 0.0, 0.0), cells) == [False] * 50

    def test_integral_float_cells_past_2_62(self):
        real = EnvironmentRealization(ENV, 1, 2)
        cells = np.array(
            [
                [2.0**63, 3.0, 5.0],
                [-(2.0**63), 2.0**63, 7.0],
                [2.0**70, -(2.0**64), 2.0**62 + 2048],
                [5.0, 5.0, 2.0**66],
            ]
        )
        _decided(real, ROLE_S2V, Vec3(1.0, 2.0, 0.0), cells)

    def test_empty_input(self):
        real = EnvironmentRealization(ENV, 1, 1)
        for cells in ([], np.empty((0, 3), dtype=np.int64), np.empty((0, 3))):
            out = _route_states(real, ROLE_V2D, Vec3(0.0, 0.0, 0.0), cells)
            assert out.dtype == bool and out.shape == (0,)

    @pytest.mark.parametrize("sign", [-1, 0, 1])
    def test_near_tie_is_decided_alike(self, sign):
        # a cell whose uniform lies on its probability, with los_b at the
        # tie and an ulp either side, is decided alike by the route among
        # 299 other cells and by los_indicator alone
        seed, trial, ground, a = 11, 3, Vec3(0.0, 0.0, 0.0), 27.23
        cell, b = _near_tie(seed, trial, ground, a)
        env = EnvParams(los_a=a, los_b=b * (1.0 + sign * 2.0**-52))
        real = EnvironmentRealization(env, seed, trial)
        u = hash_uniform(seed, trial, ROLE_S2V, *cell)
        _, angles = link_geometry(ground, Vec3(*map(float, cell)))
        assert abs(u - los_probability(angles.elevation, env)) <= 1e-12 * u
        rng = np.random.default_rng(seed)
        cells = np.column_stack(
            [rng.integers(1, 80, 300), rng.integers(1, 80, 300), rng.integers(1, 120, 300)]
        )
        cells[150] = cell
        got = _decided(real, ROLE_S2V, ground, cells)
        assert _decided(real, ROLE_S2V, ground, [cell]) == [got[150]]


class TestDigestUniforms:
    def test_matches_the_int_conversion(self):
        heads = [
            0xFFFF_FFFF_FFFF_FFFF,  # rounds to 1.0 on both routes
            0,
            1,
            2**53 + 1,
            2**63 + 2**10 + 1,
            2**63 + 2**11,
            0x8000_0000_0000_0400,
        ] + np.random.default_rng(0).integers(0, 2**63, 200).tolist()
        digests = b"".join(h.to_bytes(8, "big") + bytes(range(24)) for h in heads)
        got = _digest_uniforms(digests).tolist()
        assert got == [h / 2.0**64 for h in heads]
        assert got[0] == 1.0


class TestFarfieldChannel:
    def _channel(self, role, seed=3):
        real = EnvironmentRealization(ENV, seed, 0)
        src = Vec3(0, 0, 0)
        dst = Vec3(120, 90, 130)
        return build_farfield_channel(
            role, real, src, dst, UpaSpec(2, 2), UpaSpec(3, 2)
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
            ROLE_S2V, real, src, dst, UpaSpec(2, 2), UpaSpec(3, 2)
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
                ROLE_S2V, real, src, dst, UpaSpec(2, 2), UpaSpec(2, 2)
            )
            los = [c for c in ch.components if c.is_los]
            if los:
                assert los[0].departure == los[0].arrival
                return
        pytest.fail("no trial produced a LoS draw")


class TestReadOnlyChannels:
    def test_entries_and_their_conjugate_transpose_refuse_writes(self):
        ch = build_si_channel(ENV, UpaSpec(2, 2), UpaSpec(2, 3))
        with pytest.raises(ValueError, match="read-only"):
            ch.entries[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ch.entries *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            ch.conj_t[0, 0] = 0.0

    def test_conjugate_transpose_is_made_once(self):
        ch = build_si_channel(ENV, UpaSpec(2, 2), UpaSpec(2, 3))
        assert ch.conj_t is ch.conj_t
        assert ch.conj_t.tobytes() == ch.entries.conj().T.tobytes()
        assert ch.conj_t.shape == (4, 6)


class TestAzimuthWrap:
    def test_tiny_negative_angle_wraps_to_zero(self):
        assert (-1e-17) % (2.0 * math.pi) == 2.0 * math.pi
        assert wrap_azimuth(-1e-17) == 0.0
        assert wrap_azimuth(2.0 * math.pi) == 0.0
        assert wrap_azimuth(-0.5) == -0.5 % (2.0 * math.pi)
        assert wrap_azimuth(7.0) == 7.0 - 2.0 * math.pi

    def test_perturbed_angle_gets_azimuth_zero_steering(self):
        from fdrelay.harness import _perturbed_angles

        ang = _perturbed_angles(AngleSet(0.3, 0.0), 0.0, -1e-17)
        assert ang.azimuth == 0.0
        upa = UpaSpec(3, 3)
        assert steering_vector(upa, ang).tobytes() == steering_vector(
            upa, AngleSet(0.3, 0.0)).tobytes()


class TestSelfInterference:
    def test_built_once_per_array_pair(self):
        a = build_si_channel(ENV, UpaSpec(3, 2), UpaSpec(2, 3))
        assert build_si_channel(EnvParams(), UpaSpec(3, 2), UpaSpec(2, 3)) is a
        assert build_si_channel(ENV, UpaSpec(2, 3), UpaSpec(2, 3)) is not a

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

    def test_entries_have_the_bits_of_the_plain_expression(self):
        # the in-place build against the expression it replaces, for square
        # and rectangular panels both ways round and three environments;
        # alpha_los = 2 takes r to the power -1
        from fdrelay.channel import si_element_distances

        envs = (ENV, EnvParams(alpha_los=2.0, alpha_nlos=3.0), EnvParams(fc_hz=28e9, alpha_los=1.6))
        shapes = ((1, 1), (2, 3), (3, 2), (4, 4), (1, 8), (8, 1), (5, 7))
        for env in envs:
            for tx in shapes:
                for rx in shapes:
                    tx_upa, rx_upa = UpaSpec(*tx), UpaSpec(*rx)
                    r = si_element_distances(env, tx_upa, rx_upa)
                    amp = env.ref_amplitude * r ** (-env.alpha_los / 2.0)
                    plain = amp * np.exp(-2j * math.pi * r / env.wavelength)
                    got = build_si_channel(env, tx_upa, rx_upa).entries
                    assert got.tobytes() == plain.tobytes(), (env, tx, rx)

    def test_build_holds_one_complex_buffer(self):
        # the distances' buffer becomes the amplitudes, so the peak is the
        # result plus one real array (three results before)
        import tracemalloc

        channel.build_si_channel.cache_clear()
        tracemalloc.start()
        try:
            entries = build_si_channel(ENV, UpaSpec(16, 16), UpaSpec(16, 16)).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * entries.nbytes

    def test_panels_stack_vertically(self):
        from fdrelay.channel import si_element_distances

        r = si_element_distances(ENV, UpaSpec(1, 1), UpaSpec(1, 1))
        assert r[0, 0] == pytest.approx(10.0 * ENV.wavelength, rel=1e-12)
        r44 = si_element_distances(ENV, UpaSpec(4, 4), UpaSpec(4, 4))
        assert r44.min() == pytest.approx(10.0 * ENV.wavelength, rel=1e-12)
        assert r44.max() > r44.min()

    def test_distances_have_the_bits_of_the_3d_form(self):
        # the in-place per-axis sum against np.sum over an (N_r, N_t, 3)
        # difference, for square and rectangular panels, rx shape != tx too
        offset = ENV.panel_separation * ENV.wavelength
        for n in range(1, 17):
            for m in sorted({1, max(1, n // 2), n, 16}):
                tx = UpaSpec(n, m)
                for rx_upa in (tx, UpaSpec(m, n), UpaSpec(17 - n, m)):
                    tx_pos = channel._panel_element_positions(tx, ENV, 0.0)
                    rx_pos = channel._panel_element_positions(rx_upa, ENV, offset)
                    diff = rx_pos[:, None, :] - tx_pos[None, :, :]
                    plain = np.sqrt(np.sum(diff * diff, axis=2))
                    r = channel.si_element_distances(ENV, tx, rx_upa)
                    assert r.tobytes() == plain.tobytes(), (tx, rx_upa)

    def test_si_has_no_farfield_components(self):
        ch = build_si_channel(ENV, UpaSpec(2, 2), UpaSpec(2, 2))
        assert ch.components == ()
        assert ch.role == ROLE_SI


class TestLinkSet:
    def test_shapes_roles_and_angles(self):
        real = EnvironmentRealization(ENV, 9, 0)
        sn, dn, uav = Vec3(0, 0, 0), Vec3(400, 300, 0), Vec3(200, 150, 100)
        links = build_links(
            real, dn, uav, UpaSpec(2, 2), UpaSpec(3, 3), UpaSpec(4, 4), UpaSpec(5, 5)
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

    def test_known_s2d_is_used(self):
        real = EnvironmentRealization(ENV, 9, 0)
        dn, uav = Vec3(400, 300, 0), Vec3(200, 150, 100)
        arrays = (UpaSpec(2, 2), UpaSpec(3, 3), UpaSpec(4, 4), UpaSpec(5, 5))
        asked = build_links(real, dn, uav, *arrays)
        known = build_links(real, dn, uav, *arrays, s2d=asked.s2d)
        assert known.s2d is asked.s2d
        assert known.si is asked.si
        for a, b in ((asked.s2v, known.s2v), (asked.v2d, known.v2d)):
            assert a.entries.tobytes() == b.entries.tobytes()
            assert a.components == b.components


class TestChannelPin:
    """Every channel a trial builds, to the bit: the designed and random
    positions' links and both misaligned evaluation sets, trials 0-5 of the
    three trialbench workloads' configs (copied, so the pin stays put if a
    workload changes) and of one mixed-shape config."""

    DIGESTS = {
        "paper_default": "85bd8bfef280dd817ce7699d59ffff5ad244ab4236374a9c30c033a7d552e408",
        "large_array_misaligned":
            "377bc40a14284e7a91431146e765b8db91df0863996c608ee6b8b83e5311cadd",
        "los_starved": "286277ca8979305a0d7826fdd701e3137f73574b4326650861ba44f18a3fad6d",
        "mixed_shapes": "b3f8f3582ace9681e070e25a549ab3b9b12d59e6b40c24c12382a90ee7beda67",
    }
    CONFIGS = {
        "paper_default": {},
        "large_array_misaligned": {
            **{key: 8 for key in ("m_s", "n_s", "m_r", "n_r", "m_t", "n_t", "m_d", "n_d")},
            "delta_m_deg": 10.0,
        },
        "los_starved": {
            "los_a": 27.23, "los_b": 0.08, "dn_rule": "fixed", "dn_x": 560.0, "dn_y": 420.0,
        },
        "mixed_shapes": {"m_s": 3, "n_s": 2, "m_r": 2, "n_r": 3, "m_t": 3, "n_t": 2,
                         "m_d": 2, "n_d": 3, "delta_m_deg": 5.0},
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_trial_channels_keep_their_bits(self, name, monkeypatch, pin_note):
        from fdrelay import config, harness

        overrides, expected = self.CONFIGS[name], self.DIGESTS[name]
        built = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                links = fn(*args, **kwargs)
                built.append(links)
                return links

            return wrapper

        monkeypatch.setattr(harness, "build_links", spy(harness.build_links))
        monkeypatch.setattr(harness, "apply_misalignment", spy(harness.apply_misalignment))
        scenario = config.build_scenario(overrides)
        for trial in range(6):
            harness.run_trial(scenario, trial)
        assert len(built) == 4 * 6
        digest = hashlib.sha256()
        for links in built:
            for ch in (links.s2v, links.v2d, links.s2d, links.si):
                digest.update(ch.entries.tobytes())
        assert digest.hexdigest() == expected, pin_note

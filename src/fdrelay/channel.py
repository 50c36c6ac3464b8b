"""Channel synthesis for a ground-UAV-ground mmWave relay.

Builds steering vectors for uniform planar arrays, link geometry, line-of-sight
and multipath path gains, logistic LoS probabilities, the far-field channel
matrices of the three links (source-to-UAV, UAV-to-destination, and the blocked
source-to-destination interference path), and the near-field self-interference
channel between the relay's transmit and receive panels.

Every random stream of a trial comes from :func:`trial_rng`, keyed by
``(master_seed, trial_index)`` plus one of the purpose tags below, so a trial
replays bit-exactly. :class:`EnvironmentRealization` holds the environment's
share: blockage is a property of the environment rather than of query order.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8

ROLE_S2V = "S2V"
ROLE_V2D = "V2D"
ROLE_S2D = "S2D"
ROLE_SI = "SI"
FARFIELD_ROLES = (ROLE_S2V, ROLE_V2D, ROLE_S2D)

_ROLE_IDS = {ROLE_S2V: 1, ROLE_V2D: 2, ROLE_S2D: 3, ROLE_SI: 4}

# purpose tags of the trial streams (see trial_rng)
TAG_NLOS = 11  # per-role multipath draws, followed by the role id
TAG_TIEBREAK = 21  # equidistant LoS candidates in the placement search
TAG_DN = 31  # destination draw
TAG_RANDPOS = 32  # random-position baseline
TAG_MISALIGN = 33  # beam pointing errors


def trial_rng(master_seed: int, trial_index: int, *tag: int) -> np.random.Generator:
    """The trial's random stream for one purpose tag (plus any sub-keys)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index, *tag)))


class DegenerateGeometryError(ValueError):
    """Two endpoints coincide; the link direction is undefined."""


@dataclass(frozen=True)
class Vec3:
    """Point in the ground-anchored coordinate frame, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("Vec3 components must be finite")

    def distance_to(self, other: "Vec3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


SOURCE = Vec3(0.0, 0.0, 0.0)  # the ground source; the box and closed form assume it
ELEMENT_SPACING = 0.5  # UPA element spacing, wavelengths


@dataclass(frozen=True)
class UpaSpec:
    """Uniform planar array: ``rows x cols`` elements, ELEMENT_SPACING apart."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("UPA needs at least one element per axis")

    @property
    def n_tot(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class AngleSet:
    """Elevation in [-pi/2, pi/2], azimuth in [0, 2*pi)."""

    elevation: float
    azimuth: float

    def __post_init__(self) -> None:
        if not (-math.pi / 2 - 1e-12 <= self.elevation <= math.pi / 2 + 1e-12):
            raise ValueError("elevation outside [-pi/2, pi/2]")
        if not (0.0 <= self.azimuth < 2 * math.pi + 1e-12):
            raise ValueError("azimuth outside [0, 2*pi)")


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: complex amplitude plus departure/arrival angles."""

    gain: complex
    departure: AngleSet
    arrival: AngleSet
    is_los: bool


@dataclass(frozen=True)
class EnvParams:
    """Propagation environment parameters."""

    fc_hz: float = 38e9
    alpha_los: float = 1.9
    alpha_nlos: float = 3.3
    num_nlos: int = 4
    sigma_f: float = 0.5
    los_a: float = 11.95
    los_b: float = 0.14
    panel_separation: float = 10.0  # Tx/Rx panel center offset, in wavelengths

    def __post_init__(self) -> None:
        if self.fc_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if not (0 < self.alpha_los <= self.alpha_nlos):
            raise ValueError("need 0 < alpha_los <= alpha_nlos")
        if self.num_nlos < 0:
            raise ValueError("NLoS path count must be >= 0")
        if self.sigma_f <= 0:
            raise ValueError("shadow-factor std must be positive")
        if self.los_a <= 0 or self.los_b <= 0:
            raise ValueError("logistic parameters must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.fc_hz

    @property
    def ref_amplitude(self) -> float:
        """Free-space amplitude coefficient c / (4*pi*f_c)."""
        return SPEED_OF_LIGHT / (4.0 * math.pi * self.fc_hz)


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel (rx_elements x tx_elements) with its path metadata
    and the two arrays it connects, ``tx`` and ``rx``.

    ``entries`` is made read-only: the SI channel is shared by every trial
    of a scenario and S2D by both positions of a trial, so an in-place
    write would corrupt the channels of later trials.
    """

    entries: np.ndarray
    role: str
    components: tuple[PathComponent, ...]
    tx: UpaSpec
    rx: UpaSpec

    def __post_init__(self) -> None:
        if self.role not in _ROLE_IDS:
            raise ValueError(f"unknown channel role {self.role!r}")
        self.entries.setflags(write=False)

    @functools.cached_property
    def conj_t(self) -> np.ndarray:
        """The conjugate transpose H^H, made on first use and kept."""
        h = self.entries.conj()
        h.setflags(write=False)
        return h.T


def steering_matrix(upa: UpaSpec, angles: Sequence[AngleSet]) -> np.ndarray:
    """Array responses toward each (elevation, azimuth), one row each.

    Row l is the response to ``angles[l]``: element (m, n), 0-based and
    vectorized row-major with m outermost, has phase
    2*pi*(d/lambda)*cos(el)*(m*cos(az) + n*sin(az)); element (0, 0) is the
    phase reference. The squared norm of a row is always rows*cols. The
    per-row scalars are Python floats and every array step is elementwise,
    so a row does not depend on the others.
    """
    cos_az = np.array([math.cos(a.azimuth) for a in angles])[:, None, None]
    sin_az = np.array([math.sin(a.azimuth) for a in angles])[:, None, None]
    wave = np.array(
        [2.0 * math.pi * ELEMENT_SPACING * math.cos(a.elevation) for a in angles]
    )[:, None, None]
    m = np.arange(upa.rows, dtype=float)[:, None]
    n = np.arange(upa.cols, dtype=float)[None, :]
    phase = wave * (m * cos_az + n * sin_az)
    return np.exp(1j * phase).reshape(len(angles), upa.n_tot)


def steering_vector(upa: UpaSpec, angles: AngleSet) -> np.ndarray:
    """Array response of a horizontal UPA toward (elevation, azimuth): one
    row of :func:`steering_matrix`."""
    return steering_matrix(upa, (angles,))[0]


def wrap_azimuth(azimuth: float) -> float:
    """An angle mapped into [0, 2*pi).

    The modulo of a tiny negative angle rounds up to exactly 2*pi, where
    math.sin gives -2.4e-16 instead of azimuth 0's 0.0; it maps to 0.0.
    """
    azimuth %= 2.0 * math.pi
    return 0.0 if azimuth >= 2.0 * math.pi else azimuth


def link_geometry(src: Vec3, dst: Vec3) -> tuple[float, AngleSet]:
    """Distance and (elevation, azimuth) of the src -> dst line.

    Elevation is arctan(dz / horizontal distance); azimuth is the
    four-quadrant angle of (dx, dy) mapped into [0, 2*pi). A vertical link
    has azimuth 0 by convention.
    """
    dx = dst.x - src.x
    dy = dst.y - src.y
    dz = dst.z - src.z
    horiz = math.hypot(dx, dy)
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        raise DegenerateGeometryError("degenerate geometry: endpoints coincide")
    if horiz == 0.0:
        return dist, AngleSet(math.pi / 2 if dz > 0 else -math.pi / 2, 0.0)
    return dist, AngleSet(math.atan(dz / horiz), wrap_azimuth(math.atan2(dy, dx)))


def los_path_gain(distance: float, env: EnvParams) -> float:
    """Line-of-sight amplitude (c/(4*pi*f_c)) * d^(-alpha_los/2)."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return env.ref_amplitude * distance ** (-env.alpha_los / 2.0)


def nlos_path_gain(distance: float, env: EnvParams, draw: complex) -> complex:
    """Multipath amplitude (c/(4*pi*f_c)) * d^(-alpha_nlos/2) * draw.

    ``draw`` is a circularly-symmetric complex Gaussian sample of std sigma_f,
    supplied by the environment realization.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    return env.ref_amplitude * distance ** (-env.alpha_nlos / 2.0) * draw


def los_probability(elevation: float | np.ndarray, env: EnvParams) -> float | np.ndarray:
    """Logistic LoS probability 1 / (1 + a*exp(-b*(deg(el) - a))), elementwise.

    An exponential that overflows a float puts the probability below
    1 / (a * 1.8e308); it gives 0.0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + env.los_a * np.exp(-env.los_b * (np.degrees(elevation) - env.los_a)))


def _los_rule(u, dx, dy, dz, env: EnvParams):
    """The LoS field's rule, elementwise: a cell has LoS when its uniform u
    lies below los_probability at the elevation arctan2(dz, hypot(dx, dy))
    of its center's offset (dx, dy, dz) from the ground node."""
    horiz = np.hypot(dx, dy)
    if not np.logical_or(horiz, dz).all():
        raise DegenerateGeometryError("degenerate geometry: endpoints coincide")
    return u < los_probability(np.arctan2(dz, horiz), env)


def _digest_uniforms(digests: bytes) -> np.ndarray:
    """The LoS field's uniform in [0, 1) of each 32-byte sha256 digest in
    ``digests``: its first 8 bytes as a big-endian integer over 2**64.

    numpy rounds the uint64 to float64 to nearest, as ``int / float`` does
    (BENCH_10.json).
    """
    return np.frombuffer(digests, ">u8")[::4] / 2.0**64


class EnvironmentRealization:
    """Seeded, position-consistent randomness for one Monte Carlo trial.

    The LoS field: the state of a ground-to-UAV link at grid cell (i, j, k)
    is a pure function of (master_seed, trial_index, link role, cell). One
    cell map decides it for a search and the one-cell :meth:`los_indicator`
    alike: the cell's index from quantize_axes, its sha256 key
    ``b"master_seed|trial_index|role|i|j|k"`` (_key_prefix), the key's
    uniform u (_digest_uniforms), and LoS when u lies below the logistic
    LoS probability at the elevation of the cell's center (_los_rule). A
    search asks :meth:`los_route` for each role's :class:`LosRoute`, which
    decides every cell of a pass in one call.
    Multipath draws are made once per (trial, role) in a fixed order and
    are position-independent.
    """

    def __init__(
        self,
        env: EnvParams,
        master_seed: int,
        trial_index: int = 0,
        grid_step: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> None:
        if any(s <= 0 for s in grid_step):
            raise ValueError("grid steps must be positive")
        self.env = env
        self.master_seed = int(master_seed)
        self.trial_index = int(trial_index)
        self.grid_step = tuple(float(s) for s in grid_step)
        self._nlos_cache: dict[str, tuple[PathComponent, ...]] = {}

    def quantize_axes(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grid index of each x, y and z coordinate (absolute grid from
        the origin) as an integral float; the three arrays may differ in
        length.

        A cell's index on one axis depends on that coordinate alone.
        np.rint rounds half to even. A height above the ground gets layer 1
        or more, so it never shares the ground nodes' layer 0. ``b"%d"``
        formats an integral float as its exact integer, so a float index
        gives the key and center an int would.
        """
        ex, ey, eh = self.grid_step
        k = np.rint(z / eh)
        return np.rint(x / ex), np.rint(y / ey), np.where((z > 0) & (k < 1), 1.0, k)

    def _key_prefix(self, role: str) -> bytes:
        """The head ``b"master_seed|trial_index|role|%d|"`` of a role's cell
        keys, which takes the cell's i."""
        if role not in (ROLE_S2V, ROLE_V2D):
            raise ValueError(f"LoS field only covers ground-UAV links, got {role!r}")
        return f"{self.master_seed}|{self.trial_index}|{role}|%d|".encode()

    def los_indicator(self, role: str, ground: Vec3, uav: Vec3) -> bool:
        """Bernoulli LoS state of a ground-to-UAV link at the UAV's grid cell,
        decided by the cell map of :class:`LosRoute` on one cell."""
        head = self._key_prefix(role)
        i, j, k = (c.item() for c in self.quantize_axes(*np.array([uav.x, uav.y, uav.z])))
        u = _digest_uniforms(hashlib.sha256(head % i + b"%d|" % j + b"%d" % k).digest())[0]
        ex, ey, eh = self.grid_step
        return bool(_los_rule(u, i * ex - ground.x, j * ey - ground.y, k * eh - ground.z, self.env))

    def los_route(self, role: str, ground: Vec3, axes) -> "LosRoute":
        """The role's LoS field over the cells of one search (:class:`LosRoute`)."""
        return LosRoute(self, role, ground, axes)

    def nlos_draws(self, role: str) -> tuple[PathComponent, ...]:
        """The trial's multipath draws for one link role (cached, fixed order).

        Each gain is the raw draw; build_farfield_channel applies the
        distance-dependent factor.
        """
        if role not in FARFIELD_ROLES:
            raise ValueError(f"no multipath draws for role {role!r}")
        if role not in self._nlos_cache:
            rng = trial_rng(self.master_seed, self.trial_index, TAG_NLOS, _ROLE_IDS[role])
            draws = []
            for _ in range(self.env.num_nlos):
                dep_az = rng.uniform(0.0, 2.0 * math.pi)
                dep_el = rng.uniform(0.0, math.pi / 2)
                arr_az = rng.uniform(0.0, 2.0 * math.pi)
                arr_el = rng.uniform(0.0, math.pi / 2)
                re, im = rng.normal(0.0, self.env.sigma_f / math.sqrt(2.0), size=2)
                draws.append(
                    PathComponent(
                        gain=complex(re, im),
                        departure=AngleSet(dep_el, dep_az),
                        arrival=AngleSet(arr_el, arr_az),
                        is_los=False,
                    )
                )
            self._nlos_cache[role] = tuple(draws)
        return self._nlos_cache[role]


class LosRoute:
    """The LoS field of one ground-UAV role over the cells of one search.

    ``axes`` holds three runs of grid indices, the search box's i, j and k
    cells (integral floats, as quantize_axes gives them; ints give the same
    keys and centers); a cell is one position on each run. Each run's
    offsets from the ground node are computed once. :meth:`decide` takes a
    pass's cells as three equal-length int arrays, each cell's positions
    bi, bj and bk on the x, y and z runs, in any order.
    It formats the key fragments ``b"%d|" % j`` and ``b"%d" % k`` of the y
    and z runs between the pass's least and greatest positions, hashes the
    head ``_key_prefix(role) % i`` once per run of consecutive cells with
    the same bi and copies that sha256 state per cell, so each cell hashes
    the bytes of its ``"master_seed|trial_index|role|i|j|k"`` key
    (BENCH_17.json, BENCH_19.json). Then one _los_rule call decides
    every cell. A pass leaves no state behind. This is the cell map that
    ``los_indicator`` runs on one cell.
    """

    def __init__(self, real: EnvironmentRealization, role: str, ground: Vec3, axes) -> None:
        self._env = real.env
        self._head = real._key_prefix(role)
        self._axes = axes
        ground = (ground.x, ground.y, ground.z)
        self._offsets = tuple(run * step - g for run, step, g in zip(axes, real.grid_step, ground))

    def decide(self, bi, bj, bk):
        """The LoS state of each cell at positions bi, bj, bk on the x, y
        and z runs: one bool per cell, in input order."""
        if not bi.size:
            return np.zeros(0, dtype=bool)
        cx, cy, cz = self._axes
        y0, z0 = bj.min(), bk.min()
        ky = np.array([b"%d|" % c for c in cy[y0 : bj.max() + 1].tolist()], dtype=object)
        kz = np.array([b"%d" % c for c in cz[z0 : bk.max() + 1].tolist()], dtype=object)
        tails = (ky[:, None] + kz)[bj - y0, bk - z0].tolist()
        # the cells from one start to the next share their x position
        starts = (np.flatnonzero(bi[1:] != bi[:-1]) + 1).tolist()
        fmt = self._head
        sha = hashlib.sha256
        digests = []
        add = digests.append
        for x, a, b in zip(cx[bi[[0, *starts]]].tolist(), [0, *starts], [*starts, bi.size]):
            head = sha(fmt % x)
            for tail in tails[a:b]:
                h = head.copy()
                h.update(tail)
                add(h.digest())
        del tails  # per cell: the join and the rule need only the digests
        u = _digest_uniforms(b"".join(digests))
        ox, oy, oz = self._offsets
        return _los_rule(u, ox[bi], oy[bj], oz[bk], self._env)


def channel_from_paths(
    role: str, components: Sequence[PathComponent], tx_upa: UpaSpec, rx_upa: UpaSpec
) -> ChannelMatrix:
    """Ray sum: sum_l gain_l * a_rx(arrival_l) a_tx(departure_l)^H.

    The steering vectors of each side are built as one matrix. The rank-1
    terms are added in component order, one at a time; a matrix product
    would reorder the sums and change the last bits.
    """
    components = tuple(components)
    a_rx = steering_matrix(rx_upa, [comp.arrival for comp in components])
    a_tx_conj = steering_matrix(tx_upa, [comp.departure for comp in components]).conj()
    entries = np.zeros((rx_upa.n_tot, tx_upa.n_tot), dtype=complex)
    for comp, row_rx, row_tx in zip(components, a_rx, a_tx_conj):
        entries += comp.gain * np.outer(row_rx, row_tx)
    return ChannelMatrix(entries, role, components, tx_upa, rx_upa)


def build_farfield_channel(
    role: str,
    env_real: EnvironmentRealization,
    src: Vec3,
    dst: Vec3,
    tx_upa: UpaSpec,
    rx_upa: UpaSpec,
) -> ChannelMatrix:
    """Far-field channel: LoS rank-1 term (if drawn) plus NLoS superposition.

    The ground-to-destination link (S2D) never carries a LoS term; for the
    two UAV links the LoS indicator comes from the position-consistent field,
    with the UAV endpoint being dst for S2V and src for V2D. LoS amplitude,
    distance, and angles use the actual (unsnapped) positions; only the
    indicator is evaluated on the grid.
    """
    if role not in FARFIELD_ROLES:
        raise ValueError(f"far-field builder got role {role!r}")
    dist, _ = link_geometry(src, dst)
    components: list[PathComponent] = []

    if role != ROLE_S2D:
        ground, uav = (src, dst) if role == ROLE_S2V else (dst, src)
        if env_real.los_indicator(role, ground, uav):
            _, los_angles = link_geometry(ground, uav)
            beta0 = los_path_gain(dist, env_real.env)
            components.append(PathComponent(complex(beta0), los_angles, los_angles, is_los=True))

    for draw in env_real.nlos_draws(role):
        gain = nlos_path_gain(dist, env_real.env, draw.gain)
        components.append(PathComponent(gain, draw.departure, draw.arrival, is_los=False))

    return channel_from_paths(role, components, tx_upa, rx_upa)


def _panel_element_positions(upa: UpaSpec, env: EnvParams, center_z: float) -> np.ndarray:
    """Element coordinates of a horizontal panel centered at (0, 0, center_z).

    The m index runs along the body x-axis, n along y; the grid is centered
    on the panel center.
    """
    d = ELEMENT_SPACING * env.wavelength
    m = (np.arange(upa.rows) - (upa.rows - 1) / 2.0) * d
    n = (np.arange(upa.cols) - (upa.cols - 1) / 2.0) * d
    xs = np.repeat(m, upa.cols)
    ys = np.tile(n, upa.rows)
    return np.column_stack([xs, ys, np.full(upa.n_tot, center_z)])


def si_element_distances(env: EnvParams, tx_upa: UpaSpec, rx_upa: UpaSpec) -> np.ndarray:
    """Pairwise Rx-element to Tx-element distances of the two relay panels.

    The panels are horizontal and stacked along the body vertical axis, the
    receive panel a fixed multiple of the wavelength above the transmit one.
    Stacking along the array normal keeps the self-interference subspace away
    from the steering directions of ground nodes at ordinary elevations.
    """
    if env.panel_separation <= 0:
        raise ValueError("panel separation must be positive")
    offset = env.panel_separation * env.wavelength
    tx_pos = _panel_element_positions(tx_upa, env, 0.0)
    rx_pos = _panel_element_positions(rx_upa, env, offset)
    # ((0 + dx²) + dy²) + dz² in place: np.sum's bits over an (N_r, N_t, 3) diff (BENCH_28.json)
    dist = np.zeros((rx_upa.n_tot, tx_upa.n_tot))
    axis = np.empty_like(dist)
    for k in range(3):
        np.subtract.outer(rx_pos[:, k], tx_pos[:, k], out=axis)
        dist += np.multiply(axis, axis, out=axis)
    return np.sqrt(dist, out=dist)


@functools.cache
def build_si_channel(env: EnvParams, tx_upa: UpaSpec, rx_upa: UpaSpec) -> ChannelMatrix:
    """Near-field self-interference channel between the relay's panels.

    Entry (m, n) = (c/(4*pi*f_c)) * r_mn^(-alpha_los/2) * exp(-j*2*pi*r_mn/lambda)
    with r_mn the exact element-to-element distance; no plane-wave assumption.
    It depends on its three (frozen, hashable) arguments alone, so it is
    built once per scenario and the one read-only matrix is shared.
    """
    with np.errstate(all="ignore"):  # an entry that is not finite fails below
        r = si_element_distances(env, tx_upa, rx_upa)
        # the plain expression's operations, in place in one complex buffer and r
        entries = np.multiply(-2j * math.pi, r)
        entries /= env.wavelength
        np.exp(entries, out=entries)
        amp = np.power(r, -env.alpha_los / 2.0, out=r)
        np.multiply(env.ref_amplitude, amp, out=amp)
        np.multiply(amp, entries, out=entries)
    if not np.isfinite(entries).all():
        raise ValueError("the self-interference channel is not finite: its element distances "
                         "(panel_separation wavelengths apart) under- or overflow a float")
    return ChannelMatrix(entries, ROLE_SI, (), tx_upa, rx_upa)


@dataclass(frozen=True)
class LinkSet:
    """The four channels of one trial plus the LoS-design angles."""

    s2v: ChannelMatrix
    v2d: ChannelMatrix
    s2d: ChannelMatrix
    si: ChannelMatrix
    s2v_angles: AngleSet
    v2d_angles: AngleSet


def build_links(
    env_real: EnvironmentRealization,
    dn: Vec3,
    uav: Vec3,
    upa_s: UpaSpec,
    upa_r: UpaSpec,
    upa_t: UpaSpec,
    upa_d: UpaSpec,
    s2d: ChannelMatrix | None = None,
) -> LinkSet:
    """Synthesize all four channels for a UAV position within one trial:
    S2V joins panels s and r, V2D t and d, S2D s and d, and SI t and r.

    The source is :data:`SOURCE`, and the environment is ``env_real.env``,
    whose LoS field gives the S2V and V2D states at the UAV's cell. S2D
    does not depend on the UAV position, so a trial passes the first
    position's ``s2d`` to the second call.
    """
    s2v = build_farfield_channel(ROLE_S2V, env_real, SOURCE, uav, upa_s, upa_r)
    v2d = build_farfield_channel(ROLE_V2D, env_real, uav, dn, upa_t, upa_d)
    if s2d is None:
        s2d = build_farfield_channel(ROLE_S2D, env_real, SOURCE, dn, upa_s, upa_d)
    si = build_si_channel(env_real.env, upa_t, upa_r)
    _, s2v_angles = link_geometry(SOURCE, uav)
    _, v2d_angles = link_geometry(dn, uav)
    return LinkSet(s2v, v2d, s2d, si, s2v_angles, v2d_angles)

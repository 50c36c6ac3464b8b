"""Seeded Monte Carlo harness: trials, schemes, misalignment, and sweeps.

Each trial draws every random stream from ``channel.trial_rng``, keyed by
(master_seed, trial_index) plus a purpose tag, so trials are bit-reproducible
and order-independent. Within a trial the proposed pipeline and the two
baselines (steered beams at the designed position; alternating optimization
at a random position) share one environment realization, giving paired
comparisons.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .beamforming import (
    AisPass,
    AisState,
    SuppressionSchedule,
    eta_floor_rule,
    initial_state,
    run_ais,
)
from .channel import (
    TAG_DN,
    TAG_MISALIGN,
    TAG_RANDPOS,
    AngleSet,
    EnvParams,
    EnvironmentRealization,
    LinkSet,
    PathComponent,
    UpaSpec,
    Vec3,
    build_links,
    channel_from_paths,
    trial_rng,
    wrap_azimuth,
)
from .positioning import (
    FeasibleBox,
    LinkBudget,
    NoLosPositionError,
    approx_upper_bounds,
    conditional_optimal_position,
    los_adjusted_position,
    strict_upper_bounds,
)
from .rates import achievable_rates, effective_gains
from .solver import solver_error_context

SCHEMES = ("proposed", "randpos_ais", "despos_steer")
MIN_GROUND_SEPARATION = 10.0  # meters; closer DN draws are resampled


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description with defaults matching the usual setup."""

    dn_rule: str = "disk"  # "fixed", "disk", or "circle"
    dn_x: float = 400.0
    dn_y: float = 300.0
    dn_radius_m: float = 500.0
    h_min: float = 100.0
    h_max: float = 300.0
    eps_x: float = 1.0
    eps_y: float = 1.0
    eps_h: float = 1.0
    upa_s: UpaSpec = field(default_factory=lambda: UpaSpec(4, 4))
    upa_r: UpaSpec = field(default_factory=lambda: UpaSpec(4, 4))
    upa_t: UpaSpec = field(default_factory=lambda: UpaSpec(4, 4))
    upa_d: UpaSpec = field(default_factory=lambda: UpaSpec(4, 4))
    p_s_tot: float = 0.1  # watts (20 dBm)
    p_v_tot: float = 0.1
    noise1: float = 1e-14  # watts (-110 dBm)
    noise2: float = 1e-14
    env: EnvParams = field(default_factory=EnvParams)
    kappa: float = 10.0
    eps_r: float = 0.01
    max_iters: int = 50
    delta_m_deg: float = 0.0
    trials: int = 200
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.dn_rule not in ("fixed", "disk", "circle"):
            raise ValueError(f"unknown DN placement rule {self.dn_rule!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.delta_m_deg < 0:
            raise ValueError("misalignment half-width must be nonnegative")
        if self.kappa <= 1:
            raise ValueError("kappa must exceed 1")
        if self.eps_r <= 0:
            raise ValueError("rate tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if self.workers < 1:
            raise ValueError("need at least one worker")

    @property
    def budget(self) -> LinkBudget:
        return LinkBudget(
            n_s2v=self.upa_s.n_tot * self.upa_r.n_tot,
            n_v2d=self.upa_t.n_tot * self.upa_d.n_tot,
            p_s_tot=self.p_s_tot,
            p_v_tot=self.p_v_tot,
            noise1=self.noise1,
            noise2=self.noise2,
        )

    @property
    def schedule(self) -> SuppressionSchedule:
        return SuppressionSchedule(
            eta_floor=eta_floor_rule(self.p_s_tot, self.p_v_tot, self.noise1, self.noise2),
            kappa=self.kappa,
        )


@dataclass(frozen=True)
class TrialResult:
    """Everything one trial produced, for aggregation and debugging."""

    trial_index: int
    dn: Vec3
    rho: float
    designed_position: Vec3
    random_position: Vec3
    fallback: bool
    rates: dict[str, float]
    approx_bound_s2v: float
    approx_bound_v2d: float
    strict_bound_s2v: float
    strict_bound_v2d: float
    iters: dict[str, int]
    trace: tuple[AisPass, ...]  # the proposed run's, from its steered start

    @property
    def strict_bound_min(self) -> float:
        return min(self.strict_bound_s2v, self.strict_bound_v2d)

    @property
    def powers_proposed(self) -> tuple[float, float]:
        return self.trace[-1].powers


def _sample_dn(scenario: Scenario, trial_index: int) -> Vec3:
    """Destination draw under the scenario's placement rule.

    Disk/circle samples are mirrored into the first quadrant (the deployment
    box spans [0, x_d] x [0, y_d]); rotational symmetry makes the mirroring
    statistically neutral. Draws closer than the minimum ground separation are
    rejected and redrawn.
    """
    if scenario.dn_rule == "fixed":
        return Vec3(scenario.dn_x, scenario.dn_y, 0.0)
    rng = trial_rng(scenario.master_seed, trial_index, TAG_DN)
    for _ in range(1000):
        if scenario.dn_rule == "disk":
            radius = scenario.dn_radius_m * math.sqrt(rng.uniform())
        else:
            radius = scenario.dn_radius_m
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if radius < MIN_GROUND_SEPARATION:
            continue
        return Vec3(abs(radius * math.cos(phi)), abs(radius * math.sin(phi)), 0.0)
    raise ValueError("DN sampling kept violating the minimum ground separation")


def _snap(value: float, step: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, round(value / step) * step))


def _sample_random_position(placement: Placement) -> Vec3:
    """A uniform point of the trial's box, snapped by its grid step."""
    box, env_real = placement.box, placement.env_real
    rng = trial_rng(env_real.master_seed, env_real.trial_index, TAG_RANDPOS)
    ex, ey, eh = env_real.grid_step
    x = _snap(rng.uniform(0.0, box.x_d), ex, 0.0, box.x_d)
    y = _snap(rng.uniform(0.0, box.y_d), ey, 0.0, box.y_d)
    h = _snap(rng.uniform(box.h_min, box.h_max), eh, box.h_min, box.h_max)
    return Vec3(x, y, h)


def _perturbed_angles(angles: AngleSet, d_el: float, d_az: float) -> AngleSet:
    el = min(math.pi / 2, max(-math.pi / 2, angles.elevation + d_el))
    return AngleSet(el, wrap_azimuth(angles.azimuth + d_az))


def apply_misalignment(links: LinkSet, offsets: list | None) -> LinkSet:
    """Perturb every departure/arrival angle of the two relay links.

    ``offsets[l][n]`` holds the (departure elevation, departure azimuth,
    arrival elevation, arrival azimuth) offsets in radians of link l (S2V,
    then V2D) on path row n: the LoS path first, then each NLoS path. With
    None the original links object is returned unchanged.
    """
    if offsets is None:
        return links

    def perturb(channel, rows):
        comps = []
        # a far-field channel lists its LoS path first: path n takes row n,
        # or row n + 1 when the channel has no LoS path
        first = 0 if channel.components and channel.components[0].is_los else 1
        for row, comp in enumerate(channel.components, start=first):
            dep_el, dep_az, arr_el, arr_az = rows[row]
            comps.append(
                PathComponent(
                    comp.gain,
                    _perturbed_angles(comp.departure, dep_el, dep_az),
                    _perturbed_angles(comp.arrival, arr_el, arr_az),
                    comp.is_los,
                )
            )
        return channel_from_paths(channel.role, comps, channel.tx, channel.rx)

    return replace(
        links,
        s2v=perturb(links.s2v, offsets[0]),
        v2d=perturb(links.v2d, offsets[1]),
    )


def _evaluate_rate(state: AisState, links: LinkSet, scenario: Scenario) -> float:
    """End-to-end rate of a designed state against (possibly perturbed) channels."""
    gains = effective_gains(
        state.w_s, state.w_r, state.w_t, state.w_d,
        links.s2v.entries, links.si.entries, links.v2d.entries, links.s2d.entries,
    )
    _, _, r = achievable_rates(gains, state.powers, scenario.noise1, scenario.noise2)
    return r


@dataclass(frozen=True)
class Placement:
    """Where one trial puts its relay: closed form, then the LoS grid search."""

    dn: Vec3
    box: FeasibleBox
    env_real: EnvironmentRealization
    p_star: Vec3  # closed-form optimum on the SN-DN segment
    rho: float  # its segment fraction
    designed: Vec3  # closest dual-LoS cell of the first ring with one, or p_star on fallback
    fallback: bool  # no grid point of the box has LoS on both links


def place_relay(scenario: Scenario, trial_index: int) -> Placement:
    """Destination draw, closed-form position and LoS adjustment of one trial.

    The scenario's grid steps go to the trial's LoS field alone; the ring
    search and the random position step by its ``grid_step``. The
    positioning functions are looked up in this module's namespace, so a
    test or a profiler that replaces ``harness.los_adjusted_position`` (or
    the closed form) sees every placement.
    """
    dn = _sample_dn(scenario, trial_index)
    box = FeasibleBox(x_d=dn.x, y_d=dn.y, h_min=scenario.h_min, h_max=scenario.h_max)
    env_real = EnvironmentRealization(
        scenario.env,
        scenario.master_seed,
        trial_index,
        grid_step=(scenario.eps_x, scenario.eps_y, scenario.eps_h),
    )
    p_star, rho = conditional_optimal_position(scenario.budget, box, scenario.env, dn)
    try:
        designed = los_adjusted_position(env_real, p_star, box, dn)
        fallback = False
    except NoLosPositionError:
        designed = p_star
        fallback = True
    return Placement(dn, box, env_real, p_star, rho, designed, fallback)


class PanelMemoryError(MemoryError):
    """Out of memory in a trial; the message names the scenario's panels."""


def run_trial(scenario: Scenario, trial_index: int) -> TrialResult:
    """One full paired trial: proposed pipeline, both baselines, both bounds.

    A failure names its trial, whoever runs it: a SolverError is prefixed
    with ``master_seed=S trial_index=I`` and the AIS run it came from (the
    designed or the random position), and a MemoryError is re-raised as a
    PanelMemoryError that names the scenario's panels.
    """
    try:
        with solver_error_context(f"master_seed={scenario.master_seed} trial_index={trial_index}"):
            placement = place_relay(scenario, trial_index)
            dn, designed = placement.dn, placement.designed
            budget = scenario.budget

            arrays = (scenario.upa_s, scenario.upa_r, scenario.upa_t, scenario.upa_d)
            links_des = build_links(placement.env_real, dn, designed, *arrays)
            rand_pos = _sample_random_position(placement)
            links_rand = build_links(placement.env_real, dn, rand_pos, *arrays, s2d=links_des.s2d)

            # one block of pointing errors, delta times uniforms on [-1/2, 1/2], for
            # both link sets; sweeps over delta with the same trial seed are paired
            # (common random numbers), and at delta 0 no stream is built
            offsets = None
            if scenario.delta_m_deg > 0:
                rng = trial_rng(scenario.master_seed, trial_index, TAG_MISALIGN)
                block = rng.uniform(-0.5, 0.5, size=(2, 1 + scenario.env.num_nlos, 4))
                offsets = (math.radians(scenario.delta_m_deg) * block).tolist()
            links_des_eval = apply_misalignment(links_des, offsets)
            links_rand_eval = apply_misalignment(links_rand, offsets)

            # the steered-beam baseline is the proposed loop's start
            schedule = scenario.schedule
            steer = initial_state(links_des, budget, schedule)
            with solver_error_context("designed position"):
                proposed = run_ais(steer, links_des, budget, scenario.eps_r, scenario.max_iters)
            rand_start = initial_state(links_rand, budget, schedule)
            with solver_error_context("random position"):
                rand_ais = run_ais(rand_start, links_rand, budget, scenario.eps_r, scenario.max_iters)

            rates = {
                "proposed": _evaluate_rate(proposed, links_des_eval, scenario),
                "despos_steer": _evaluate_rate(steer, links_des_eval, scenario),
                "randpos_ais": _evaluate_rate(rand_ais, links_rand_eval, scenario),
            }
            ab1, ab2 = approx_upper_bounds(designed, budget, scenario.env, dn)
            sb1, sb2 = strict_upper_bounds(links_des.s2v, links_des.v2d, budget)

            return TrialResult(
                trial_index=trial_index,
                dn=dn,
                rho=placement.rho,
                designed_position=designed,
                random_position=rand_pos,
                fallback=placement.fallback,
                rates=rates,
                approx_bound_s2v=ab1,
                approx_bound_v2d=ab2,
                strict_bound_s2v=sb1,
                strict_bound_v2d=sb2,
                iters={"proposed": proposed.k, "randpos_ais": rand_ais.k, "despos_steer": 0},
                trace=proposed.trace,
            )
    except MemoryError as exc:
        upas = (scenario.upa_s, scenario.upa_r, scenario.upa_t, scenario.upa_d)
        sizes = ", ".join(f"{u.rows}x{u.cols}" for u in upas)
        raise PanelMemoryError(f"out of memory at panels s, r, t, d of {sizes} elements") from exc


class WorkerDiedError(RuntimeError):
    """A pool worker process died before it returned its trial."""


def run_trials(*scenarios: Scenario) -> list[TrialResult]:
    """All trials of the scenarios, scenario by scenario, each in trial-index
    order, whatever the worker count.

    The first scenario's worker count sizes one pool for them all. The pool
    forks all its workers at the first job, so it holds no more workers than
    there are trials or CPUs. When a trial fails, the jobs not yet started
    are cancelled.
    """
    runs = [scenario for scenario in scenarios for _ in range(scenario.trials)]
    indices = [i for scenario in scenarios for i in range(scenario.trials)]
    workers = min(scenarios[0].workers, len(runs), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run_trial, runs, indices))
        except concurrent.futures.BrokenExecutor as exc:
            raise WorkerDiedError("a worker process died before it returned its trial") from exc
    return list(map(run_trial, runs, indices))


@dataclass(frozen=True)
class OutputRow:
    """One aggregated line of a sweep table."""

    sweep_param: str
    sweep_value: float
    scheme: str
    mean_rate_bps_hz: float
    stderr: float
    n_trials: int
    mean_iters: float
    fallback_frac: float


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate(results: list[TrialResult], sweep_param: str, sweep_value: float) -> list[OutputRow]:
    """Four rows per sweep point: the three schemes plus the strict bound."""
    fallback_frac = float(np.mean([r.fallback for r in results]))
    rows = []
    for scheme in SCHEMES:
        mean, se = _mean_stderr([r.rates[scheme] for r in results])
        mean_iters = float(np.mean([r.iters[scheme] for r in results]))
        rows.append(
            OutputRow(sweep_param, sweep_value, scheme, mean, se, len(results), mean_iters, fallback_frac)
        )
    mean, se = _mean_stderr([r.strict_bound_min for r in results])
    rows.append(
        OutputRow(sweep_param, sweep_value, "strict_bound", mean, se, len(results), 0.0, fallback_frac)
    )
    return rows


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _sweep_array(scenario: Scenario, value: float) -> Scenario:
    n = int(value)
    if n != value or n < 1:
        raise ValueError("array size must be a positive integer")
    upa = UpaSpec(n, n)
    return replace(scenario, upa_s=upa, upa_r=upa, upa_t=upa, upa_d=upa)


# each sweepable parameter and the scenario change one of its values makes
SWEEPS = {
    "p_s_tot_dbm": lambda scenario, value: replace(scenario, p_s_tot=dbm_to_watts(value)),
    "p_v_tot_dbm": lambda scenario, value: replace(scenario, p_v_tot=dbm_to_watts(value)),
    "distance_m": lambda scenario, value: replace(scenario, dn_rule="circle", dn_radius_m=value),
    "array": _sweep_array,
    "delta_m_deg": lambda scenario, value: replace(scenario, delta_m_deg=value),
}


def apply_sweep_value(scenario: Scenario, name: str, value: float) -> Scenario:
    """Scenario variant with one swept parameter replaced."""
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    return SWEEPS[name](scenario, value)


@dataclass(frozen=True)
class SweepSpec:
    """A parameter name, its values, and the base scenario to vary."""

    param: str
    values: tuple[float, ...]
    base: Scenario

    def __post_init__(self) -> None:
        if self.param not in SWEEPS:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")


def run_sweep(spec: SweepSpec) -> list[OutputRow]:
    """Aggregated rows for every swept value, in input order.

    Every swept scenario is built before the first trial, so a bad value
    fails at once, wherever it stands in the list.
    """
    scenarios = [apply_sweep_value(spec.base, spec.param, value) for value in spec.values]
    results = run_trials(*scenarios)
    n = spec.base.trials  # no swept parameter changes the trial count
    rows: list[OutputRow] = []
    for k, value in enumerate(spec.values):
        rows.extend(aggregate(results[k * n:(k + 1) * n], spec.param, value))
    return rows

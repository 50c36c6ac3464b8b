"""Spans around fdrelay's layers, installed from outside the package.

A function imported by name is looked up through the importing module, so
each wrapper replaces the binding its caller uses (``harness.build_links``,
``beamforming.solve_bf_subproblem``, ...). ``los_indicator`` runs up to ~54k
times in one trial, so its calls are folded into one record per parent span
instead of a span each. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from fdrelay import beamforming, channel, config, harness
from fdrelay.beamforming import interior_census
from fdrelay.channel import ROLE_S2V

# (module whose binding is replaced, attribute, span name)
SPAN_BINDINGS = (
    (config, "build_scenario", "config.build_scenario"),
    (harness, "run_trial", "harness.run_trial"),
    (harness, "apply_misalignment", "harness.apply_misalignment"),
    (harness, "conditional_optimal_position", "positioning.conditional_optimal_position"),
    (harness, "los_adjusted_position", "positioning.los_adjusted_position"),
    (harness, "approx_upper_bounds", "positioning.approx_upper_bounds"),
    (harness, "strict_upper_bounds", "positioning.strict_upper_bounds"),
    (harness, "build_links", "channel.build_links"),
    (harness, "run_ais", "beamforming.run_ais"),
    (harness, "initial_state", "beamforming.initial_state"),
    (harness, "effective_gains", "rates.effective_gains"),
    (beamforming, "initial_state", "beamforming.initial_state"),
    (beamforming, "ais_iterate", "beamforming.ais_iterate"),
    (beamforming, "effective_gains", "rates.effective_gains"),
    (beamforming, "optimal_powers", "rates.optimal_powers"),
    (beamforming, "solve_bf_subproblem", "solver.solve_bf_subproblem"),
)
LOS_INDICATOR = "channel.los_indicator"

# span record fields
_ID, _PARENT, _TRIAL, _NAME, _START, _END, _CHILD_NS, _ATTRS = range(8)


class Tracer:
    """Records spans of the trials run while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # (parent span id, role) -> [trial, calls, ns]
        self.los_folds: dict[tuple[int, str], list] = {}
        self.trial = -1  # set by the caller before each trial
        self._root = [0, None, -1, "root", 0, 0, 0, None]
        self._stack = [self._root]
        self._next_id = 1

    def _span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = [self._next_id, parent[_ID], self.trial, name, 0, 0, 0, None]
            self._next_id += 1
            stack.append(rec)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.annotate(raised=type(exc).__name__)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec[_START], rec[_END] = start, end
                parent[_CHILD_NS] += end - start
                self.spans.append(rec)

        return wrapper

    def _fold_los_indicator(self, fn):
        stack, folds = self._stack, self.los_folds

        @functools.wraps(fn)
        def wrapper(env_real, role, ground, uav):
            start = time.perf_counter_ns()
            try:
                return fn(env_real, role, ground, uav)
            finally:
                ns = time.perf_counter_ns() - start
                parent = stack[-1]
                parent[_CHILD_NS] += ns
                agg = folds.get((parent[_ID], role))
                if agg is None:
                    folds[(parent[_ID], role)] = [parent[_TRIAL], 1, ns]
                else:
                    agg[1] += 1
                    agg[2] += ns

        return wrapper

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span."""
        rec = self._stack[-1]
        rec[_ATTRS] = {**(rec[_ATTRS] or {}), **attrs}

    def observe_solve(self, w, info, cap, ok) -> None:
        """``SolveAudit`` observer: route, gap and interior census of one solve."""
        self.annotate(route=info.method, gap=info.gap, ok=ok, interior=interior_census(w, cap))

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPAN_BINDINGS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span(name, getattr(owner, attr)))
            cls = channel.EnvironmentRealization
            saved.append((cls, "los_indicator", cls.los_indicator))
            cls.los_indicator = self._fold_los_indicator(cls.los_indicator)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": rec[_ID],
                            "parent": rec[_PARENT],
                            "trial": rec[_TRIAL],
                            "name": rec[_NAME],
                            "start_ns": rec[_START],
                            "end_ns": rec[_END],
                            "self_ns": rec[_END] - rec[_START] - rec[_CHILD_NS],
                            "attrs": rec[_ATTRS],
                        }
                    )
                    + "\n"
                )
            for (parent, role), (trial, calls, ns) in self.los_folds.items():
                fh.write(
                    json.dumps(
                        {"parent": parent, "trial": trial, "name": LOS_INDICATOR,
                         "role": role, "calls": calls, "ns": ns}
                    )
                    + "\n"
                )


def _ratio(num: float, den: float, what: str) -> float:
    if den == 0:
        raise ValueError(f"cannot report {what}: its denominator is 0")
    return num / den


def layer_metrics(tracer: Tracer, n_trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced trials: means per trial unless named otherwise."""
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    calls: dict[str, int] = {}
    route_calls = {"shortcut": 0, "dual": 0, "pdhg": 0}
    route_ns = {"shortcut": 0, "dual": 0, "pdhg": 0}
    max_gap = 0.0
    uncertified = interior = fallbacks = 0
    names = {}
    for rec in tracer.spans:
        name, ns = rec[_NAME], rec[_END] - rec[_START]
        names[rec[_ID]] = name
        total[name] = total.get(name, 0) + ns
        own[name] = own.get(name, 0) + ns - rec[_CHILD_NS]
        calls[name] = calls.get(name, 0) + 1
        attrs = rec[_ATTRS] or {}
        if name == "solver.solve_bf_subproblem":
            route_calls[attrs["route"]] += 1
            route_ns[attrs["route"]] += ns
            max_gap = max(max_gap, attrs["gap"])
            uncertified += not attrs["ok"]
            interior += attrs["interior"]
        elif name == "positioning.los_adjusted_position" and attrs.get("raised") == "NoLosPositionError":
            fallbacks += 1

    probed: dict[int, int] = {}
    los_calls = los_ns = 0
    for (parent, role), (trial, n, ns) in tracer.los_folds.items():
        los_calls += n
        los_ns += ns
        # each candidate cell is probed on the S2V link first
        if role == ROLE_S2V and names.get(parent) == "positioning.los_adjusted_position":
            probed[trial] = probed.get(trial, 0) + n

    def ms(name: str) -> float:
        return total.get(name, 0) / 1e6 / n_trials

    trial_ns = total["harness.run_trial"]
    solver_ns = total.get("solver.solve_bf_subproblem", 0)
    los_search_ns = total.get("positioning.los_adjusted_position", 0)
    return {
        "solver.calls.shortcut": (route_calls["shortcut"] / n_trials, "count"),
        "solver.calls.dual": (route_calls["dual"] / n_trials, "count"),
        "solver.calls.pdhg": (route_calls["pdhg"] / n_trials, "count"),
        "solver.us_per_call.shortcut": (
            _ratio(route_ns["shortcut"] / 1e3, route_calls["shortcut"], "shortcut us per call"), "us"),
        "solver.us_per_call.dual": (
            _ratio(route_ns["dual"] / 1e3, route_calls["dual"], "dual us per call"), "us"),
        "solver.ms": (solver_ns / 1e6 / n_trials, "ms"),
        "solver.busy_frac": (solver_ns / trial_ns, "ratio"),
        "solver.max_gap": (max_gap, "ratio"),
        "solver.uncertified": (uncertified / n_trials, "count"),
        "positioning.los_search.ms": (ms("positioning.los_adjusted_position"), "ms"),
        "positioning.los_search.self_ms": (
            own.get("positioning.los_adjusted_position", 0) / 1e6 / n_trials, "ms"),
        "positioning.los_search.frac": (los_search_ns / trial_ns, "ratio"),
        "positioning.los_cells_probed.mean": (sum(probed.values()) / n_trials, "count"),
        "positioning.los_cells_probed.max": (max(probed.values(), default=0), "count"),
        "positioning.los_fallback_frac": (fallbacks / n_trials, "ratio"),
        "positioning.closed_form.ms": (ms("positioning.conditional_optimal_position"), "ms"),
        "positioning.bounds.ms": (
            ms("positioning.approx_upper_bounds") + ms("positioning.strict_upper_bounds"), "ms"),
        "channel.los_indicator.calls": (los_calls / n_trials, "count"),
        "channel.los_indicator.us_per_call": (
            _ratio(los_ns / 1e3, los_calls, "los_indicator us per call"), "us"),
        "channel.build_links.ms": (ms("channel.build_links"), "ms"),
        "beamforming.run_ais.ms": (ms("beamforming.run_ais"), "ms"),
        "beamforming.ais_iterate.self_ms": (
            own.get("beamforming.ais_iterate", 0) / 1e6 / n_trials, "ms"),
        "beamforming.initial_state.ms": (ms("beamforming.initial_state"), "ms"),
        "beamforming.iters": (calls.get("beamforming.ais_iterate", 0) / n_trials, "count"),
        "beamforming.cm_interior_elems": (interior / n_trials, "count"),
        "rates.effective_gains.calls": (calls.get("rates.effective_gains", 0) / n_trials, "count"),
        "rates.effective_gains.ms": (ms("rates.effective_gains"), "ms"),
        "rates.optimal_powers.ms": (ms("rates.optimal_powers"), "ms"),
        "harness.run_trial.self_ms": (own["harness.run_trial"] / 1e6 / n_trials, "ms"),
        "harness.apply_misalignment.ms": (ms("harness.apply_misalignment"), "ms"),
        "config.build_scenario.ms": (
            _ratio(total.get("config.build_scenario", 0) / 1e6,
                   calls.get("config.build_scenario", 0), "build_scenario ms per call"), "ms"),
    }

"""Correctness gates of the trial benchmark.

None of these depends on timing: the per-trial invariants are checked on
every trial that runs to the end, and the output digest covers fixed trials.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager

from fdrelay import beamforming, solver
from fdrelay.solver import CAP_TOL, FEAS_TOL, GAP_TOL


def certified(info: solver.SolveInfo) -> bool:
    """The three tolerances the solver promises for every returned solve."""
    return info.gap <= GAP_TOL and info.int_violation <= FEAS_TOL and info.cap_violation <= CAP_TOL


class SolveAudit:
    """Stands in for ``beamforming.solve_bf_subproblem`` and checks each certificate.

    ``solve_bf_subproblem`` drops the ``SolveInfo``; the audit calls
    ``solver.solve_bf_subproblem_report`` through the module, so a wrapper put
    there from outside is seen too, and returns the same weights.
    """

    def __init__(self) -> None:
        self.uncertified: list[str] = []  # of the current trial
        self.observer = None  # called as observer(w, info, cap, ok) when tracing

    def __call__(self, h_sig, h_int, eta, cap):
        w, info = solver.solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        ok = certified(info)
        if not ok:
            self.uncertified.append(
                f"uncertified {info.method} solve: gap={info.gap:.3e} "
                f"int={info.int_violation:.3e} cap={info.cap_violation:.3e}"
            )
        if self.observer is not None:
            self.observer(w, info, cap, ok)
        return w

    @contextmanager
    def installed(self):
        original = beamforming.solve_bf_subproblem
        beamforming.solve_bf_subproblem = self
        try:
            yield self
        finally:
            beamforming.solve_bf_subproblem = original


def trial_problems(result, scenario, audit: SolveAudit) -> list[str]:
    """Why a finished trial fails, or an empty list.

    Deliberately not checked: ``proposed <= strict_bound_min`` (coherent
    multipath can beat a bound that adds up |g_l|^2) and
    ``proposed >= despos_steer`` (not guaranteed).
    """
    problems = list(audit.uncertified)
    for scheme, rate in sorted(result.rates.items()):
        if not math.isfinite(rate):
            problems.append(f"rate {scheme} is {rate!r}")
    p_s, p_v = result.powers_proposed
    if not 0.0 <= p_s <= scenario.p_s_tot:
        problems.append(f"source power {p_s!r} outside [0, {scenario.p_s_tot!r}]")
    if not 0.0 <= p_v <= scenario.p_v_tot:
        problems.append(f"relay power {p_v!r} outside [0, {scenario.p_v_tot!r}]")
    return problems


def canonical(result, master_seed: int) -> dict:
    """The outputs the digest covers, with every float written exactly."""
    pos = result.designed_position
    return {
        "master_seed": master_seed,
        "trial": result.trial_index,
        "rates": {k: float(v).hex() for k, v in sorted(result.rates.items())},
        "position": [float(pos.x).hex(), float(pos.y).hex(), float(pos.z).hex()],
        "iters": dict(sorted(result.iters.items())),
        "powers": [float(p).hex() for p in result.powers_proposed],
    }


def digest(items: list[dict | None]) -> str:
    """sha256 over the canonical outputs; a trial that raised hashes as null."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in result line")


def parse_strict(line: str) -> dict:
    """Parse a result line, refusing NaN and Infinity."""
    return json.loads(line, parse_constant=_reject_constant)


def result_line(result: dict, declared: dict[str, str]) -> str:
    """The strict JSON result line; every declared metric, finite, and nothing else.

    ``declared`` maps each metric name of the mode to its unit.
    """
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, entry in metrics.items():
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
        if entry["unit"] != declared[name]:
            raise ValueError(f"metric {name} has unit {entry['unit']!r}, declared {declared[name]!r}")
    line = json.dumps(result, allow_nan=False)
    parse_strict(line)
    return line

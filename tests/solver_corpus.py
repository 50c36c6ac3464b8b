"""The solver's corpus: seeded fuzz families, named instances, the
subproblems of real trials, and the recovery that certifies a solve.

Each named instance once made a solve raise SolverError or miss its
certificate; ``NAMED`` keeps it with the recovery that certifies it now.
Run as a script, the module solves the fuzz families and prints, per family,
the shortcut and dual counts, how many solves each recovery certified, and
every uncertified or raised solve (exit 1 if there is one):

    PYTHONPATH=src python tests/solver_corpus.py --per-family 5000 --seed 7

``--per-family 1000 --seed 2029`` solves the sample that
tests/test_solver.py::TestSeededFuzz checks.

With ``--capture`` it records every subproblem that trials 0 to K - 1 of a
trialbench workload solve (``capture``), re-solves each the same way, and
also prints the mean time a solve took in the trials, per route; a re-solve
that differs from its trial's solve is a fault too. ``--save`` writes the
captured solves to that one .npz file (keep it out of the repository):

    PYTHONPATH=src:. python tests/solver_corpus.py --capture paper_default --trials 20 --seed 0
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import math
import sys
import time
from typing import NamedTuple
from unittest import mock

import numpy as np

import fdrelay.solver as solver
from fdrelay import beamforming, config, harness
from fdrelay.solver import CAP_TOL, FEAS_TOL, GAP_TOL, SolverError, solve_bf_subproblem_report

FUZZ_FAMILIES = ("decades_0", "decades_6", "decades_12", "near_origin", "zeroed", "cluster")


def instance(rng, n):
    """Gaussian signal and interference channels of N elements."""
    h_sig = rng.normal(size=n) + 1j * rng.normal(size=n)
    h_int = rng.normal(size=n) + 1j * rng.normal(size=n)
    return h_sig, h_int


def from_flat(flat):
    """A complex vector from its real parts followed by its imaginary parts."""
    arr = np.asarray(flat)
    half = arr.size // 2
    return arr[:half] + 1j * arr[half:]


def fuzz_instance(rng, family, n):
    """One seeded subproblem of a fuzz family, with N elements.

    ``decades_d``: magnitudes 10^U(-d/2, d/2) with uniform phases. The rest
    start from Gaussian channels: ``near_origin`` puts one ratio point
    h_sig_n / h_int_n 1e-320 to 1e-5 from the origin, ``zeroed`` zeroes
    about 40% of the interference elements, and ``cluster`` puts 2 to N
    ratio points within 1e-14 to 1e-6 relative of one another.
    """

    def phases(k):
        return np.exp(2j * np.pi * rng.uniform(size=k))

    if family.startswith("decades_"):
        half = int(family.split("_")[1]) / 2
        h_sig = 10 ** rng.uniform(-half, half, n) * phases(n)
        h_int = 10 ** rng.uniform(-half, half, n) * phases(n)
    else:
        h_sig, h_int = instance(rng, n)
        if family == "near_origin":
            k = rng.integers(n)
            h_sig[k] = h_int[k] * 10 ** rng.uniform(-320, -5) * phases(1)[0]
        elif family == "zeroed":
            h_int[rng.uniform(size=n) < 0.4] = 0
        else:
            m = rng.integers(2, n + 1)
            idx = rng.choice(n, m, replace=False)
            p = rng.normal() + 1j * rng.normal()
            h_sig[idx] = h_int[idx] * p * (1 + 10 ** rng.uniform(-14, -6, m) * phases(m))
    cap = 1.0 / math.sqrt(n)
    eta = rng.uniform(0.01, 1.1) * cap * float(np.linalg.norm(h_int))
    return h_sig, h_int, eta, cap


def fuzz_cases(family, seed, count):
    """``count`` seeded subproblems of a family, N from 2 to 64, as (N, case)."""
    rng = np.random.default_rng([seed, FUZZ_FAMILIES.index(family)])
    for _ in range(count):
        n = int(rng.integers(2, 65))
        yield n, fuzz_instance(rng, family, n)


def failures(case, w, info):
    """The certificate checks a solve misses, on its SolveInfo and on w itself."""
    _, h_int, eta, cap = case
    checks = {
        "gap": info.gap <= GAP_TOL,
        "interference": info.int_violation <= FEAS_TOL,
        "cap": info.cap_violation <= CAP_TOL,
        "cap of w": np.max(np.abs(w)) <= cap + CAP_TOL,
        "interference of w": abs(np.vdot(w, h_int)) <= eta + FEAS_TOL * np.linalg.norm(h_int),
    }
    return [name for name, ok in checks.items() if not ok]


def solve_recorded(case):
    """Solve ``case``; return w, its SolveInfo and the recovery that certified it.

    The recovery is None on the shortcut route. On the dual route it is
    ("z*", tol) or ("0", tol): the closed-form recovery at the dual
    minimizer z* (after any snap) or at z = 0, and its residual tolerance,
    read from the last call of solver._recover_primal.
    """
    with mock.patch.object(solver, "_recover_primal", wraps=solver._recover_primal) as spy:
        w, info = solve_bf_subproblem_report(*case)
    if not spy.call_args_list:
        return w, info, None
    z_star = spy.call_args_list[0].args[0]
    z, tol = spy.call_args.args[0], spy.call_args.args[-1]
    return w, info, ("z*" if z == z_star else "0", tol)


def _case(h_sig, h_int, eta_frac):
    """A subproblem with cap 1/sqrt(N) and eta = eta_frac * cap * sum |h_int|."""
    cap = 1.0 / math.sqrt(h_sig.size)
    return h_sig, h_int, eta_frac * cap * np.sum(np.abs(h_int)), cap


def _sparse(n, h_sig_at, h_int_at, eta_frac):
    """N elements, zero but at the given indices."""
    h_sig, h_int = np.zeros(n, complex), np.zeros(n, complex)
    h_sig[list(h_sig_at)] = list(h_sig_at.values())
    h_int[list(h_int_at)] = list(h_int_at.values())
    return _case(h_sig, h_int, eta_frac)


def _beside(ratios, rest_sig, h_int, eta_frac):
    """The first elements' ratio points h_sig_n / h_int_n are ``ratios``."""
    h_int = np.array(h_int)
    h_sig = np.array([h_int[k] * r for k, r in enumerate(ratios)] + rest_sig)
    return _case(h_sig, h_int, eta_frac)


def _fuzz(family, seed, index):
    """Instance ``index`` of the fuzz run ``fuzz_cases(family, seed, ...)``."""
    for i, (_, case) in enumerate(fuzz_cases(family, seed, index + 1)):
        if i == index:
            return case


class Named(NamedTuple):
    case: tuple  # h_sig, h_int, eta, cap
    recovery: tuple[str, float]  # the recovery that certifies it (solve_recorded)


NAMED = {
    # element 3's ratio point lies ~5e-9 from the origin and the smooth
    # minimizer ~1e-9 from both: snapped to zero, it left element 3
    # saturated along a noise phase, and neither route certified. Unsnapped,
    # z* lies 2e-10 and 8e-10 from the origin
    "smooth_beside_5e-9_ratio_a": Named(_case(
        from_flat([-2.0, 0.0, 0.0, 1e-08, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0]),
        from_flat([-1.5, 1.5, -2.0, 2.0, 0.0, -1.0, 0.0, 0.0, -0.5, 1.5]), 0.53125), ("z*", 1e-12)),
    "smooth_beside_5e-9_ratio_b": Named(_case(
        from_flat([-1.5, 0.0, 0.0, 1e-08, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0]),
        from_flat([-1.5, 1.5625, -1.0, 1.75, -0.5, -0.875, 0.0, 0.0, -0.5, 1.625]), 0.5078125),
        ("z*", 1e-6)),
    # the kink is element 2's or 5's ratio point. At 1e-9 from the origin
    # it is a multiplier of its own: snapped to zero, it left element 2
    # saturated along a noise phase, which raised SolverError on the first
    # case and missed eta on the second. At 6e-306 it is tied with the
    # origin in the kink test: not snapped, it missed the gap by 4.5e-3
    "kink_1e-9_raised": Named(
        _sparse(11, {2: 1e-9j, 7: -1.0, 10: 1j}, {2: 1.0, 7: 1j}, 0.5), ("z*", 1e-12)),
    "kink_1e-9_missed_eta": Named(
        _sparse(11, {2: 1e-9j, 9: 2j}, {2: 1.875, 10: 1.125j}, 0.125), ("z*", 1e-12)),
    "kink_tied_with_origin": Named(_sparse(
        24, {0: 1.0, 1: 1j, 5: 4.6128082352751153e-306}, {0: 2.0, 1: 1j, 5: 1.5j, 23: 1.0}, 0.125),
        ("z*", 1e-12)),
    # ratio point 1e-15 from the origin: Weiszfeld once stepped off it only
    # by ~1e-15 a step, pinned by the origin's 1/d weight, and the recovery
    # at that z* missed the gap by 1.4e-2
    "cluster_1e-15_ratio": Named(_beside(
        [1e-15], [-0.87 + 0.67j, 0.27 - 2.05j, 0.71 - 0.39j],
        [-1.11 + 0.1j, -1.09 - 0.69j, 0.27 - 2.64j, 0.9 + 0.79j], 0.471), ("z*", 1e-12)),
    # smooth z* 8e-8 from two ratio points at 1e-7 and 1e-11j: their
    # residual phases are noise, freed only at tol 1e-6 (gap was 1.6e-6)
    "cluster_1e-7_and_1e-11j": Named(_beside(
        [1e-7, 1e-11j], [1.83 - 1.91j], [0.25 - 0.32j, 0.36 - 0.37j, 0.36 + 1.59j], 0.291),
        ("z*", 1e-6)),
    # smooth z* beside a ratio point at 1e-8: -arg(z*) itself is noise, and
    # only the slack recovery at z = 0 certifies (gap was 1.2e-5)
    "cluster_1e-8j_slack": Named(_beside(
        [1e-8j], [-0.7 + 1.87j, 2.65 - 0.11j], [-0.54 + 0.72j, -0.42 - 1.21j, -1.09 + 0.49j], 0.472),
        ("0", 1e-6)),
    # the free-element fill divided by |i_hat_0| ~ 1.6e-311 and overflowed,
    # which left a NaN gap; with i_hat_0 = 0 the same solve certifies
    "subnormal_h_int": Named(_sparse(
        7, {1: 1, 4: 1}, {0: 2.225073858507e-311, 1: 1, 4: 1j}, 0.5), ("z*", 1e-12)),
    "zeroed_h_int": Named(_sparse(7, {1: 1, 4: 1}, {0: 0.0, 1: 1, 4: 1j}, 0.5), ("z*", 1e-12)),
    # seed 821 of a near-origin fuzz: the smooth minimizer sits 3.2e-9 from
    # the origin and 9e-10 from element 6's ratio point; the recoveries at
    # z* missed eta by 1.6e-5, and only the one at z = 0 certifies
    "seed_821": Named(_case(
        np.array([-0.5, -1, 0.5j, 1.5, 2j, 1, -4.420213355213637e-10 - 2.7473111802556294e-09j]),
        np.array([1j, 1.5, 0, 0, 0, 1.5j, 1j]), 0.125), ("0", 1e-6)),
    # N = 16 over six decades: the interference projection of the last
    # feasibility-polish round leaves an element past its cap, and only the
    # polish's final clip certifies it
    "decades_6_seed_11_1196": Named(_fuzz("decades_6", 11, 1196), ("z*", 1e-12)),
}


class TrialSolve(NamedTuple):
    case: tuple  # h_sig, h_int, eta, cap, as the trial passed them
    w: bytes  # the weights the solve returned
    info: solver.SolveInfo
    seconds: float


def capture(workload, trials, seed):
    """Every ``beamforming.solve_bf_subproblem`` call of the given trials of a
    trialbench workload at master seed ``seed``, as TrialSolves in call order.

    The recorder stands in for that binding, as trialbench's
    ``checks.SolveAudit`` does, and solves through
    ``solver.solve_bf_subproblem_report``, so the trials run as they would
    unrecorded.
    """
    from trialbench.workloads import WORKLOADS  # needs the repository root on the path

    solves = []

    def record(h_sig, h_int, eta, cap):
        case = (np.array(h_sig), np.array(h_int), eta, cap)
        start = time.perf_counter()
        w, info = solver.solve_bf_subproblem_report(h_sig, h_int, eta, cap)
        solves.append(TrialSolve(case, w.tobytes(), info, time.perf_counter() - start))
        return w

    scenario = config.build_scenario({**WORKLOADS[workload].overrides, "master_seed": seed})
    with mock.patch.object(beamforming, "solve_bf_subproblem", record):
        for trial_index in trials:
            harness.run_trial(scenario, trial_index)
    return solves


def save(path, solves):
    """Write captured solves to the .npz file ``path``: each solve's element
    count, its vectors concatenated in call order, and one entry per solve for
    eta, cap, the seconds it took and each SolveInfo field."""
    arrays = {
        "n": [s.case[0].size for s in solves],
        "h_sig": np.concatenate([s.case[0] for s in solves]),
        "h_int": np.concatenate([s.case[1] for s in solves]),
        "eta": [s.case[2] for s in solves],
        "cap": [s.case[3] for s in solves],
        "w": np.concatenate([np.frombuffer(s.w, dtype=complex) for s in solves]),
        "seconds": [s.seconds for s in solves],
    }
    for f in dataclasses.fields(solver.SolveInfo):
        arrays[f.name] = [getattr(s.info, f.name) for s in solves]
    with open(path, "wb") as fh:  # np.savez given a name would append .npz to it
        np.savez(fh, **arrays)


def tally(label, cases):
    """Solve each (N, case, trial solve) and print the label's counts and
    faults; True when there is none. The trial solve is None, or the
    TrialSolve whose w bytes and SolveInfo the solve must reproduce."""
    counts, faults = collections.Counter(), []
    for i, (n, case, trial_solve) in enumerate(cases):
        where = f"  instance {i} (N = {n})"
        try:
            w, info, recovery = solve_recorded(case)
        except SolverError as exc:
            counts["raised"] += 1
            faults.append(f"{where} raised: {exc}")
            continue
        counts[info.method] += 1
        if recovery is not None:
            counts[recovery] += 1
        missed = failures(case, w, info)
        if trial_solve is not None and (w.tobytes(), info) != (trial_solve.w, trial_solve.info):
            missed.append("its trial's w or SolveInfo")
        if missed:
            counts["uncertified"] += 1
            faults.append(f"{where} uncertified: misses {', '.join(missed)}")
    # the recoveries at z* by tolerance, then the one at z = 0
    recoveries = sorted(
        (key for key in counts if isinstance(key, tuple)), key=lambda r: (r[0] == "0", r[1])
    )
    certified = ", ".join(f"{z} at {tol:g}: {counts[z, tol]}" for z, tol in recoveries)
    print(f"{label}: {counts['shortcut']} shortcut, {counts['dual']} dual ({certified}); "
          f"{counts['uncertified']} uncertified, {counts['raised']} raised")
    for line in faults:
        print(line)
    return not faults


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Solve the seeded fuzz families, or the subproblems of a trialbench "
        "workload's trials, and count how each solve certified."
    )
    parser.add_argument("--per-family", type=int, default=1000, metavar="N")
    parser.add_argument("--seed", type=int, default=2029, metavar="S")
    parser.add_argument("--capture", metavar="WORKLOAD", help="solve this workload's subproblems")
    parser.add_argument("--trials", type=int, default=4, metavar="K", help="trials to capture")
    parser.add_argument("--save", metavar="PATH.npz", help="write the captured solves here")
    args = parser.parse_args(argv)
    if args.capture is None:
        clean = [
            tally(family, ((n, case, None) for n, case in fuzz_cases(family, args.seed, args.per_family)))
            for family in FUZZ_FAMILIES
        ]
        return 0 if all(clean) else 1
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    solves = capture(args.capture, range(args.trials), args.seed)
    clean = tally(args.capture, ((s.case[0].size, s.case, s) for s in solves))
    means = []
    for method in ("shortcut", "dual"):
        seconds = [s.seconds for s in solves if s.info.method == method]
        if seconds:
            means.append(f"{method} {1e6 * sum(seconds) / len(seconds):.1f} us")
    print(f"  mean time a solve in the trials: {', '.join(means)}")
    if args.save:
        save(args.save, solves)
        print(f"  wrote {len(solves)} solves to {args.save}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

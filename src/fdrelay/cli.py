"""Command-line front end: position reports, convergence traces, sweeps.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure.
All CSV output uses ',' separators and '.' decimals; reruns with the same
seed and arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .channel import Vec3
from .config import ConfigError, build_scenario, load_config
from .harness import SOURCE, OutputRow, Scenario, SweepSpec, place_relay, run_sweep, run_trial
from .positioning import approx_upper_bounds
from .solver import SolverError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Full-duplex UAV relay placement, beamforming, and rate simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="scenario config file")
        p.add_argument("--seed", type=int, metavar="N", help="override master_seed")
        p.add_argument("--trials", type=int, metavar="N", help="override trial count")
        p.add_argument("--workers", type=int, metavar="N", help="override worker count")

    p_pos = sub.add_parser("position", help="report the optimal relay position")
    common(p_pos)

    p_conv = sub.add_parser("converge", help="per-iteration trace of one trial")
    common(p_conv)
    p_conv.add_argument("--out", metavar="PATH", help="CSV path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over one parameter")
    common(p_sweep)
    p_sweep.add_argument(
        "--sweep", required=True, metavar="NAME=v1,v2,...", help="parameter and values"
    )
    p_sweep.add_argument("--out", required=True, metavar="PATH", help="CSV output path")

    p_trial = sub.add_parser("trial", help="run one trial and print a JSON report")
    common(p_trial)
    p_trial.add_argument("--out", metavar="PATH", help="JSON path (default: stdout)")

    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    overrides = load_config(args.config) if args.config else {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.workers is not None:
        overrides["workers"] = args.workers
    return build_scenario(overrides)


def _fmt_vec(v: Vec3) -> str:
    return f"({v.x!r}, {v.y!r}, {v.z!r})"


def cmd_position(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    placement = place_relay(scenario, 0)
    dn, adjusted = placement.dn, placement.designed
    b_s2v, b_v2d = approx_upper_bounds(adjusted, scenario.budget, scenario.env, SOURCE, dn)

    print(f"dn = {_fmt_vec(dn)}")
    print(f"rho_star = {placement.rho!r}")
    print(f"p_star = {_fmt_vec(placement.p_star)}")
    print(f"adjusted = {_fmt_vec(adjusted)}")
    print(f"fallback = {int(placement.fallback)}")
    print(f"approx_bound_s2v_bps_hz = {b_s2v!r}")
    print(f"approx_bound_v2d_bps_hz = {b_v2d!r}")
    return 0


_CONVERGE_FIELDS = ("iteration", "rate", "si_gain", "s2d_gain", "p_s", "p_v")


def cmd_converge(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    result = run_trial(scenario, 0)
    rows = [
        (
            k,
            result.rate_trace[k],
            result.si_gain_trace[k],
            result.s2d_gain_trace[k],
            result.power_trace[k][0],
            result.power_trace[k][1],
        )
        for k in range(len(result.rate_trace))
    ]

    def emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CONVERGE_FIELDS)
        writer.writerows(rows)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        print(f"wrote {len(rows)} iterations to {args.out}")
    else:
        emit(sys.stdout)
    return 0


def _parse_sweep_flag(flag: str) -> tuple[str, tuple[float, ...]]:
    name, sep, raw = flag.partition("=")
    if not sep or not raw:
        raise ConfigError(f"bad sweep flag {flag!r}: expected NAME=v1,v2,...")
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sweep values in {flag!r}") from exc
    return name.strip(), values


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    name, values = _parse_sweep_flag(args.sweep)
    try:
        spec = SweepSpec(param=name, values=values, base=scenario)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_sweep(spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OutputRow.FIELDS)
        for row in rows:
            writer.writerow(
                (
                    row.sweep_param,
                    row.sweep_value,
                    row.scheme,
                    row.mean_rate_bps_hz,
                    row.stderr,
                    row.n_trials,
                    row.mean_iters,
                    row.fallback_frac,
                )
            )
    for row in rows:
        if row.scheme == "proposed":
            print(
                f"{row.sweep_param}={row.sweep_value}: "
                f"proposed mean rate {row.mean_rate_bps_hz:.4f} bps/Hz "
                f"(stderr {row.stderr:.4f}, {row.n_trials} trials)"
            )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_trial(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    result = run_trial(scenario, 0)
    doc = {
        "trial_index": result.trial_index,
        "dn": [result.dn.x, result.dn.y, result.dn.z],
        "rho": result.rho,
        "designed_position": [
            result.designed_position.x,
            result.designed_position.y,
            result.designed_position.z,
        ],
        "random_position": [
            result.random_position.x,
            result.random_position.y,
            result.random_position.z,
        ],
        "fallback": result.fallback,
        "rates": result.rates,
        "approx_bound_s2v": result.approx_bound_s2v,
        "approx_bound_v2d": result.approx_bound_v2d,
        "strict_bound_min": result.strict_bound_min,
        "iters": result.iters,
        "powers_proposed": list(result.powers_proposed),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote trial report to {args.out}")
    else:
        print(text)
    return 0


_DISPATCH = {
    "position": cmd_position,
    "converge": cmd_converge,
    "sweep": cmd_sweep,
    "trial": cmd_trial,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

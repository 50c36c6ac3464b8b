"""Command-line front end: position reports, convergence traces, sweeps.

`position`, `converge` and `trial` run the one trial named by --trial-index,
so any trial of a sweep replays from its config, seed and trial index.
Exit codes: 0 success, 2 configuration or usage error (a value that overflows
a float included), 3 numerical failure, out of memory or a dead worker process.
All CSV output uses ',' separators and '.' decimals; reruns with the same
seed and arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import stat
import sys

from .channel import Vec3
from .config import ConfigError, build_scenario, load_config
from .harness import OutputRow, Scenario, SweepSpec, place_relay, run_sweep, run_trial
from .harness import PanelMemoryError, WorkerDiedError
from .positioning import approx_upper_bounds
from .solver import SolverError


def _trial_index(raw: str) -> int:
    index = int(raw)
    if index < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {index}")
    return index


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Full-duplex UAV relay placement, beamforming, and rate simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="scenario config file")
        p.add_argument("--seed", type=int, metavar="N", help="override master_seed")

    def single_trial(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        scenario_flags(p)
        p.add_argument(
            "--trial-index", type=_trial_index, default=0, metavar="N", help="trial to run (default 0)"
        )
        return p

    single_trial("position", "report the optimal relay position of one trial")

    p_conv = single_trial("converge", "per-iteration trace of one trial")
    p_conv.add_argument("--out", metavar="PATH", help="CSV path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over one parameter")
    scenario_flags(p_sweep)
    p_sweep.add_argument("--trials", type=int, metavar="N", help="override trial count")
    p_sweep.add_argument("--workers", type=int, metavar="N", help="override worker count")
    p_sweep.add_argument(
        "--sweep", required=True, metavar="NAME=v1,v2,...", help="parameter and values"
    )
    p_sweep.add_argument("--out", required=True, metavar="PATH", help="CSV output path")

    p_trial = single_trial("trial", "run one trial and print a JSON report")
    p_trial.add_argument("--out", metavar="PATH", help="JSON path (default: stdout)")

    return parser


def _scenario_from_args(args: argparse.Namespace, **flags: int | None) -> Scenario:
    """Config file, then ``--seed`` and any other non-None flag overrides."""
    overrides = load_config(args.config) if args.config else {}
    flags["master_seed"] = args.seed
    overrides.update({key: value for key, value in flags.items() if value is not None})
    return build_scenario(overrides)


@contextlib.contextmanager
def _open_out(path: str | None):
    """``--out`` (or stdout), opened before the first trial so a bad path
    fails at once; a failed command removes the file while it is still a
    regular file there, never a link or a device such as /dev/stdout, and
    raises its own error."""
    if path is None:
        yield sys.stdout
        return
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _fmt_vec(v: Vec3) -> str:
    return f"({v.x!r}, {v.y!r}, {v.z!r})"


def cmd_position(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    placement = place_relay(scenario, args.trial_index)
    dn, adjusted = placement.dn, placement.designed
    b_s2v, b_v2d = approx_upper_bounds(adjusted, scenario.budget, scenario.env, dn)

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
    with _open_out(args.out) as out:
        result = run_trial(scenario, args.trial_index)
        rows = [(k, p.rate, p.gains.g_si, p.gains.g_s2d, *p.powers) for k, p in enumerate(result.trace)]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CONVERGE_FIELDS)
        writer.writerows(rows)
    if args.out:
        print(f"wrote {len(rows)} iterations to {args.out}")
    return 0


def _parse_sweep_flag(flag: str) -> tuple[str, tuple[float, ...]]:
    name, sep, raw = flag.partition("=")
    if not sep or not raw:
        raise ConfigError(f"bad sweep flag {flag!r}: expected NAME=v1,v2,...")
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sweep values in {flag!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"sweep values must be finite in {flag!r}")
    return name.strip(), values


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args, trials=args.trials, workers=args.workers)
    name, values = _parse_sweep_flag(args.sweep)
    spec = SweepSpec(param=name, values=values, base=scenario)  # fails before --out opens
    with _open_out(args.out) as out:
        rows = run_sweep(spec)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(field.name for field in dataclasses.fields(OutputRow))
        writer.writerows(dataclasses.astuple(row) for row in rows)
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
    with _open_out(args.out) as out:
        result = run_trial(scenario, args.trial_index)
        doc = {
            "trial_index": result.trial_index,
            "dn": list(dataclasses.astuple(result.dn)),
            "rho": result.rho,
            "designed_position": list(dataclasses.astuple(result.designed_position)),
            "random_position": list(dataclasses.astuple(result.random_position)),
            "fallback": result.fallback,
            "rates": result.rates,
            "approx_bound_s2v": result.approx_bound_s2v,
            "approx_bound_v2d": result.approx_bound_v2d,
            "strict_bound_min": result.strict_bound_min,
            "iters": result.iters,
            "powers_proposed": list(result.powers_proposed),
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.out:
        print(f"wrote trial report to {args.out}")
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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value overflows a float ({exc})", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(exc if isinstance(exc, PanelMemoryError) else "out of memory", file=sys.stderr)
        return 3
    except WorkerDiedError as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

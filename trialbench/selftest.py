"""Proves that each gate of the trial benchmark can fail.

    python3 trialbench/selftest.py

Checks, each printed as PASS or FAIL (exit code 1 on any FAIL):
  - a corrupted reference digest gives ``correct: false``;
  - a solver returning an out-of-tolerance ``SolveInfo`` fails every trial;
  - NaN and Infinity are refused in the result line;
  - fdrelay comes from this checkout's ``src/`` and from nowhere else, even
    with a decoy package on PYTHONPATH, and a directory holding only the
    benchmark exits non-zero without a result;
  - every declared metric is printed, finite, on every workload in both
    modes at the shortest run length (1 s).
Scratch files go under ``trialbench/out/`` and are removed afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import traceback

import run  # imports fdrelay from this checkout

import checks
from fdrelay import solver
from workloads import WORKLOADS

SCRATCH = run.OUT_DIR / "selftest"
GATES = []


def gate(fn):
    GATES.append(fn)
    return fn


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _bench(args: list[str], cwd, env=None, timeout=180) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "trialbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


@gate
def corrupted_digest_is_incorrect():
    good = WORKLOADS["paper_default"]
    flipped = ("0" if good.check_digest[0] != "0" else "1") + good.check_digest[1:]
    _expect(run.run("paper_default", 0, 0.5, True)["correct"], "the true digest must pass")
    result = run.run("paper_default", 0, 0.5, True, dataclasses.replace(good, check_digest=flipped))
    _expect(result["correct"] is False, "a corrupted digest must give correct: false")


@gate
def uncertified_solve_fails_trials():
    original = solver.solve_bf_subproblem_report

    def out_of_tolerance(*args):
        w, info = original(*args)
        return w, dataclasses.replace(info, gap=10.0 * solver.GAP_TOL)

    solver.solve_bf_subproblem_report = out_of_tolerance
    try:
        result = run.run("paper_default", 0, 0.5, False)
    finally:
        solver.solve_bf_subproblem_report = original
    frac = result["metrics"]["ok_trial_frac"]["value"]
    _expect(result["attempted"] >= 1, "at least one trial must be attempted")
    _expect(result["failed"] == result["attempted"], f"every trial must fail, got {result['failed']}")
    _expect(frac == 0.0, f"ok_trial_frac must be 0, got {frac}")
    _expect(result["correct"] is False, "failing check trials must give correct: false")


@gate
def non_finite_metrics_rejected():
    declared = {"x": "ms"}
    for bad in (math.nan, math.inf, -math.inf):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"x": {"value": bad, "unit": "ms"}}}
        try:
            checks.result_line(result, declared)
        except ValueError:
            continue
        raise AssertionError(f"result_line accepted {bad!r}")
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        try:
            checks.parse_strict(text)
        except ValueError:
            continue
        raise AssertionError(f"parse_strict accepted {text}")
    missing = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    try:
        checks.result_line(missing, declared)
    except ValueError:
        return
    raise AssertionError("result_line accepted a result without a declared metric")


@gate
def imports_only_from_checkout():
    import fdrelay

    _expect(os.path.samefile(fdrelay.__file__, run.FDRELAY_INIT), f"imported {fdrelay.__file__}")
    decoy = SCRATCH / "decoy"
    (decoy / "fdrelay").mkdir(parents=True, exist_ok=True)
    (decoy / "fdrelay" / "__init__.py").write_text("raise SystemExit('decoy fdrelay imported')\n")
    env = {**os.environ, "PYTHONPATH": str(decoy)}

    done = _bench(["--workload", "paper_default", "--seed", "0", "--seconds", "1"], run.ROOT, env)
    _expect(done.returncode == 0, f"checkout run with a decoy on PYTHONPATH failed: {done.stderr[-500:]}")
    _expect(checks.parse_strict(done.stdout.splitlines()[-1])["correct"], "checkout run must be correct")

    bare = SCRATCH / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = _bench(["--workload", "paper_default", "--seed", "0", "--seconds", "1"], bare, env)
    _expect(done.returncode != 0, "a directory without src/ must exit non-zero")
    _expect("decoy" not in done.stdout + done.stderr, "the decoy fdrelay must not be imported")
    _expect('"correct"' not in done.stdout, "a directory without src/ must print no result")


@gate
def declared_metrics_finite_at_one_second():
    for trace in (0, 1):
        declared = run.declared_metrics(bool(trace))
        for name in sorted(WORKLOADS):
            done = _bench(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)], run.ROOT)
            _expect(done.returncode == 0, f"{name} trace={trace} exited {done.returncode}: {done.stderr[-500:]}")
            result = checks.parse_strict(done.stdout.splitlines()[-1])
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
            _expect(result["correct"] is True, f"{name} trace={trace} not correct")
            checks.result_line(result, declared)  # every declared metric, finite, nothing else


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    failures = 0
    for fn in GATES:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                fn()
        except Exception as exc:  # report every gate, not only the first failure
            failures += 1
            traceback.print_exc()
            print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {fn.__name__}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps({"passed": len(GATES) - failures, "failed": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

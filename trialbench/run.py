"""Closed-loop Monte Carlo trial benchmark for fdrelay.

    python3 trialbench/run.py --workload paper_default --seed 0 --seconds 30 --trace 0

One process, one client: the next ``harness.run_trial`` starts only after the
previous one returns. ``--trace 0`` prints the end-to-end metrics of an
untraced run. ``--trace 1`` runs untraced for half the time, replays exactly
those trials (and the check trials) with spans around each layer, checks that
both passes produced the same outputs, and prints the per-layer metrics. The
last line of standard output is the strict JSON result; README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads: trials run one at a time on a
# two-core box, and a second BLAS thread would only contend with the first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FDRELAY_INIT = SRC / "fdrelay" / "__init__.py"
OUT_DIR = BENCH_DIR / "out"


def _load_checkout_fdrelay():
    """Import fdrelay from this checkout's ``src/`` and from nowhere else."""
    if not FDRELAY_INIT.is_file():
        sys.exit(f"trialbench: no fdrelay sources at {FDRELAY_INIT}")
    sys.path.insert(0, str(SRC))
    import fdrelay

    if Path(fdrelay.__file__).resolve() != FDRELAY_INIT.resolve():
        sys.exit(f"trialbench: fdrelay was imported from {fdrelay.__file__}, not {FDRELAY_INIT}")


_load_checkout_fdrelay()

import numpy as np  # noqa: E402
from fdrelay import config, harness  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 7
BUILD_SCENARIO_REPS = 5
# a fresh interpreter: import fdrelay from the given src/ and build the scenario
_SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import fdrelay; "
    "from fdrelay import config; config.build_scenario(json.loads(sys.argv[2])); "
    "print(fdrelay.__file__)"
)


class _TimeUp(BaseException):
    """Raised inside a trial by the run's alarm once its time has run out."""


@dataclass
class TrialRecord:
    index: int
    ns: int
    problems: list[str]
    canonical: dict | None  # None when the trial raised
    norm_ns: float = math.nan  # ns at the calibration kernel's nominal speed


def normalize(records: list[TrialRecord], kernel_times: list[int]) -> None:
    """Set each record's time at nominal speed; trial i ran between kernel runs i and i + 1."""
    for record, slowdown in zip(records, calibrate.slowdowns(kernel_times), strict=True):
        record.norm_ns = record.ns / slowdown


def traced_replay(jobs, audit: checks.SolveAudit, tracer: spans.Tracer) -> list[TrialRecord]:
    """Run ``(scenario, index)`` jobs in order, traced, with the calibration kernel around each."""
    kernel_times = [calibrate.kernel_ns()]
    records = []
    for k, (scenario, index) in enumerate(jobs):
        tracer.trial = k
        records.append(run_one(scenario, index, audit))
        kernel_times.append(calibrate.kernel_ns())
    normalize(records, kernel_times)
    return records


def run_one(scenario, index: int, audit: checks.SolveAudit) -> TrialRecord:
    audit.uncertified.clear()
    start = time.perf_counter_ns()
    try:
        result = harness.run_trial(scenario, index)
    except Exception as exc:  # a failing trial is counted, not fatal
        ns = time.perf_counter_ns() - start
        return TrialRecord(index, ns, [f"raised {type(exc).__name__}: {exc}"], None)
    ns = time.perf_counter_ns() - start
    problems = checks.trial_problems(result, scenario, audit)
    return TrialRecord(index, ns, problems, checks.canonical(result, scenario.master_seed))


def timed_trials(scenario, seconds: float, audit: checks.SolveAudit) -> list[TrialRecord]:
    """Trials 0, 1, 2, ... until ``seconds`` have passed.

    The first trial always runs to the end, so a run has at least one. A
    later trial still running when time is up is abandoned and counts as
    neither attempted nor failed.
    """
    state = {"armed": False, "expired": False}

    def on_alarm(signum, frame):
        state["expired"] = True
        if state["armed"]:
            raise _TimeUp

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    records: list[TrialRecord] = []
    kernel_times = [calibrate.kernel_ns()]
    try:
        while not (state["expired"] and records):
            try:
                state["armed"] = bool(records)
                record = run_one(scenario, len(records), audit)
                state["armed"] = False
            except _TimeUp:
                break
            records.append(record)
            kernel_times.append(calibrate.kernel_ns())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    normalize(records, kernel_times)
    return records


def setup_seconds(overrides: dict) -> tuple[float, float]:
    """Median time of a fresh interpreter importing fdrelay and building the scenario.

    Returns (at nominal speed, raw wall time).
    """
    norm, raw = [], []
    # a kernel run right after a child process finds cold caches; the fastest
    # of three is the host's speed
    before = min(calibrate.kernel_ns() for _ in range(3))
    for _ in range(SETUP_REPS):
        start = time.perf_counter_ns()
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), json.dumps(overrides)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ns = time.perf_counter_ns() - start
        if Path(done.stdout.strip()).resolve() != FDRELAY_INIT.resolve():
            raise RuntimeError(f"set-up interpreter imported fdrelay from {done.stdout.strip()!r}")
        after = min(calibrate.kernel_ns() for _ in range(3))
        (slowdown,) = calibrate.slowdowns([before, after])
        norm.append(ns / slowdown / 1e9)
        raw.append(ns / 1e9)
        before = after
    return statistics.median(norm), statistics.median(raw)


def _openblas():
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                conf = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
            return conf().decode("ascii", "replace"), threads()
    return "unknown", -1


def environment() -> dict:
    blas, blas_threads = _openblas()
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
    }


def _percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _timings(ns: list[float]) -> tuple[float, float, float]:
    """Trials per second of busy time, median ms and p90 ms."""
    ms = [x / 1e6 for x in ns]
    return len(ns) / (sum(ns) / 1e9), statistics.median(ms), _percentile_90(ms)


def end_to_end_metrics(records, check_records, setup_s: float) -> dict[str, tuple[float, str]]:
    _, p50, p90 = _timings([r.norm_ns for r in records])
    ok = sum(1 for r in records if not r.problems)
    per_s = ok / (sum(r.norm_ns for r in records) / 1e9)  # failed trials' time is spent, not delivered
    proposed = [float.fromhex(r.canonical["rates"]["proposed"]) for r in check_records]
    return {
        "trials_per_s": (per_s, "1/s"),
        "trial_ms_p50": (p50, "ms"),
        "trial_ms_p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_trial_frac": (ok / len(records), "ratio"),
        "rate_proposed_bps_hz": (math.fsum(proposed) / len(proposed), "bps/Hz"),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None) -> dict:
    """One benchmark run; prints a report and returns the result object."""
    workload = workload or WORKLOADS[workload_name]
    env = environment()
    print("env " + json.dumps(env))
    calibrate.kernel_ns()  # first call pays numpy's lazy set-up
    audit = checks.SolveAudit()
    with audit.installed():
        if not trace:
            setup_s, setup_raw_s = setup_seconds({**workload.overrides, "master_seed": seed})
        check_scenario = config.build_scenario(
            {**workload.overrides, "master_seed": workload.check_master_seed})
        check_records = [run_one(check_scenario, i, audit) for i in workload.check_trials]
        scenario = config.build_scenario({**workload.overrides, "master_seed": seed})
        records = timed_trials(scenario, seconds / 2 if trace else seconds, audit)
        if trace:
            tracer = spans.Tracer()
            audit.observer = tracer.observe_solve
            jobs = [(check_scenario, r.index) for r in check_records] + [(scenario, r.index) for r in records]
            with tracer.installed():
                for _ in range(BUILD_SCENARIO_REPS):
                    config.build_scenario({**workload.overrides, "master_seed": seed})
                replay = traced_replay(jobs, audit, tracer)
            audit.observer = None

    check_digest = checks.digest([r.canonical for r in check_records])
    correct = check_digest == workload.check_digest and not any(r.problems for r in check_records)
    print(f"check trials {workload.check_trials} of master_seed {workload.check_master_seed}: "
          f"digest {check_digest} (reference {workload.check_digest})")
    failed_idx = {r.index for r in records if r.problems}
    if trace:
        untraced = check_records + records
        same = checks.digest([r.canonical for r in untraced]) == checks.digest([r.canonical for r in replay])
        print(f"traced replay of {len(replay)} trials: outputs {'equal' if same else 'DIFFER'}")
        correct = correct and same
        timed_replay = replay[len(check_records):]
        failed_idx |= {r.index for r in timed_replay if r.problems}
        metrics = spans.layer_metrics(tracer, len(replay))
        metrics["trace.overhead_frac"] = (
            sum(r.norm_ns for r in timed_replay) / sum(r.norm_ns for r in records), "ratio")
        metrics["calibrate.slowdown"] = (
            statistics.median(r.ns / r.norm_ns for r in replay), "ratio")
    else:
        metrics = end_to_end_metrics(records, check_records, setup_s)
        beyond = sum(1 for r in records if r.norm_ns / 1e6 > metrics["trial_ms_p90"][0])
        print(f"trial_ms: {len(records)} samples, {beyond} beyond p90")
        raw_per_s, raw_p50, raw_p90 = _timings([r.ns for r in records])
        print(f"wall clock, before calibration: trials_per_s = {raw_per_s!r}, trial_ms_p50 = {raw_p50!r}, "
              f"trial_ms_p90 = {raw_p90!r}, setup_s = {setup_raw_s!r}, median slowdown = "
              f"{statistics.median(r.ns / r.norm_ns for r in records)!r}")

    for r in check_records + records:
        for problem in r.problems[:3]:
            print(f"trial {r.index}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": len(failed_idx),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    header = {"env": env, "workload": workload_name, "seed": seed, "seconds": seconds,
              "check_digest": check_digest, "result": result}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        trials = [[r.index, r.ns, r.norm_ns, r.problems] for r in records]
        json.dump({**header, "trials [index, ns, ns at nominal speed, problems]": trials}, fh)
    if trace:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl", header)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(checks.result_line(result, declared_metrics(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

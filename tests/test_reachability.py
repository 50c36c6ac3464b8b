"""Every function in src/fdrelay runs in a trial or a CLI command, or a test
calls it directly and it is allow-listed here with its reason; and its body
reads every parameter it takes.

The probe records each fdrelay function entered (``sys.setprofile`` call
events) while it runs the benchmark's workload trials and each CLI command,
then compares that set with every ``def`` in the package's source. Functions
are keyed by file and first line, the first decorator's line for a decorated
one, which is what ``co_firstlineno`` holds.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import sys
from pathlib import Path

import pytest

import fdrelay
from fdrelay import harness
from fdrelay.cli import main
from fdrelay.config import build_scenario
from trialbench.workloads import WORKLOADS

SRC = Path(os.path.realpath(fdrelay.__file__)).parent

# Functions that no trial or CLI command runs, as module.qualname. A function
# listed here that the runs do reach fails the probe too, so the list cannot
# go stale.
ALLOWED = {
    # acceptance criterion 10 repairs constant-ratio pairs with these;
    # ROADMAP item 10 plans to run _repair_pair in the AIS loop
    "beamforming.cm_repair",
    "beamforming._repair_pair",
    "beamforming._constant_ratio",
    # trialbench/spans.py counts interior elements after each solve with it,
    # and so does acceptance criterion 10
    "beamforming.interior_census",
}

# the CLI commands' scenario: two trials, the destination fixed
CLI_CFG = "dn_rule = fixed\ntrials = 2\nmaster_seed = 7\n"


def _functions():
    """(file, module.qualname, node) of every function in src/fdrelay."""

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, f"{path.stem}.{prefix}{child.name}", child
                yield from visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, path, f"{prefix}{child.name}.")
            else:
                yield from visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path, "")


def _defined() -> dict[tuple[str, int], str]:
    """module.qualname of every function in src/fdrelay, by (file, first line)."""
    names = {}
    for path, name, node in _functions():
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        names[(str(path), first)] = name
    return names


def _clear_caches() -> None:
    """Empty every functools cache in the package, so a cached function runs
    whatever the tests before the probe have called."""
    for info in pkgutil.iter_modules(fdrelay.__path__):
        module = importlib.import_module(f"fdrelay.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _run_everything(tmp_path: Path) -> None:
    for workload in WORKLOADS.values():
        scenario = build_scenario(dict(workload.overrides))
        for trial_index in (0, 1):
            harness.run_trial(scenario, trial_index)
    # the position command; the closed form puts the relay straight above
    # the source (rho = 0), so its search decides S2V cells at 90 deg
    above = tmp_path / "above.cfg"
    above.write_text("p_s_tot_dbm = -60\n")
    assert main(["position", "--config", str(above)]) == 0
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(CLI_CFG)
    assert main(["converge", "--config", str(cfg), "--trial-index", "1"]) == 0
    assert main(["trial", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--sweep", "array=2", "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set[str]:
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _run_everything(tmp_path_factory.mktemp("reach"))
    finally:
        sys.setprofile(previous)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    return {name for key, name in _defined().items() if key not in reached}


def test_every_function_runs_or_is_allow_listed(unreached):
    extra = sorted(unreached - ALLOWED)
    assert not extra, f"no trial or CLI command runs {extra}"


def test_allow_list_names_only_unreached_functions(unreached):
    stale = sorted(ALLOWED - unreached)
    assert not stale, f"allow-listed but reached or not defined: {stale}"


def test_every_parameter_is_read():
    unread = []
    for _, name, node in _functions():
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [f"{name}: {p}" for p in params if p not in read | {"self", "cls"}]
    assert not unread, f"parameters no body reads: {unread}"

"""The trial benchmark's spans replace fdrelay functions by module attribute,
and its check trials hash to the digests it stores.

A binding that no longer exists, or a call that no longer goes through the
module attribute, would silently drop a layer from the benchmark's figures.
A moved output bit would make every benchmark run report ``correct: false``.
"""

from collections import Counter

import pytest

from fdrelay import config, harness
from trialbench import checks
from trialbench.spans import _NAME, SPAN_BINDINGS, Tracer
from trialbench.workloads import WORKLOADS


def test_every_span_binding_exists():
    for owner, attr, name in SPAN_BINDINGS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_traced_trial_calls_every_binding_and_four_solves_per_pass():
    tracer = Tracer()
    with tracer.installed():
        scenario = config.build_scenario({"dn_rule": "fixed", "master_seed": 7})
        result = harness.run_trial(scenario, 0)
    calls = Counter(rec[_NAME] for rec in tracer.spans)
    assert {name for _, _, name in SPAN_BINDINGS} <= set(calls)
    passes = result.iters["proposed"] + result.iters["randpos_ais"]
    assert passes > 0
    assert calls["beamforming.ais_iterate"] == passes
    assert calls["solver.solve_bf_subproblem"] == 4 * passes
    # one start per position; the steered baseline is the proposed loop's start
    assert calls["beamforming.initial_state"] == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_trials_reproduce_the_stored_digest(name, pin_note):
    workload = WORKLOADS[name]
    seed = workload.check_master_seed
    scenario = config.build_scenario({**workload.overrides, "master_seed": seed})
    items = [checks.canonical(harness.run_trial(scenario, i), seed) for i in workload.check_trials]
    assert checks.digest(items) == workload.check_digest, pin_note

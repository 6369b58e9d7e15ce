"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest

import compare
import spans
import verify
import workloads
from geored import calc, cli
from geored._dual_py import Dual as PyDual

GATES = {"max_dev": 1e-6, "drift": 1e-8}


def test_clean_report_passes():
    assert verify.gate_problems(cli.PASS, {"max_dev": 1e-9, "drift": 0.0}, GATES) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gated_metric_fails(bad):
    problems = verify.gate_problems(cli.PASS, {"max_dev": bad, "drift": 0.0}, GATES)
    assert len(problems) == 1 and "max_dev" in problems[0]


def test_missing_gated_metric_fails():
    problems = verify.gate_problems(cli.PASS, {"drift": 0.0}, GATES)
    assert problems == ["gated metric max_dev missing"]


def test_over_limit_and_status_fail():
    assert verify.gate_problems(cli.PASS, {"max_dev": 1e-3, "drift": 0.0}, GATES)
    assert verify.gate_problems(cli.FAIL, {"max_dev": 0.0, "drift": 0.0}, GATES)


def test_ungated_metrics_are_not_judged():
    metrics = {"max_dev": 0.0, "drift": 0.0, "det_published_form": math.nan}
    assert verify.gate_problems(cli.PASS, metrics, GATES) == []


def test_raising_verification_is_a_failure(tmp_path):
    outcome = verify.execute(workloads.Verification("no-such-scenario", 0), str(tmp_path))
    assert outcome.problems and outcome.problems[0].startswith("raised UnknownScenario")
    assert "error" in outcome.body


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert workloads.verifications(workload, 7) == workloads.verifications(workload, 7)
    assert workloads.verifications(workload, 7) != workloads.verifications(workload, 8)


def test_workloads_cover_every_scenario_once():
    owners = Counter()
    for workload in workloads.WORKLOADS:
        names = {v.scenario for v in workloads.verifications(workload, 0) if not v.library}
        owners.update(names)
    assert set(owners) == set(cli.REGISTRY)
    assert set(owners.values()) == {1}


def test_reduction_flow_cycles_tolerances():
    items = workloads.verifications("reduction-flow", 3)
    assert Counter(v.rk45_tol for v in items) == {
        tol: len(workloads.REDUCTION_FLOW) for tol in workloads.RK45_TOLS
    }


def _span(sid, parent, start, end, name="f"):
    return spans.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_nested_children():
    recorded = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 5.0, 9.0, "b"),
        _span(3, 2, 6.0, 7.0, "a"),
    ]
    assert spans.self_times(recorded) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert spans.aggregate(recorded) == {
        "root": {"calls": 1, "self_s": 3.0},
        "a": {"calls": 2, "self_s": 4.0},
        "b": {"calls": 1, "self_s": 3.0},
    }


def test_self_time_counts_overlapping_children_once():
    recorded = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 6.0)]
    assert spans.self_times(recorded)[0] == 5.0


def test_tracer_wraps_every_binding_and_restores():
    from geored import reduce

    original = calc.gradient
    tracer = spans.Tracer(
        {
            "calc.gradient": ("geored.calc", "gradient"),
            "calc.missing": ("geored.calc", "no_such_function"),
            "flow.rk45_step": ("geored.flow", "Dopri45Stepper.step"),
        }
    )
    tracer.install()
    try:
        assert reduce.gradient is calc.gradient is not original
        field = calc.ScalarField(2, lambda x: x[0] * x[1])
        reduce.gradient(field, [1.0, 2.0])
        from geored.flow import IntegratorConfig, VectorFieldSystem, integrate

        harmonic = VectorFieldSystem(2, lambda s: [s[1], -s[0]], ("x", "v"))
        integrate(harmonic, [1.0, 0.0], 0.0, 1.0, IntegratorConfig())
    finally:
        tracer.remove()
    assert reduce.gradient is calc.gradient is original
    assert tracer.absent == ["calc.missing"]
    recorded, counters = tracer.take()
    names = Counter(s.name for s in recorded)
    assert names["calc.gradient"] == 1
    assert names["flow.rk45_step"] == counters["flow.rk45.accepted"] > 0
    assert counters["flow.rk45.attempts"] >= counters["flow.rk45.accepted"]


def test_counting_duals_counts_each_operation():
    counts = Counter()
    with spans.counting_duals(counts):
        u = PyDual(1.0, 1.0)
        (u * u + 1.0) / u
    assert counts["dualnum.ops"] == 4


def _record(path, backend, wall):
    info = {"workload": "dirac-shell", "trace": 0, "backend": backend}
    result = {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    path.write_text(json.dumps({"info": info, "result": result}))
    return str(path)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    a = _record(tmp_path / "a.json", "python", 1.0)
    b = _record(tmp_path / "b.json", "compiled", 0.5)
    c = _record(tmp_path / "c.json", "python", 1.1)
    assert compare.main(["--base", a, "--new", b]) == 2
    assert compare.main(["--base", a, "--new", c]) == 0
    assert "+10.0%" in capsys.readouterr().out

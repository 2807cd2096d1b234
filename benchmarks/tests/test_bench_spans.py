"""Span bookkeeping of the traced run, and the metric list in BENCHMARK.json.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import aircomp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# (name, start, end, parent): a root with a nested child and a second child
NESTED = [
    ("bench.op", 0.0, 10.0, None),
    ("evaluation.run_trial", 1.0, 4.0, 0),
    ("rng.make_rng", 2.0, 3.0, 1),
    ("estimator.beta_heuristic", 5.0, 9.0, 0),
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(NESTED) == [3.0, 2.0, 1.0, 4.0]


def test_layer_sums_and_root_equal_summed_self_times():
    summary, errors = spans.summarize(NESTED, {})
    assert errors == []
    assert summary["bench.self_s"] == 3.0
    assert summary["evaluation.self_s"] == 2.0
    assert summary["evaluation.run_trial.time_s"] == 3.0
    assert summary["evaluation.run_trial.calls"] == 1
    assert summary["rng.make_rng.calls"] == 1
    assert sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_span_escaping_its_parent_is_reported():
    broken = NESTED[:2] + [("rng.make_rng", 2.0, 5.0, 1)]
    _, errors = spans.summarize(broken, {})
    assert any("escapes its parent" in e for e in errors)


def test_wrappers_are_transparent_and_removed():
    cfg = aircomp.ExperimentConfig(noise_var=1e-12, seed=4)
    original = aircomp.run_trial
    plain = aircomp.run_trial(cfg, "heuristic", 11)
    tracer = spans.Tracer()
    with tracer.installed():
        aircomp.run_trial(cfg, "heuristic", 12)  # outside an op: not recorded
        with tracer.op(0):
            traced = aircomp.run_trial(cfg, "heuristic", 11)
    assert traced == plain
    assert aircomp.run_trial is original
    assert aircomp.evaluation.make_rng is aircomp.rng.make_rng
    assert tracer.errors == [] and tracer.ops == 1
    assert tracer.totals["evaluation.run_trial.calls"] == 1
    assert tracer.totals["estimator.beta_heuristic.calls"] == 1
    assert tracer.totals["protocol.sampling_phase.calls"] == 1
    assert tracer.totals["rng.make_rng.calls"] == 4
    inner = sum(tracer.totals[f"{layer}.self_s"] for layer in spans.LAYERS if layer != "bench")
    assert inner == pytest.approx(tracer.totals["evaluation.run_trial.time_s"], rel=1e-9)


def test_grid_oracle_objective_calls_are_counted():
    cfg = aircomp.ExperimentConfig(noise_var=1e-12, trials=200, seed=4)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op(0):
        result = aircomp.grid_oracle(cfg, resolution=16)
    assert tracer.totals[spans.OBJECTIVE_CALLS] == result.grid.size
    assert tracer.totals["estimator.beta_grid_oracle.calls"] == 1


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)

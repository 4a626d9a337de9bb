"""Tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q`` (the tier-1 suite
collects only ``tests/``).
"""

from __future__ import annotations

import json

import pytest

import compare
import run
from spans import Tracer, self_times

from repro.data import build_dataset
from repro.sim.kernel import EventLoop
from repro.workload import Workload


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 6.0, 8.0, 0],
    ]
    assert self_times(spans) == {"root": 4.0, "a": 3.0, "b": 3.0}


def test_tracer_links_nested_calls_and_partitions_wall_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    def outer():
        middle_traced()
        leaf()
        return "done"

    middle_traced = tracer.wrap(middle, "middle")
    assert tracer.wrap(outer, "outer")() == "done"
    # outer [0, 9] > middle [1, 6] > leaf [2, 3], leaf [4, 5]; leaf [7, 8]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert tracer.self_times() == {"outer": 3.0, "middle": 3.0, "leaf": 3.0}
    assert tracer.calls() == {"leaf": 3, "middle": 1, "outer": 1}


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    (name, start, end, parent), = tracer.spans
    assert name == "boom" and end >= start and parent == -1
    tracer.wrap(lambda: None, "after")()
    assert tracer.spans[1][3] == -1


# ----------------------------------------------------------------------
# Traced serves
# ----------------------------------------------------------------------
def _wrapped_attributes():
    owners = [(owner, attr) for owner, attr, _ in run.LAYER_CALLS]
    owners += [(EventLoop, "schedule"), (EventLoop, "run")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


@pytest.fixture(scope="module")
def bundles():
    return {name: build_dataset(name, seed=run.SHAPE_SEED)
            for name in {spec.dataset for spec in run.WORKLOADS.values()}}


def _truncated(spec: run.WorkloadSpec) -> Workload:
    full = spec.trace()
    return Workload(periods=full.periods[:4], name=full.name,
                    query_mix=full.query_mix)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_serve_matches_untraced_and_restores_attributes(name, bundles):
    spec = run.WORKLOADS[name]
    bundle, workload = bundles[spec.dataset], _truncated(spec)
    before = _wrapped_attributes()
    checks = run.Checks()
    checks.add("untraced", 3, *run.serve(spec, bundle, workload, seed=3))
    with Tracer() as tracer:
        run.install_layers(tracer)
        arrivals, result = run.serve(spec, bundle, workload, seed=3)
    checks.add("traced", 3, arrivals, result)
    assert checks.problems() == []
    assert checks.attempted == 2 * len(arrivals) > 0
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)
    metrics = run.layer_metrics(tracer, result, 1.0, 0.25, 1.0, 1.5, 1.0)
    assert metrics["trace.accounted_frac"] > 0.0
    assert metrics["sim.kernel.events"] > 0
    assert metrics["llm.generate.calls"] > 0


def test_attributes_restored_after_an_error():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            run.install_layers(tracer)
            assert vars(EventLoop)["run"] is not before[(EventLoop, "run")]
            raise RuntimeError("abort")
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_checks_flag_missing_records_and_digest_drift(bundles):
    spec = run.WORKLOADS["semantic_churn"]
    arrivals, result = run.serve(spec, bundles[spec.dataset],
                                 _truncated(spec), seed=0)
    checks = run.Checks()
    checks.add("first", 0, arrivals, result)
    result.records.pop()
    checks.add("second", 0, arrivals, result)
    problems = checks.problems()
    assert checks.failed == 1
    assert any("another record digest" in p for p in problems)
    assert any("1 of" in p and "exactly one record" in p for p in problems)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base, change, better, bound, expected", [
    ([1.0] * 5, [1.0] * 5, "lower", 0.1, "same"),
    ([1.0] * 5, [1.05] * 5, "lower", 0.1, "same"),
    ([1.0] * 5, [1.2] * 5, "lower", 0.1, "worse"),
    ([1.0] * 5, [0.8] * 5, "lower", 0.1, "better"),
    ([0.5] * 5, [0.4] * 5, "higher", 0.1, "worse"),
    ([0.5] * 5, [0.6] * 5, "higher", 0.1, "better"),
    # Quartile spread wider than the bound and the sides overlap.
    ([0.7, 0.9, 1.0, 1.2, 1.5], [0.8, 1.0, 1.1, 1.3, 1.6], "lower", 0.1,
     "unresolved"),
    # Just as wide, but every run of one side beats every run of the other.
    ([1.0, 1.3, 1.6, 1.9, 2.2], [3.0, 3.4, 3.8, 4.2, 4.6], "lower", 0.1,
     "worse"),
    # A zero baseline median: the bound is an absolute difference.
    ([0.0] * 5, [0.02] * 5, "lower", 0.01, "worse"),
    ([0.0] * 5, [0.005] * 5, "lower", 0.01, "same"),
])
def test_compare_verdicts(base, change, better, bound, expected):
    assert compare.verdict(base, change, better, bound)[0] == expected


def _write_results(directory, scale: float, n: int = 5) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for seed in range(n):
        metrics = {m["name"]: {"value": scale * (1.0 + 0.001 * seed),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        payload = dict(workload="metis_bursty", seed=seed, correct=True,
                       metrics=metrics)
        path = directory / str(seed) / "metis_bursty.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(payload))
        (path.parent / "metis_bursty.trace.json").write_text("{}")


def test_compare_exit_codes(tmp_path, capsys):
    base, same, worse, few = (tmp_path / d for d in ("a", "b", "c", "d"))
    _write_results(base, 1.0)
    _write_results(same, 1.0)
    _write_results(worse, 2.0)
    _write_results(few, 1.0, n=2)
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(worse)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(base), str(few)]) == 2

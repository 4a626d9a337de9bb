"""Pinned record digests and work counts of the end-to-end benchmark's
workloads.

Each workload in ``benchmarks/e2e/run.py`` serves its seed-0 arrival
sets and hashes every record (``records_sha256``). The digests below
are what ``python benchmarks/e2e/run.py --workload W --seconds 0
--trace 0`` prints. A change meant to leave behaviour alone must leave
all three unchanged; a change that moves one must say why and update
it here.

The run also traces one serve per workload and reads its deterministic
work counts (kernel events, engine steps, calls into each layer). Those
do not vary with machine load, so a memo that stops hitting or an extra
per-event scan shows as an exact number where wall time is noise. The
gate is one-sided: a count above its pin fails and names the counter;
a count below its pin passes and is printed, and the change that
lowers it updates the pin.

The benchmark module is imported as it is, not copied: the test calls
its ``measure`` on its ``WORKLOADS`` with timing off and per-layer
tracing on. The three workloads take about a minute together, hence
``tier2``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: Seed-0 ``records_sha256`` of each workload.
DIGESTS = {
    "metis_bursty": "c325e7da2201d2447eab30d76715294455197f433ef31f8d48f5d534e7ff1222",
    "composed_zipf": "8d281fcdb7af11ea698f29609dc4c0d7b982dc9bbd1e849eda2b1afc71cbc380",
    "semantic_churn": "7d0941261f2e841b5a057ad44d5c3ce0a00b291dbc54515277944e68496c880a",
}

#: Seed-0 work counts of each workload's traced serve (upper bounds).
WORK_COUNTS = {
    "metis_bursty": {
        "sim.kernel.events": 62_380,
        "serving.engine.steps": 53_410,
        "core.decide.calls": 2_990,
        "retrieval.embed.calls": 2_990,
        "retrieval.search.calls": 2_990,
        "llm.generate.calls": 2_990,
        "evaluation.metrics.calls": 0,
        "caching.evictions": 0,
        "workload.autoscaler.scaling_events": 0,
    },
    "composed_zipf": {
        "sim.kernel.events": 51_849,
        "serving.engine.steps": 41_724,
        "core.decide.calls": 1_805,
        "retrieval.embed.calls": 602,
        "retrieval.search.calls": 2_408,
        "llm.generate.calls": 660,
        "evaluation.metrics.calls": 1_805,
        "caching.evictions": 752,
        "workload.autoscaler.scaling_events": 6,
    },
    "semantic_churn": {
        "sim.kernel.events": 42_623,
        "serving.engine.steps": 27_081,
        "core.decide.calls": 0,
        "retrieval.embed.calls": 3_543,
        "retrieval.search.calls": 6_952,
        "llm.generate.calls": 952,
        "evaluation.metrics.calls": 0,
        "caching.evictions": 2_274,
        "workload.autoscaler.scaling_events": 0,
    },
}


@pytest.fixture(scope="module")
def e2e_run():
    """``benchmarks/e2e/run.py`` as a module (it imports its sibling
    ``spans`` by name, so that directory is on the path while it
    loads)."""
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location("e2e_run",
                                                      E2E / "run.py")
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: its dataclasses look it up there.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
    return module


@pytest.fixture(scope="module")
def seed0(e2e_run):
    """``measure`` of one workload at seed 0, run once per workload."""
    results = {}

    def result(workload: str) -> dict:
        if workload not in results:
            results[workload] = e2e_run.measure(
                e2e_run.WORKLOADS[workload], seed=0, seconds=0.0, e2e=False,
                layers=True)
        return results[workload]
    return result


@pytest.mark.tier2
@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed0_records_digest(e2e_run, seed0, workload):
    assert set(e2e_run.WORKLOADS) == set(DIGESTS)
    result = seed0(workload)
    assert result["problems"] == []
    assert result["records_sha256"] == DIGESTS[workload]


@pytest.mark.tier2
@pytest.mark.parametrize("workload", sorted(WORK_COUNTS))
def test_seed0_work_counts(e2e_run, seed0, workload):
    assert set(e2e_run.WORKLOADS) == set(WORK_COUNTS)
    metrics = seed0(workload)["metrics"]
    above = [f"{name} = {metrics[name]:,} > pin {pin:,}"
             for name, pin in WORK_COUNTS[workload].items()
             if metrics[name] > pin]
    assert not above, f"{workload}: " + "; ".join(above)
    for name, pin in WORK_COUNTS[workload].items():
        if metrics[name] < pin:
            print(f"{workload}: {name} = {metrics[name]:,} is below its "
                  f"pin {pin:,}; lower the pin")

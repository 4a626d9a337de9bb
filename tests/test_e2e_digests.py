"""Pinned record digests of the end-to-end benchmark's workloads.

Each workload in ``benchmarks/e2e/run.py`` serves its seed-0 arrival
sets and hashes every record (``records_sha256``). The digests below
are what ``python benchmarks/e2e/run.py --workload W --seconds 0
--trace 0`` prints. A change meant to leave behaviour alone must leave
all three unchanged; a change that moves one must say why and update
it here.

The benchmark module is imported as it is, not copied: the test calls
its ``measure`` on its ``WORKLOADS`` with timing and tracing off. The
three workloads take about half a minute together, hence ``tier2``.
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


@pytest.mark.tier2
@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed0_records_digest(e2e_run, workload):
    assert set(e2e_run.WORKLOADS) == set(DIGESTS)
    result = e2e_run.measure(e2e_run.WORKLOADS[workload], seed=0,
                             seconds=0.0, e2e=False, layers=False)
    assert result["problems"] == []
    assert result["records_sha256"] == DIGESTS[workload]

"""Benchmark harness helpers.

The ``bench_*`` modules here run under plain pytest (``numpy + pytest``,
as ``requirements-dev.txt`` lists). The micro-benches write JSON
artifacts that ``check_regression.py`` gates against
``benchmarks/baselines/``. The two figure benches (``bench_fig11_*``,
``bench_fig18_*``) run their experiment driver once, print its table
and wall time, and write the sweep artifacts the docs cite; every
other paper figure is regenerated with ``python -m repro experiment
NAME``. Set ``REPRO_BENCH_FAST=1`` to shrink workloads (smoke mode) —
the tables keep their shape but lose statistical weight.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest


FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def write_artifact(name: str, payload: dict) -> Path:
    """Write one benchmark's JSON artifact (diffable across runs)."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


@pytest.fixture(scope="session")
def bench_fast() -> bool:
    return FAST


def run_experiment(run, fast: bool):
    """Run one experiment entry point once, print its table and wall
    time, and return the report."""
    start = time.perf_counter()
    report = run(fast=fast)
    elapsed = time.perf_counter() - start
    print()
    print(report.format())
    print(f"wall: {elapsed:.2f} s")
    assert report.rows, f"{report.name} produced no rows"
    return report

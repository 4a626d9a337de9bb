"""Parallel sweep runner: fan deterministic (seed, config) cells
across worker processes.

Every simulation in this repo is a pure function of its parameters —
all randomness flows from named :mod:`repro.util.rng` streams, and the
kernel dispatches events in a deterministic ``(time, rank, seq)``
order — so a sweep over seeds/rates/configs is embarrassingly
parallel: each *cell* (one ``run_policy`` invocation) can run in its
own process and produce byte-identical results to a sequential run.

Three pieces:

* :func:`run_cell` — execute one cell (a plain parameter dict, fully
  picklable) and return its scalar summary. Cells sharing a
  ``(dataset, seed, queries)`` key reuse one per-process
  :class:`DatasetBundle` instead of rebuilding it every cell.
* :func:`sweep` — run many cells, either in-process (``jobs <= 1``)
  or on a :class:`~concurrent.futures.ProcessPoolExecutor`. The
  merged payload contains **only** cell parameters and results (no
  timing, no worker metadata), so sequential and parallel sweeps of
  the same cells are canonical-JSON **equal** — pinned by
  ``tests/test_sweep.py``.
* :func:`canonical_json` — the stable serialization used for that
  equality (sorted keys, no whitespace, default float ``repr``).

Expected scaling: cells are independent full simulations, so wall
clock improves roughly linearly with ``jobs`` up to the physical core
count (a 4-cell sweep at ``--jobs 4`` finishes > 2× faster than
sequential on a 4-core machine). On a single-core host the executor
still works — processes just time-slice — which is why the test suite
pins *result equality*, not speedup.

CLI::

    python -m repro.cli --sweep --dataset finsec --policy metis \\
        --seeds 0,1,2,3 --rates 1.4 --jobs 4
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from typing import Any

__all__ = ["CELL_DEFAULTS", "expand_cells", "run_cell", "sweep",
           "canonical_json"]

#: Per-process DatasetBundle cache, keyed ``(dataset, seed, queries)``.
#: Building a bundle (corpus synthesis + index build, ~0.7 s for
#: finsec at the end-to-end benchmark's reference CPU speed) dominates
#: small cells, and ``build_dataset`` is a pure function of the key,
#: so workers build each distinct bundle once and reuse it across
#: cells. Reuse is safe: the experiment runner never mutates a bundle
#: (resharding returns a *new* store) and builds a fresh engine and
#: pipeline per run, so cached-bundle results are byte-identical to a
#: rebuild — the ``test_sweep.py`` canonical-JSON equality still pins
#: sequential == parallel.
_BUNDLE_CACHE: dict[tuple[str, int, int | None], Any] = {}


def _get_bundle(dataset: str, seed: int, queries: int | None):
    key = (dataset, seed, queries)
    bundle = _BUNDLE_CACHE.get(key)
    if bundle is None:
        from repro.data import build_dataset

        bundle = build_dataset(dataset, seed=seed, n_queries=queries)
        _BUNDLE_CACHE[key] = bundle
    return bundle


def _warm_worker(keys: tuple[tuple[str, int, int | None], ...]) -> None:
    """Executor initializer: pre-build shared bundles once per worker.

    Only invoked with the sweep's bundle keys when every cell shares
    them (the common fixed-dataset rate/config sweep); heterogeneous
    sweeps (e.g. over seeds) let each worker populate its cache lazily
    from the cells it actually receives.
    """
    for dataset, seed, queries in keys:
        _get_bundle(dataset, seed, queries)


#: Recognized cell parameters and their defaults (mirrors the ``run``
#: CLI surface). A cell dict may set any subset; unknown keys are an
#: error so typos fail fast instead of silently sweeping nothing.
CELL_DEFAULTS: dict[str, Any] = {
    "dataset": "finsec",
    "policy": "metis",
    "config": None,          # fixed-config label for vllm/parrot
    "seed": 0,
    "rate": None,            # open-loop arrival rate (qps)
    "queries": None,         # dataset size cap (None = bundle default)
    "sequential": False,
    "replicas": 1,
    "router": "least-kv-load",
    "retrieval_shards": 1,
    "index": "flat",
    "reranker": None,
    "slo_seconds": None,
    "speculation": None,
    "hedge_delay": None,
    "workload": None,
    "autoscaler": None,
    "scale_min": None,
    "scale_max": None,
}


def expand_cells(base: dict[str, Any] | None = None,
                 seeds: list[int] | None = None,
                 rates: list[float] | None = None) -> list[dict[str, Any]]:
    """Cross ``base`` with seed × rate axes into a cell list.

    ``seeds``/``rates`` of ``None`` (or empty) keep the base value for
    that axis. Cell order is the deterministic grid order (seeds outer,
    rates inner) — the merge preserves it, so two sweeps over the same
    grid are comparable element-wise.
    """
    base = dict(base or {})
    cells: list[dict[str, Any]] = []
    for seed in (seeds if seeds else [base.get("seed", 0)]):
        for rate in (rates if rates else [base.get("rate")]):
            cell = dict(base)
            cell["seed"] = seed
            cell["rate"] = rate
            cells.append(cell)
    return cells


def _validated(cell: dict[str, Any]) -> dict[str, Any]:
    unknown = sorted(set(cell) - set(CELL_DEFAULTS))
    if unknown:
        known = ", ".join(sorted(CELL_DEFAULTS))
        raise ValueError(
            f"unknown sweep cell parameter(s) {unknown}; known: {known}"
        )
    return {**CELL_DEFAULTS, **cell}


def run_cell(cell: dict[str, Any]) -> dict[str, Any]:
    """Execute one sweep cell; returns ``{"params", "summary"}``.

    Top-level (picklable) so :class:`ProcessPoolExecutor` can ship it
    to workers. Imports are local: workers pay them once, and the
    module stays importable without pulling the full pipeline.
    """
    from repro.cli import build_policy
    from repro.experiments.common import run_policy

    p = _validated(cell)
    bundle = _get_bundle(p["dataset"], p["seed"], p["queries"])
    policy = build_policy(p["policy"], bundle, p["config"], p["seed"])
    result = run_policy(
        bundle, policy,
        rate_qps=p["rate"], seed=p["seed"],
        sequential=p["sequential"],
        n_replicas=p["replicas"], router=p["router"],
        retrieval_shards=p["retrieval_shards"],
        index=p["index"], reranker=p["reranker"],
        slo_seconds=p["slo_seconds"],
        speculation=p["speculation"], hedge_delay=p["hedge_delay"],
        workload=p["workload"], autoscaler=p["autoscaler"],
        scale_min=p["scale_min"], scale_max=p["scale_max"],
    )
    return {"params": p, "summary": dict(result.summary())}


def sweep(cells: list[dict[str, Any]], jobs: int = 1) -> dict[str, Any]:
    """Run every cell and merge results in input order.

    ``jobs <= 1`` runs sequentially in-process; otherwise cells fan
    out over a :class:`ProcessPoolExecutor` with ``min(jobs,
    len(cells))`` workers. ``executor.map`` preserves input order, and
    the payload carries no timing or worker information, so the merged
    result is identical for any ``jobs`` — compare with
    :func:`canonical_json`.
    """
    validated = [_validated(c) for c in cells]
    if jobs <= 1 or len(validated) <= 1:
        results = [run_cell(c) for c in validated]
    else:
        keys = tuple(dict.fromkeys(
            (c["dataset"], c["seed"], c["queries"]) for c in validated
        ))
        # Pre-build the bundle in each worker only when the whole sweep
        # shares one; otherwise workers fill their caches lazily.
        warm = keys if len(keys) == 1 else ()
        with ProcessPoolExecutor(max_workers=min(jobs, len(validated)),
                                 initializer=_warm_worker,
                                 initargs=(warm,)) as ex:
            results = list(ex.map(run_cell, validated))
    return {"n_cells": len(results), "cells": results}


def canonical_json(payload: Any) -> str:
    """Stable JSON: sorted keys, compact separators, default floats.

    Two payloads built from bit-identical values serialize to the same
    bytes regardless of dict insertion order or which process produced
    them (``repr`` of a double is deterministic in CPython).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))

"""Parallel sweep runner: fan deterministic (seed, config) cells
across worker processes.

Every simulation in this repo is a pure function of its parameters —
all randomness flows from named :mod:`repro.util.rng` streams, and the
kernel dispatches events in a deterministic ``(time, rank, seq)``
order — so a sweep over seeds/rates/configs is embarrassingly
parallel: each *cell* (one ``run`` invocation) can run in its own
process and produce byte-identical results to a sequential run.

A cell is a plain, picklable dict: the run target (``dataset``,
``policy``, ``config``, ``seed``, ``queries``) plus any
:func:`~repro.experiments.common.run_policy` /
:class:`~repro.evaluation.runner.ExperimentRunner` keywords under
their own names (``rate_qps``, ``n_replicas``, ``result_cache``, …).
The runner declares, defaults and validates every knob; a cell only
names the ones it sets.

Three pieces:

* :func:`run_cell` — execute one cell through
  :func:`repro.cli.run_target`, the path ``python -m repro run`` takes,
  and return its scalar summary.
* :func:`sweep` — run many cells, either in-process (``jobs == 1``)
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

CLI (every ``run`` flag is forwarded to each cell)::

    python -m repro sweep --dataset finsec --policy metis \\
        --seeds 0,1,2,3 --rates 1.4 --result-cache exact --jobs 4
"""

from __future__ import annotations

import inspect
import json
from concurrent.futures import ProcessPoolExecutor
from typing import Any

__all__ = ["expand_cells", "run_cell", "sweep", "canonical_json"]

#: The run target keys a cell must set (``run_target``'s required
#: arguments).
_REQUIRED = ("dataset", "policy")


def _known_keys() -> set[str]:
    """Cell keys: ``run_target``'s target plus every runner keyword."""
    from repro.cli import run_target
    from repro.evaluation.runner import ExperimentRunner
    from repro.experiments.common import run_policy

    names: set[str] = set()
    for fn in (run_target, run_policy, ExperimentRunner.__init__):
        names |= set(inspect.signature(fn).parameters)
    return names - {"self", "bundle", "knobs", "runner_kwargs"}


def _check_cells(cells: list[dict[str, Any]]) -> None:
    """Reject unknown or missing keys before any cell runs, so a typo
    fails the sweep up front instead of silently sweeping nothing."""
    known = _known_keys()
    for cell in cells:
        unknown = sorted(set(cell) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep cell parameter(s) {unknown}; known: "
                f"{', '.join(sorted(known))}"
            )
        missing = [k for k in _REQUIRED if k not in cell]
        if missing:
            raise ValueError(f"sweep cell {cell!r} is missing {missing}")


def _warm_worker(keys: tuple[tuple[str, int, int | None], ...]) -> None:
    """Executor initializer: pre-build shared bundles once per worker.

    Only invoked with the sweep's bundle key when every cell shares it
    (the common fixed-dataset rate/config sweep); ``build_dataset``
    memoizes per process on the same key, so each cell then reuses the
    bundle. Heterogeneous sweeps (e.g. over seeds) let each worker
    build lazily from the cells it actually receives.
    """
    from repro.data import build_dataset

    for dataset, seed, queries in keys:
        build_dataset(dataset, seed=seed, n_queries=queries)


def expand_cells(base: dict[str, Any] | None = None,
                 seeds: list[int] | None = None,
                 rates: list[float] | None = None) -> list[dict[str, Any]]:
    """Cross ``base`` with seed × rate axes into a cell list.

    ``seeds``/``rates`` of ``None`` (or empty) leave that axis as
    ``base`` has it; a given axis sets ``seed`` / ``rate_qps``. Cell
    order is the deterministic grid order (seeds outer, rates inner) —
    the merge preserves it, so two sweeps over the same grid are
    comparable element-wise.
    """
    base = dict(base or {})
    seed_axis = [{"seed": s} for s in seeds] if seeds else [{}]
    rate_axis = [{"rate_qps": r} for r in rates] if rates else [{}]
    return [{**base, **s, **r} for s in seed_axis for r in rate_axis]


def run_cell(cell: dict[str, Any]) -> dict[str, Any]:
    """Execute one sweep cell; returns ``{"params", "summary"}``.

    ``params`` echoes the cell as given. Top-level (picklable) so
    :class:`ProcessPoolExecutor` can ship it to workers. Imports are
    local: workers pay them once, and the module stays importable
    without pulling the full pipeline.
    """
    from repro.cli import run_target

    _check_cells([cell])
    result = run_target(**cell)
    return {"params": dict(cell), "summary": dict(result.summary())}


def sweep(cells: list[dict[str, Any]], jobs: int = 1) -> dict[str, Any]:
    """Run every cell and merge results in input order.

    ``jobs == 1`` runs sequentially in-process; more fan cells out
    over a :class:`ProcessPoolExecutor` with ``min(jobs, len(cells))``
    workers. ``executor.map`` preserves input order, and the payload
    carries no timing or worker information, so the merged result is
    identical for any ``jobs`` — compare with :func:`canonical_json`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    _check_cells(cells)
    if jobs == 1 or len(cells) <= 1:
        results = [run_cell(c) for c in cells]
    else:
        keys = tuple(dict.fromkeys(
            (c["dataset"], c.get("seed", 0), c.get("queries"))
            for c in cells
        ))
        # Pre-build the bundle in each worker only when the whole sweep
        # shares one; otherwise workers build lazily.
        warm = keys if len(keys) == 1 else ()
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells)),
                                 initializer=_warm_worker,
                                 initargs=(warm,)) as ex:
            results = list(ex.map(run_cell, cells))
    return {"n_cells": len(results), "cells": results}


def canonical_json(payload: Any) -> str:
    """Stable JSON: sorted keys, compact separators, default floats.

    Two payloads built from bit-identical values serialize to the same
    bytes regardless of dict insertion order or which process produced
    them (``repr`` of a double is deterministic in CPython).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))

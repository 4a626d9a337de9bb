"""Experiment drivers: one module per paper table/figure.

Each driver exposes ``run(fast: bool = False, seed: int = 0) ->
ExperimentReport`` and is run by ``python -m repro experiment NAME``.
``fast=True`` shrinks query counts and sweep grids for CI-speed smoke
runs without changing the experiment's shape.
"""

from repro.experiments.common import (
    DEFAULT_RATES,
    ExperimentReport,
    default_engine_config,
    fixed_config_grid,
    make_adaptive_rag,
    make_metis,
    run_policy,
)

__all__ = [
    "DEFAULT_RATES",
    "ExperimentReport",
    "default_engine_config",
    "fixed_config_grid",
    "make_adaptive_rag",
    "make_metis",
    "run_policy",
]

"""Median-configuration strawman (§4.3, Fig 12 ablation).

Uses METIS' profiler and pruning, but then picks the median value of
each pruned range instead of consulting system resources. With FCFS
serving this is the Fig 12 "profiler + median" bar; with app-aware
serving it is the "median + batching" bar.
"""

from __future__ import annotations

from repro.core.controller import MetisConfig, MetisPolicy
from repro.core.profiler import GPT4O_PROFILER, ProfilerModelSpec

__all__ = ["MedianConfigPolicy"]


class MedianConfigPolicy(MetisPolicy):
    """METIS minus the joint scheduler: median of the pruned space."""

    def __init__(
        self,
        metadata_tokens: int,
        chunk_tokens: int,
        profiler_spec: ProfilerModelSpec = GPT4O_PROFILER,
        app_aware_batching: bool = False,
        seed: int = 0,
        name: str | None = None,
    ) -> None:
        config = MetisConfig(
            profiler_spec=profiler_spec,
            selection_mode="median",
        )
        if name is None:
            name = "median+batching" if app_aware_batching else "median"
        super().__init__(
            metadata_tokens=metadata_tokens,
            chunk_tokens=chunk_tokens,
            config=config,
            seed=seed,
            name=name,
        )
        self.engine_policy = "app-aware" if app_aware_batching else "fcfs"

"""Workload generators: how queries arrive at the serving system.

The paper's main experiments send 200 queries per dataset as a Poisson
process at 2 queries/second (§7.1); the low-load experiment (Fig 19)
sends them sequentially — each query only after the previous finished,
which the runner implements as a closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.types import Query
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = ["Arrival", "poisson_arrivals", "sequential_arrivals"]


@dataclass(frozen=True, slots=True)
class Arrival:
    """One query arrival; ``time`` is None for closed-loop workloads
    (the runner submits it when the previous query completes).
    Slotted: a trace materializes one per query."""

    query: Query
    time: float | None


def poisson_arrivals(
    queries: list[Query], rate_qps: float, seed: int = 0
) -> list[Arrival]:
    """Open-loop Poisson arrivals at ``rate_qps`` queries/second."""
    check_positive("rate_qps", rate_qps)
    rng = RngStreams(seed).get("arrivals", "poisson")
    t = 0.0
    arrivals: list[Arrival] = []
    for query in queries:
        t += float(rng.exponential(1.0 / rate_qps))
        arrivals.append(Arrival(query=query, time=t))
    return arrivals


def sequential_arrivals(queries: list[Query]) -> list[Arrival]:
    """Closed-loop workload: each query follows the previous completion."""
    return [Arrival(query=query, time=None) for query in queries]

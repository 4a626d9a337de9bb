"""The serving-policy interface every system implements.

A policy is consulted twice per query by the experiment runner:

1. :meth:`RAGPolicy.prepare` at arrival — runs the (optional) profiler
   call and returns its latency/cost; the runner simulates that latency
   before proceeding.
2. :meth:`RAGPolicy.choose` when the profiler returns — sees a
   :class:`SchedulingView` of the engine at *that* moment (free KV
   memory, the query's token shape) and commits to a :class:`RAGConfig`.

METIS, the fixed-config baselines, Parrot*, and AdaptiveRAG* are all
implementations of this interface; they differ only in what they do in
these two hooks and in which engine scheduling policy they request.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.config.knobs import RAGConfig
from repro.config.space import PrunedSpace
from repro.core.profiles import QueryProfile
from repro.data.types import Query
from repro.synthesis import estimate_footprint
from repro.synthesis.footprint import PlanFootprint

__all__ = ["PrepResult", "SchedulingView", "ClusterSchedulingView",
           "Decision", "RAGPolicy"]


@dataclass(frozen=True)
class PrepResult:
    """Outcome of the arrival-time phase (profiler call, if any)."""

    profile: QueryProfile | None = None
    api_seconds: float = 0.0
    dollars: float = 0.0
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass(frozen=True)
class SchedulingView:
    """A policy's window onto the system at decision time.

    Attributes:
        available_kv_bytes: free KV memory net of queued demand — the
            signal METIS' joint scheduler consumes.
    """

    now: float
    free_kv_bytes: float
    available_kv_bytes: float
    kv_bytes_per_token: float
    chunk_tokens: int
    query_tokens: int
    answer_tokens: int

    def footprint(self, config: RAGConfig) -> PlanFootprint:
        """Closed-form footprint of the plan ``config`` would produce
        for this query shape (memoized; no plan object is built)."""
        return estimate_footprint(config, self.query_tokens,
                                  self.chunk_tokens, self.answer_tokens)


@dataclass(frozen=True)
class ClusterSchedulingView(SchedulingView):
    """A :class:`SchedulingView` onto one replica of a serving cluster.

    The scalar ``free_kv_bytes`` / ``available_kv_bytes`` fields are
    the *routed* replica's figures, so a memory-aware scheduler prunes
    per-replica by construction. The per-replica tuples expose the
    whole cluster for placement decisions (e.g. METIS' fallback rescue:
    when nothing fits on the routed replica, re-place the query where
    memory is plentiful instead of degrading its configuration).
    """

    replica_id: int = 0
    replica_free_kv_bytes: tuple[float, ...] = ()
    replica_available_kv_bytes: tuple[float, ...] = ()
    #: Event-time replica clocks at the decision instant. Replicas
    #: advance independently on the shared event loop, so these are
    #: *not* equal: busy replicas sit at (or ahead of) the frontier,
    #: idle ones lag at their last admission. Placement heuristics can
    #: read them alongside the memory tuples.
    replica_now: tuple[float, ...] = ()
    #: Per-replica hardware-throughput multipliers (heterogeneous
    #: fleets); empty or all-1.0 for homogeneous clusters.
    replica_speeds: tuple[float, ...] = ()
    #: Per-replica outstanding-request counts (waiting + running) at
    #: the decision instant — the queue-depth signal the deadline-risk
    #: speculation policy sizes its completion estimates with (sourced
    #: from :meth:`~repro.serving.cluster.ClusterEngine.replica_outstanding`
    #: rather than recomputed ad hoc).
    replica_outstanding: tuple[int, ...] = ()

    @property
    def n_replicas(self) -> int:
        return max(1, len(self.replica_available_kv_bytes))

    def for_replica(self, replica_id: int) -> "ClusterSchedulingView":
        """The same moment in time, viewed from another replica."""
        if not 0 <= replica_id < len(self.replica_available_kv_bytes):
            raise ValueError(
                f"replica_id {replica_id} out of range "
                f"[0, {len(self.replica_available_kv_bytes)})"
            )
        return dataclasses.replace(
            self,
            replica_id=replica_id,
            free_kv_bytes=self.replica_free_kv_bytes[replica_id],
            available_kv_bytes=self.replica_available_kv_bytes[replica_id],
        )

    def best_replica(self) -> int:
        """Replica with the most claimable KV memory (ties: lowest id)."""
        avail = self.replica_available_kv_bytes
        if not avail:
            return self.replica_id
        return max(range(len(avail)), key=lambda i: (avail[i], -i))


@dataclass(frozen=True)
class Decision:
    """A policy's committed configuration for one query."""

    config: RAGConfig
    pruned_space: PrunedSpace | None = None
    fell_back: bool = False
    used_recent_spaces: bool = False
    notes: dict = field(default_factory=dict)


class RAGPolicy(ABC):
    """Base class for all serving systems under evaluation."""

    #: Display name used in reports.
    name: str = "base"
    #: Engine scheduling policy this system runs with
    #: ("fcfs" = vLLM-style, "app-aware" = Parrot-style).
    engine_policy: str = "fcfs"

    def prepare(self, query: Query) -> PrepResult:
        """Arrival-time phase; default: no profiler, zero latency."""
        return PrepResult()

    @abstractmethod
    def choose(self, query: Query, prep: PrepResult,
               view: SchedulingView) -> Decision:
        """Commit to a configuration given the current system state."""

    def on_complete(self, query: Query, f1: float, delay: float) -> None:
        """Completion hook (feedback loops); default: no-op."""

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name

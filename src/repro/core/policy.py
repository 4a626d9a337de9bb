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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config.knobs import RAGConfig
from repro.config.space import PrunedSpace
from repro.core.profiles import QueryProfile
from repro.data.types import Query
from repro.synthesis import SynthesisPlan, uniform_plan

if TYPE_CHECKING:
    from repro.core.profiler import LLMProfiler

__all__ = ["PrepResult", "SchedulingView", "Decision", "RAGPolicy"]


@dataclass(frozen=True)
class PrepResult:
    """Outcome of the arrival-time phase (profiler call, if any)."""

    profile: QueryProfile | None = None
    api_seconds: float = 0.0
    dollars: float = 0.0


@dataclass(frozen=True)
class SchedulingView:
    """A policy's window onto one replica of the serving fleet at
    decision time.

    The scalar ``free_kv_bytes`` / ``available_kv_bytes`` fields are
    the *routed* replica's figures, so a memory-aware scheduler prunes
    per-replica by construction. The per-replica tuples expose the
    whole fleet for placement decisions (e.g. METIS' fallback rescue:
    when nothing fits on the routed replica, re-place the query where
    memory is plentiful instead of degrading its configuration); they
    default to empty, which reads as a single replica.

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
    replica_id: int = 0
    replica_free_kv_bytes: tuple[float, ...] = ()
    replica_available_kv_bytes: tuple[float, ...] = ()
    #: Per-replica hardware-throughput multipliers (heterogeneous
    #: fleets); empty or all-1.0 for homogeneous clusters.
    replica_speeds: tuple[float, ...] = ()
    #: Per-replica outstanding-request counts (waiting + running) at
    #: the decision instant — the queue-depth signal the deadline-risk
    #: speculation policy sizes its completion estimates with (sourced
    #: from :meth:`~repro.serving.cluster.ClusterEngine.replica_outstanding`
    #: rather than recomputed ad hoc).
    replica_outstanding: tuple[int, ...] = ()

    def footprint(self, config: RAGConfig) -> SynthesisPlan:
        """The plan ``config`` would produce for this query shape, over
        uniform nominal-size chunks."""
        return uniform_plan(config, self.query_tokens, self.chunk_tokens,
                            self.answer_tokens)

    @property
    def n_replicas(self) -> int:
        return max(1, len(self.replica_available_kv_bytes))

    def for_replica(self, replica_id: int) -> "SchedulingView":
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
    #: Replica a cluster-aware policy re-placed the query on (fallback
    #: rescue); ``None`` keeps the router's placement.
    preferred_replica: int | None = None


class RAGPolicy(ABC):
    """Base class for all serving systems under evaluation."""

    #: Display name used in reports.
    name: str = "base"
    #: Engine scheduling policy this system runs with
    #: ("fcfs" = vLLM-style, "app-aware" = Parrot-style).
    engine_policy: str = "fcfs"
    #: The profiler :meth:`prepare` calls, or ``None`` for policies
    #: that make no call. A profiling policy's profiles are what the
    #: pipeline's profile cache reuses for repeat queries.
    profiler: LLMProfiler | None = None

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

"""Workload runner: drives a policy + engine over a dataset workload.

The discrete-event mechanics live in :mod:`repro.sim` (kernel) and
:mod:`repro.evaluation.pipeline` (the staged query pipeline). Per
query::

    arrival -> ProfileStage -(profiler resource)-> DecideStage
            -> RetrieveStage -(retrieval resource)-> SynthesizeStage
            -> ServeStage -(engine iterations)-> quality scoring + record

Engine iterations and external events (arrivals, profiler/retrieval
completions) interleave exactly as in a real serving stack: decisions
made while the GPU is mid-iteration take effect at the next scheduling
boundary. With the default *unbounded* resources the schedule is
byte-identical to the pre-``repro.sim`` closure-based runner; finite
``profiler_concurrency`` / ``shard_concurrency`` add FIFO queueing
(API rate limits, search-executor pools) on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.caching import CacheStats, make_cache_config
from repro.core.policy import RAGPolicy
from repro.data.types import DatasetBundle
from repro.data.workload import Arrival
from repro.evaluation.costs import CostLedger
from repro.evaluation.metrics import METRIC_NAMES, MetricHarness, QualitySLO
from repro.evaluation.pipeline import QueryPipeline, QueryRecord
from repro.llm.generation import SimulatedGenerator
from repro.llm.quality import QualityModel, QualityParams
from repro.retrieval.rerank import ExactReranker, make_reranker
from repro.serving.cluster import ClusterEngine
from repro.serving.engine import EngineConfig, EngineStats
from repro.serving.speculation import SpeculationPolicy, make_speculation
from repro.sim import ResourceStats
from repro.util.validation import (
    check_count,
    check_positive,
    check_replica_speeds,
    check_shard_concurrency,
)
from repro.workload import (
    Autoscaler,
    ForecastPolicy,
    ScalingEvent,
    Workload,
    make_scaling_policy,
)

__all__ = ["RunResult", "ExperimentRunner"]


@dataclass
class RunResult:
    """One (policy, dataset, workload) run."""

    policy: str
    dataset: str
    records: list[QueryRecord]
    makespan: float
    engine_stats: EngineStats
    ledger: CostLedger
    #: Per-replica engine counters (one entry per replica).
    replica_stats: list[EngineStats] = field(default_factory=list)
    #: Per-replica speed multipliers (parallel to ``replica_stats``).
    replica_speeds: list[float] = field(default_factory=list)
    #: Replicas the fleet started with (an autoscaler may add more).
    n_replicas: int = 1
    #: Name of the cluster's router (``None`` for a static one-replica
    #: run, which routes nothing).
    router: str | None = None
    #: Contended-resource counters keyed by resource name
    #: (``profiler``, ``retrieval`` or ``retrieval/shardN``, and
    #: ``reranker`` when one is configured).
    resource_stats: dict[str, ResourceStats] = field(default_factory=dict)
    #: How many index shards served retrieval (1 = unsharded).
    n_retrieval_shards: int = 1
    #: Name of the configured reranker (``None`` when disabled).
    reranker: str | None = None
    #: Per-query SLO in seconds (``None`` = no deadline stamped).
    slo_seconds: float | None = None
    #: Name of the speculation policy (``None`` when disabled).
    speculation: str | None = None
    #: Name of the autoscaler policy (``None`` when the fleet is static).
    autoscaler: str | None = None
    #: Chronological fleet changes the autoscaler made (empty when
    #: static); see :class:`repro.workload.ScalingEvent`.
    scaling_events: list[ScalingEvent] = field(default_factory=list)
    #: GPU-seconds of provisioned capacity over the run (busy + idle,
    #: summed across replicas from provisioning to retirement).
    provisioned_gpu_seconds: float = 0.0
    #: Provisioned-but-idle GPU-seconds (the gap idle-capacity pricing
    #: bills; 0.0 when idle pricing is off).
    idle_gpu_seconds: float = 0.0
    #: Result-cache mode (``None`` when caching is off entirely).
    result_cache: str | None = None
    #: Whether the retrieval (top-k memo) tier was enabled.
    retrieval_cache: bool = False
    #: Per-tier cache counters keyed ``"profile"`` (profiling policies
    #: only) / ``"result"`` / ``"retrieval"`` (empty when caching is
    #: off); see ``docs/CACHING.md``.
    cache_stats: dict[str, CacheStats] = field(default_factory=dict)
    #: Whether the multi-metric quality harness scored this run's
    #: records (``docs/EVALUATION.md``); off by default.
    quality_metrics: bool = False
    #: Canonical ``metric>=threshold`` spec the run targeted (``None``
    #: when no quality SLO was set).
    quality_slo: str | None = None

    # ------------------------------------------------------------------
    # Latency / quality observables. A run can legitimately complete
    # zero queries (an autoscaled trace whose trough carries no
    # arrivals), so the aggregate statistics degrade to NaN — "no
    # observation" — rather than raising or masquerading as a perfect
    # 0.0 latency.
    # ------------------------------------------------------------------
    def _delays(self) -> np.ndarray:
        return np.asarray([r.e2e_delay for r in self.records])

    @property
    def mean_delay(self) -> float:
        if not self.records:
            return float("nan")
        return float(self._delays().mean())

    def delay_percentile(self, q: float) -> float:
        if not self.records:
            return float("nan")
        return float(np.percentile(self._delays(), q))

    @property
    def mean_f1(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.f1 for r in self.records]))

    @property
    def throughput_qps(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return len(self.records) / self.makespan

    @property
    def mean_profiler_fraction(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.profiler_fraction for r in self.records]))

    @property
    def mean_retrieval_seconds(self) -> float:
        """Mean scatter-gather stage duration (queue + hold + gather)."""
        if not self.records:
            return float("nan")
        return float(np.mean([r.retrieval_seconds for r in self.records]))

    @property
    def mean_gather_seconds(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.gather_seconds for r in self.records]))

    def retrieval_percentile(self, q: float) -> float:
        """Percentile of the per-query scatter-gather duration."""
        if not self.records:
            return float("nan")
        return float(np.percentile(
            [r.retrieval_seconds for r in self.records], q))

    # ------------------------------------------------------------------
    # Speculation / SLO observables (fig_speculation)
    # ------------------------------------------------------------------
    @property
    def hedge_rate(self) -> float:
        """Fraction of queries for which a duplicate was armed."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.hedged) / len(self.records)

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of *hedged* queries won by the duplicate lane."""
        hedged = [r for r in self.records if r.hedged]
        if not hedged:
            return 0.0
        return sum(1 for r in hedged if r.hedge_won) / len(hedged)

    @property
    def wasted_work_fraction(self) -> float:
        """Loser-lane tokens over all tokens the engines processed.

        The engine totals include the wasted tokens (they were really
        prefilled/decoded before cancellation), so this is the share
        of GPU work speculation threw away to cut the tail.
        """
        total = (self.engine_stats.prefill_tokens
                 + self.engine_stats.decode_tokens)
        if total <= 0:
            return 0.0
        wasted = sum(r.wasted_prefill_tokens + r.wasted_decode_tokens
                     for r in self.records)
        return wasted / total

    @property
    def slo_attainment(self) -> float:
        """Fraction of queries finishing by their deadline.

        0.0 when queries completed but no SLO was configured (check
        :attr:`slo_seconds`); NaN when the run completed no queries at
        all — there is nothing to attain or miss.
        """
        if not self.records:
            return float("nan")
        met = [r.slo_met for r in self.records if r.slo_met is not None]
        if not met:
            return 0.0
        return sum(met) / len(met)

    # ------------------------------------------------------------------
    # Cache observables (fig_cache); see docs/CACHING.md
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed queries served from the result or
        retrieval tier (a profile-tier hit serves no answer, so it does
        not count).

        0.0 when caching is off (every record is a miss by
        construction); NaN when the run completed no queries.
        """
        if not self.records:
            return float("nan")
        return sum(1 for r in self.records if r.cache_hit) \
            / len(self.records)

    @property
    def cache_saved_dollars(self) -> float:
        """Dollars the cache hits avoided spending, summed over the
        tiers: priced GPU time for result hits, profiler API dollars
        for profile hits (0.0 when caching is off)."""
        return sum(s.saved_dollars for s in self.cache_stats.values())

    # ------------------------------------------------------------------
    # Multi-metric quality observables (fig_quality); see
    # docs/EVALUATION.md. NaN-safe like every other aggregate: NaN
    # means "no scored observation" — an empty run, or a run that
    # never enabled the metric harness.
    # ------------------------------------------------------------------
    def metric_values(self, metric: str) -> list[float]:
        """Non-``None`` per-record values of one named metric."""
        if metric not in METRIC_NAMES:
            known = ", ".join(METRIC_NAMES)
            raise ValueError(f"unknown metric {metric!r}; known: {known}")
        values = [getattr(r, metric) for r in self.records]
        return [v for v in values if v is not None]

    def mean_metric(self, metric: str) -> float:
        """Mean of one named metric over scored records (NaN if none)."""
        values = self.metric_values(metric)
        if not values:
            return float("nan")
        return float(np.mean(values))

    @property
    def n_quality_scored(self) -> int:
        """How many records carry harness scores (0 with metrics off)."""
        return len(self.metric_values("faithfulness"))

    @property
    def mean_faithfulness(self) -> float:
        return self.mean_metric("faithfulness")

    @property
    def mean_answer_relevancy(self) -> float:
        return self.mean_metric("answer_relevancy")

    @property
    def mean_context_precision(self) -> float:
        return self.mean_metric("context_precision")

    @property
    def mean_context_recall(self) -> float:
        return self.mean_metric("context_recall")

    @property
    def total_dollars(self) -> float:
        return self.ledger.total_dollars

    def summary(self) -> dict[str, float]:
        """Compact scalar summary for report tables."""
        return {
            "mean_delay_s": self.mean_delay,
            "p90_delay_s": self.delay_percentile(90),
            "mean_f1": self.mean_f1,
            "throughput_qps": self.throughput_qps,
            "dollars_per_query": self.ledger.per_query(len(self.records)),
            "profiler_fraction": self.mean_profiler_fraction,
        }


class ExperimentRunner:
    """Runs one policy over one dataset workload on a fresh engine.

    The constructor is the one place a run knob is declared, defaulted
    and validated: :func:`~repro.experiments.common.run_policy` and the
    CLI forward their keywords here, and the :class:`QueryPipeline` it
    builds receives them already normalised.

    The workload is served by a
    :class:`~repro.serving.cluster.ClusterEngine` of ``n_replicas``
    engine replicas behind the named load-aware ``router`` (a single
    GPU is a one-replica fleet), and each policy decision sees a
    :class:`~repro.core.policy.SchedulingView` of the replica its query
    was routed to.

    ``profiler_concurrency`` bounds how many profiler calls may be in
    flight at once (``None`` = unbounded, the pre-contention behavior);
    excess queries wait in FIFO order and the waits surface in
    :attr:`RunResult.resource_stats` and the per-query
    ``profiler_queue_delay`` / ``retrieval_queue_delay`` fields.

    ``retrieval_shards`` partitions the bundle's corpus across K index
    shards (deterministic hash placement); each shard search contends
    on its own resource, bounded per shard by ``shard_concurrency`` (a
    single int broadcast to every shard, or one entry per shard — a
    length mismatch fails fast with both counts); an unsharded store is
    one shard, so ``shard_concurrency=N`` bounds its one search
    executor pool. ``reranker``
    (``"exact"`` or an instance) re-scores an over-fetched candidate
    pool at modelled per-candidate cost; ``index`` picks the per-shard
    index factory (``"flat"`` exact / ``"ivf"`` approximate).

    ``replica_speeds`` makes the fleet heterogeneous: one hardware-
    throughput multiplier per replica (replicas advance independently
    on the event loop, so a 0.5× replica simply takes 2× as long per
    iteration). Its length must equal ``n_replicas``; a mismatch fails
    fast with both counts — mirroring the mixed open/closed-loop
    workload validation — rather than silently recycling or truncating
    speeds.

    ``slo_seconds`` stamps every query with a deadline
    ``arrival + slo_seconds`` (reported as SLO attainment);
    ``speculation`` selects a deadline-aware hedging policy
    (``"none"`` / ``"hedge-after-delay"`` / ``"deadline-risk"``, see
    :mod:`repro.serving.speculation`) that duplicates at-risk queries
    onto a second replica and cancels the loser, with ``hedge_delay``
    setting the ``hedge-after-delay`` timer. The default (``None`` /
    ``"none"``) leaves the event schedule byte-identical.
    """

    def __init__(
        self,
        bundle: DatasetBundle,
        engine_config: EngineConfig,
        seed: int = 0,
        quality_params: QualityParams | None = None,
        n_replicas: int = 1,
        router: str = "least-kv-load",
        profiler_concurrency: int | None = None,
        replica_speeds: list[float] | None = None,
        retrieval_shards: int = 1,
        shard_concurrency=None,
        reranker: str | ExactReranker | None = None,
        index: str = "flat",
        slo_seconds: float | None = None,
        speculation: str | SpeculationPolicy | None = None,
        hedge_delay: float | None = None,
        workload: Workload | None = None,
        autoscaler=None,
        scale_min: int | None = None,
        scale_max: int | None = None,
        autoscale_interval: float | None = None,
        provision_delay: float | None = None,
        price_idle_capacity: bool | None = None,
        result_cache: str | None = None,
        retrieval_cache: bool = False,
        cache_capacity: int | None = None,
        cache_eviction: str | None = None,
        semantic_threshold: float | None = None,
        cache_ttl: float | None = None,
        quality_metrics: bool = False,
        quality_slo: str | QualitySLO | None = None,
    ) -> None:
        check_positive("n_replicas", n_replicas)
        # Quality SLOs are *measured* attainment, so targeting one
        # implies scoring: the harness switches on automatically.
        self.quality_slo = (QualitySLO.parse(quality_slo)
                            if isinstance(quality_slo, str) else quality_slo)
        self.quality_metrics = bool(quality_metrics) \
            or self.quality_slo is not None
        # Fail fast on misused cache knobs before any engine state is
        # built; None means every tier is off — the byte-identity path.
        self.cache_config = make_cache_config(
            result_cache=result_cache,
            retrieval_cache=retrieval_cache,
            cache_capacity=cache_capacity,
            cache_eviction=cache_eviction,
            semantic_threshold=semantic_threshold,
            cache_ttl=cache_ttl,
        )
        self.scaling_policy = make_scaling_policy(autoscaler)
        if self.scaling_policy is None:
            misused = {
                "scale_min": scale_min,
                "scale_max": scale_max,
                "autoscale_interval": autoscale_interval,
                "provision_delay": provision_delay,
            }
            bad = [k for k, v in misused.items() if v is not None]
            if bad:
                raise ValueError(
                    f"{', '.join(bad)} only applies with an autoscaler; "
                    "pass --autoscaler reactive (or forecast), or drop "
                    "the flag"
                )
            self.scale_min = self.scale_max = int(n_replicas)
        else:
            if isinstance(self.scaling_policy, ForecastPolicy) \
                    and workload is None:
                raise ValueError(
                    "the forecast autoscaler plans against the declared "
                    "workload trace; pass workload= (--workload) or use "
                    "--autoscaler reactive"
                )
            self.scale_min = (1 if scale_min is None
                              else check_count("scale_min", scale_min, 1))
            default_max = max(4, int(n_replicas), self.scale_min)
            self.scale_max = (default_max if scale_max is None
                              else check_count("scale_max", scale_max, 1))
            if not self.scale_min <= int(n_replicas) <= self.scale_max:
                raise ValueError(
                    f"the initial fleet must lie inside the scaling "
                    f"range: n_replicas={int(n_replicas)} is outside "
                    f"[scale_min={self.scale_min}, "
                    f"scale_max={self.scale_max}]"
                )
        self.workload = workload
        self.autoscale_interval = (15.0 if autoscale_interval is None
                                   else autoscale_interval)
        self.provision_delay = (30.0 if provision_delay is None
                                else provision_delay)
        #: Idle-capacity pricing defaults on exactly when autoscaling
        #: is on (the comparison it exists for), but can be forced
        #: either way — fig_autoscale prices the static arms too.
        self.price_idle_capacity = (
            self.scaling_policy is not None
            if price_idle_capacity is None else bool(price_idle_capacity)
        )
        if profiler_concurrency is not None:
            check_positive("profiler_concurrency", profiler_concurrency)
        self.retrieval_shards = check_count(
            "retrieval_shards", retrieval_shards, 1)
        self.shard_concurrency = check_shard_concurrency(
            "shard_concurrency", shard_concurrency, self.retrieval_shards)
        if slo_seconds is not None:
            check_positive("slo_seconds", slo_seconds)
            slo_seconds = float(slo_seconds)
        if hedge_delay is not None:
            check_positive("hedge_delay", hedge_delay)
        self.slo_seconds = slo_seconds
        self.speculation = make_speculation(
            speculation, hedge_delay=hedge_delay, slo_seconds=slo_seconds)
        if (self.speculation is not None and int(n_replicas) < 2
                and self.scale_max < 2):
            raise ValueError(
                f"speculation {self.speculation.name!r} needs a second "
                "replica to hedge onto; with n_replicas="
                f"{int(n_replicas)} every hedge would be silently "
                "skipped — pass --replicas 2 (or more), allow the "
                "autoscaler to add one (--scale-max 2+), or drop "
                "--speculation"
            )
        self.reranker = make_reranker(reranker)
        store = bundle.store
        if (self.retrieval_shards != store.n_shards
                or index != store.index_label):
            store = store.reshard(self.retrieval_shards,
                                  index_factory=index)
        self.store = store
        self.bundle = bundle
        self.engine_config = engine_config
        self.seed = seed
        self.n_replicas = int(n_replicas)
        self.router = router
        self.profiler_concurrency = profiler_concurrency
        self.replica_speeds = check_replica_speeds(replica_speeds,
                                                   n_replicas)
        params = quality_params or bundle.quality_params
        self.generator = SimulatedGenerator(
            quality=QualityModel(params), root_seed=seed
        )
        # One harness per runner: its chunk-token / query-embedding
        # memos are derived-only, so reuse across run() calls is safe
        # and keeps replay-heavy traces cheap. Built against the
        # (possibly resharded) store the queries actually search.
        self.metric_harness = (
            MetricHarness(bundle, embedding=self.store.embedding)
            if self.quality_metrics else None
        )

    # ------------------------------------------------------------------
    def run(self, policy: RAGPolicy, arrivals: list[Arrival],
            closed_loop_clients: int = 1) -> RunResult:
        """Execute the workload; returns per-query records.

        Open-loop arrivals carry explicit times; a workload whose
        arrival times are ``None`` runs closed-loop with
        ``closed_loop_clients`` outstanding queries (1 reproduces
        Fig 19's strictly sequential mode: each query is submitted when
        the previous one completes).
        """
        config = replace(self.engine_config, policy=policy.engine_policy)
        engine = ClusterEngine(
            config,
            n_replicas=self.n_replicas,
            router=self.router,
            seed=self.seed,
            replica_speeds=self.replica_speeds,
        )
        autoscaler = None
        if self.scaling_policy is not None:
            # Fresh per run: the Autoscaler accumulates events and
            # holds loop references; the policy itself is pure.
            autoscaler = Autoscaler(
                self.scaling_policy,
                scale_min=self.scale_min,
                scale_max=self.scale_max,
                interval_s=self.autoscale_interval,
                provision_delay_s=self.provision_delay,
                workload=self.workload,
            )
        pipeline = QueryPipeline(
            bundle=self.bundle,
            policy=policy,
            engine=engine,
            generator=self.generator,
            profiler_concurrency=self.profiler_concurrency,
            store=self.store,
            shard_concurrency=self.shard_concurrency,
            reranker=self.reranker,
            speculation=self.speculation,
            slo_seconds=self.slo_seconds,
            autoscaler=autoscaler,
            cache_config=self.cache_config,
            metrics=self.metric_harness,
        )
        pipeline.run(arrivals, closed_loop_clients=closed_loop_clients)

        ledger = pipeline.ledger
        ledger.charge_gpu(engine.cluster, engine.stats.busy_seconds)
        if pipeline.speculation_gpu_seconds > 0:
            # Attribution, not an extra charge: the losers' busy time
            # is already inside engine.stats.busy_seconds.
            ledger.charge_speculation(engine.cluster,
                                      pipeline.speculation_gpu_seconds)
        self._charge_feedback(policy, engine, ledger)
        makespan = engine.now
        replica_stats = [r.stats for r in engine.replicas]
        provisioned = engine.provisioned_seconds(makespan)
        idle_seconds = sum(
            max(0.0, provisioned[i] - replica_stats[i].busy_seconds)
            for i in range(len(provisioned))
        )
        if self.price_idle_capacity:
            ledger.charge_idle_capacity(engine.cluster, idle_seconds)
        return RunResult(
            policy=policy.name,
            dataset=self.bundle.name,
            records=pipeline.records,
            makespan=makespan,
            engine_stats=engine.stats,
            ledger=ledger,
            replica_stats=replica_stats,
            replica_speeds=list(engine.replica_speeds),
            n_replicas=self.n_replicas,
            # A static one-replica run routes nothing: no router to
            # report.
            router=(engine.router.name if self.n_replicas > 1
                    or self.scaling_policy is not None else None),
            resource_stats=pipeline.resource_stats(),
            n_retrieval_shards=self.store.n_shards,
            reranker=self.reranker.name if self.reranker else None,
            slo_seconds=self.slo_seconds,
            speculation=self.speculation.name if self.speculation else None,
            autoscaler=(self.scaling_policy.name
                        if self.scaling_policy else None),
            scaling_events=list(autoscaler.events) if autoscaler else [],
            provisioned_gpu_seconds=sum(provisioned),
            idle_gpu_seconds=(idle_seconds
                              if self.price_idle_capacity else 0.0),
            result_cache=(self.cache_config.result_mode
                          if self.cache_config is not None
                          and self.cache_config.result_enabled else None),
            retrieval_cache=(self.cache_config.retrieval
                             if self.cache_config is not None else False),
            cache_stats=pipeline.cache_stats(),
            quality_metrics=self.quality_metrics,
            quality_slo=(self.quality_slo.spec
                         if self.quality_slo is not None else None),
        )

    # ------------------------------------------------------------------
    def _charge_feedback(self, policy: RAGPolicy,
                         engine: ClusterEngine,
                         ledger: CostLedger) -> None:
        """Charge GPU time for golden-configuration feedback runs."""
        feedback = getattr(policy, "feedback", None)
        if feedback is None:
            return
        for event in feedback.events:
            seconds = engine.cost.request_seconds(
                event.golden_prefill_tokens, event.golden_output_tokens)
            ledger.charge_gpu(engine.cluster, seconds)

"""The staged query pipeline: how one RAG query flows through the system.

Each query traverses five explicit stages on the shared
:class:`~repro.sim.kernel.EventLoop`::

    ProfileStage -> DecideStage -> RetrieveStage -> SynthesizeStage -> ServeStage

* :class:`ProfileStage` — the policy's arrival-time work (the METIS
  profiler LLM call, if any). The profiler is a
  :class:`~repro.sim.resource.Resource` with configurable concurrency
  modeling API rate limits: under load, queries *queue* for a profiler
  slot, which makes Fig 18's overhead load-dependent instead of a
  constant.
* :class:`DecideStage` — configuration choice against a scheduling
  view of the routed replica, including cluster-aware re-placement.
  With a :class:`~repro.serving.speculation.SpeculationPolicy`
  configured it also *plans the hedge*: an at-risk query gets a
  ``hedge:arm`` event on the loop, cancelled if the query finishes
  first.
* :class:`RetrieveStage` — scatter-gather search over the store's K
  index shards, each behind its **own** ``Resource`` (finite per-shard
  search executors × a per-shard latency derived from the shard's
  corpus share), so shard searches contend independently and the
  stage's latency is the *max* over the shards a query touches, plus a
  per-excess-candidate gather cost when K > 1.
* :class:`RerankStage` *(optional)* — re-score the merged top-N on a
  ``reranker`` resource at a modelled per-candidate cost before
  synthesis (see :mod:`repro.retrieval.rerank`).
* :class:`SynthesizeStage` — prompt building: clip chunks to the
  context budget and expand the config into a synthesis plan.
* :class:`ServeStage` — submit the plan's LLM calls stage by stage to
  the serving engine and *await their completion events*: engine
  iterations are first-class events on the shared loop (a
  :class:`~repro.sim.driver.StepDriver` keeps one step event armed for
  the fleet; idle replicas sleep, admission wakes them), so each
  call's ``on_finish`` fires from within the step event that completes
  it — no stage ever polls the engine. Completion closes the loop
  (records, feedback, closed-loop re-arrival).

Speculative execution (``docs/SPECULATION.md``): retrieval, synthesis
and serving run inside a :class:`Lane` — one independent execution
attempt holding its own resource leases, in-flight events, and engine
requests. Unhedged queries have exactly one lane (the primary, whose
event schedule is byte-identical to the pre-lane pipeline). When a
query's ``hedge:arm`` event fires, a duplicate lane re-enters
:class:`RetrieveStage` pinned to a different replica; the first lane
to complete its final LLM call wins, and the loser is torn down
deterministically — queued/held resource leases cancelled
(:meth:`~repro.sim.resource.Resource.cancel`), pending gather events
tombstoned (:meth:`~repro.sim.kernel.EventLoop.cancel`), and engine
requests evicted with their KV reservations released
(:meth:`~repro.serving.cluster.ClusterEngine.cancel`). The loser's
processed tokens are priced into the ledger's ``speculation`` column.

Determinism contract: with all resources unbounded, one retrieval
shard, no reranker, and no speculation (the defaults) the
event schedule is *byte-identical* to the pre-``repro.sim`` runner —
the profiler/retrieval completion events land at exactly the
timestamps and tie-break ranks the old ``heapq`` closures produced.
This was verified against the pre-refactor implementation by full-run
SHA fingerprints, and a fingerprint generated from that verified
schedule is committed as a regression anchor
(``tests/golden/pipeline_golden.json``, pinned by
``tests/test_pipeline.py::TestGoldenFingerprint``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.caching import (
    CACHE_INSERT_SECONDS,
    CacheConfig,
    CachedAnswer,
    CacheStats,
    ResultCache,
    RetrievalCache,
)
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core.policy import Decision, PrepResult, RAGPolicy, SchedulingView
from repro.data.types import DatasetBundle, Query
from repro.data.workload import Arrival
from repro.evaluation.costs import CostLedger
from repro.evaluation.f1 import token_f1
from repro.evaluation.metrics import MetricHarness, QualityMetrics
from repro.llm.generation import SimulatedGenerator
from repro.retrieval.rerank import ExactReranker
from repro.retrieval.sharded import SearchHit, ShardedVectorStore
from repro.serving.cluster import ClusterEngine
from repro.serving.request import InferenceRequest
from repro.serving.speculation import (
    HedgeContext,
    SpeculationPolicy,
)
from repro.sim import Event, EventLoop, Lease, Resource, ResourceStats
from repro.synthesis import make_synthesizer
from repro.synthesis.plans import SynthesisPlan
from repro.util.ids import canonical_query_id
from repro.util.validation import check_positive

__all__ = [
    "CACHE_RESOURCE",
    "PROFILER_RESOURCE",
    "RERANK_RESOURCE",
    "RETRIEVAL_RESOURCE",
    "Lane",
    "QueryExecution",
    "QueryPipeline",
    "QueryRecord",
    "shard_resource_name",
    "validate_arrivals",
]

#: Resource names as they appear in ``RunResult.resource_stats``.
PROFILER_RESOURCE = "profiler"
RETRIEVAL_RESOURCE = "retrieval"
RERANK_RESOURCE = "reranker"
CACHE_RESOURCE = "cache"


def shard_resource_name(sid: int, n_shards: int) -> str:
    """Resource name for shard ``sid``: the single shard of an
    unsharded store keeps the historical ``"retrieval"`` name."""
    if n_shards == 1:
        return RETRIEVAL_RESOURCE
    return f"{RETRIEVAL_RESOURCE}/shard{sid}"


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """Everything measured for one served query (the pipeline's output).

    ``slots=True``: a serve keeps one record per arrival, and 45 fixed
    fields need no per-instance ``__dict__``.
    """

    query_id: str
    policy: str
    dataset: str
    arrival_time: float
    decision_time: float
    finish_time: float
    config: RAGConfig
    f1: float
    expected_f1: float
    coverage: float
    profiler_seconds: float
    profiler_dollars: float
    n_chunks_retrieved: int
    chunks_clipped: bool
    fell_back: bool
    used_recent_spaces: bool
    confidence: float | None
    queueing_delay: float
    prefill_tokens: int
    output_tokens: int
    #: Which replica served this query (the *winning* lane's replica
    #: when the query was hedged).
    replica: int = 0
    #: Seconds spent waiting for a profiler slot (0 when unbounded).
    profiler_queue_delay: float = 0.0
    #: Max seconds spent waiting for a shard search slot (0 unbounded).
    retrieval_queue_delay: float = 0.0
    #: Scatter-gather stage duration: queue + max shard hold + gather.
    retrieval_seconds: float = 0.0
    #: Merge cost charged for candidates beyond the final top-k.
    gather_seconds: float = 0.0
    #: Reranker scoring hold (0 when no reranker is configured).
    rerank_seconds: float = 0.0
    #: Seconds spent waiting for a reranker slot.
    rerank_queue_delay: float = 0.0
    #: SLO deadline (``arrival + slo_seconds``); ``None`` without SLO.
    deadline: float | None = None
    #: Whether a speculative duplicate was armed for this query.
    hedged: bool = False
    #: When the duplicate lane started (``None`` when not hedged).
    hedge_time: float | None = None
    #: Whether the duplicate lane won (primary was cancelled).
    hedge_won: bool = False
    #: Tokens the losing lane had already processed when cancelled —
    #: the per-query wasted-work measure speculation pays for its
    #: tail-latency win.
    wasted_prefill_tokens: int = 0
    wasted_decode_tokens: int = 0
    #: GPU-time attribution of that wasted work (roofline-priced).
    speculation_seconds: float = 0.0
    #: Whether any cache tier served this query (``docs/CACHING.md``).
    cache_hit: bool = False
    #: Which tier: ``result-exact`` / ``result-semantic`` /
    #: ``retrieval`` (``None`` on a miss or with caching off).
    cache_tier: str | None = None
    #: Hit entry was tagged with an older corpus version than the
    #: store's current one (served anyway; staleness is measured).
    cache_stale: bool = False
    #: Seconds the serving entry had been resident at hit time.
    cache_age_s: float = 0.0
    #: Cache-resource lookup hold (+ queueing) this query paid; >0 for
    #: every query — hits *and* misses — when a cache is enabled.
    cache_lookup_seconds: float = 0.0
    #: RAGAS-style decomposed quality metrics (``docs/EVALUATION.md``),
    #: scored post-serve against what was actually served (the cached
    #: answer and chunk ids on a hit). ``None`` unless the run enabled
    #: the metric harness — the default keeps records byte-identical.
    faithfulness: float | None = None
    answer_relevancy: float | None = None
    context_precision: float | None = None
    context_recall: float | None = None

    @property
    def e2e_delay(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def slo_met(self) -> bool | None:
        """Deadline attainment (``None`` when no SLO is configured)."""
        if self.deadline is None:
            return None
        return self.finish_time <= self.deadline

    @property
    def profiler_fraction(self) -> float:
        """Share of end-to-end delay spent in the profiler (Fig 18).

        Includes time queued for a profiler slot: under API rate
        limits the *wait* is part of the overhead a user observes.
        """
        if self.e2e_delay <= 0:
            return 0.0
        return (self.profiler_seconds + self.profiler_queue_delay) \
            / self.e2e_delay


def _metric_fields(quality: QualityMetrics | None) -> dict:
    """Keyword fields for ``QueryRecord`` from one harness score.

    An empty dict when the harness is off, so the record keeps its
    all-``None`` defaults and default runs stay field-for-field
    identical to pre-harness records.
    """
    if quality is None:
        return {}
    return dict(
        faithfulness=quality.faithfulness,
        answer_relevancy=quality.answer_relevancy,
        context_precision=quality.context_precision,
        context_recall=quality.context_recall,
    )


@dataclass
class Lane:
    """One independent execution attempt of a query (retrieve → serve).

    Lane 0 is the primary; lane 1 is the speculative duplicate armed
    by the hedge event. Each lane tracks every resource lease, pending
    loop event, and in-flight engine request it owns, so the losing
    lane can be unwound without touching the winner: teardown cancels
    exactly the listed handles (cancelling already-completed ones is a
    no-op by construction).
    """

    ex: "QueryExecution"
    lane_id: int
    app_id: str
    replica: int = 0
    start_time: float = 0.0
    chunk_ids: list[str] = field(default_factory=list)
    chunks_clipped: bool = False
    plan: SynthesisPlan | None = None
    stage: int = 0
    stage_remaining: int = 0
    first_admitted: float | None = None
    prefill_tokens: int = 0
    output_tokens: int = 0
    retrieval_queue_delay: float = 0.0
    retrieval_seconds: float = 0.0
    gather_seconds: float = 0.0
    rerank_seconds: float = 0.0
    rerank_queue_delay: float = 0.0
    #: Every resource lease this lane ever took (profiler excluded:
    #: profiling happens once, before lanes exist).
    leases: list[Lease] = field(default_factory=list)
    #: Loop events owned by this lane (gather completions).
    events: list[Event] = field(default_factory=list)
    #: Engine requests still in flight (removed as calls complete).
    requests: list[InferenceRequest] = field(default_factory=list)
    cancelled: bool = False


@dataclass
class QueryExecution:
    """Mutable per-query state as it moves through the stages."""

    query: Query
    arrival_time: float
    prep: PrepResult | None = None
    decision: Decision | None = None
    decision_time: float = 0.0
    #: Replica the primary lane was routed to.
    replica: int = 0
    profiler_queue_delay: float = 0.0
    #: ``arrival + slo_seconds`` when an SLO is configured.
    deadline: float | None = None
    lanes: list[Lane] = field(default_factory=list)
    #: The armed ``hedge:arm`` event (cancelled if the query wins first).
    hedge_event: Event | None = None
    hedged: bool = False
    hedge_time: float | None = None
    done: bool = False
    wasted_prefill_tokens: int = 0
    wasted_decode_tokens: int = 0
    speculation_seconds: float = 0.0
    #: Cache observables surfaced on the record (set by CacheStage).
    cache_hit: bool = False
    cache_tier: str | None = None
    cache_stale: bool = False
    cache_age_s: float = 0.0
    cache_lookup_seconds: float = 0.0


def validate_arrivals(arrivals: list[Arrival]) -> bool:
    """Return True for closed-loop workloads; reject empty and mixed.

    A workload is closed-loop iff *every* arrival time is ``None`` and
    open-loop iff *none* is — any mixture is rejected with the
    offending index (the pre-refactor check only inspected the first
    arrival, silently mis-running e.g. ``[None, 0.5, ...]``).
    """
    if not arrivals:
        raise ValueError("empty workload")
    closed = arrivals[0].time is None
    for i, arrival in enumerate(arrivals):
        if (arrival.time is None) != closed:
            kind = "closed-loop (time=None)" if closed else \
                f"open-loop (time={arrivals[0].time})"
            raise ValueError(
                "mixed open/closed-loop workload is not supported: "
                f"arrival 0 is {kind} but arrival {i} has "
                f"time={arrival.time}"
            )
    return closed


class _Stage:
    """Base: a stage holds its pipeline. Stages are wired explicitly
    (each hands off to the next by name), not iterated polymorphically,
    so no common ``enter`` signature is imposed here."""

    def __init__(self, pipeline: QueryPipeline) -> None:
        self.p = pipeline


class ProfileStage(_Stage):
    """Arrival-time policy work, contended on the profiler resource.

    The profiler is a *coalescing* resource: queries that queue behind
    a busy slot are dispatched together as one amortized API call the
    moment the slot frees (batched profiler endpoints take one
    round-trip for many queries), charged to the ledger **once** at the
    largest member's price. Queries granted a slot on arrival keep the
    historical one-call-per-query path, so the default (unbounded)
    schedule and ledger are untouched.
    """

    def __init__(self, pipeline: "QueryPipeline") -> None:
        super().__init__(pipeline)
        #: Prep results of queued (not yet dispatched) profile
        #: requests, keyed by lease; drained by :meth:`_charge_batch`.
        self._queued_prep: dict[Lease, PrepResult] = {}
        pipeline.profiler.on_batch = self._charge_batch

    def enter(self, t: float, query: Query) -> None:
        ex = QueryExecution(query=query, arrival_time=t)
        if self.p.slo_seconds is not None:
            ex.deadline = t + self.p.slo_seconds
        prep = self.p.policy.prepare(query)
        ex.prep = prep
        lease = self.p.profiler.request(
            t, prep.api_seconds,
            lambda now, waited: self._done(now, waited, ex))
        if lease.state == Lease.HELD:
            # Uncontended: a dedicated API call, charged on arrival.
            if prep.dollars:
                self.p.ledger.api_dollars += prep.dollars
                self.p.ledger.n_api_calls += 1
        else:
            self._queued_prep[lease] = prep

    def _charge_batch(self, batch: list[Lease]) -> None:
        """One ledger charge per merged profiler call (its price is the
        largest member's — the batched call must cover it)."""
        preps = [self._queued_prep.pop(lease)
                 for lease in batch if lease in self._queued_prep]
        dollars = max((prep.dollars for prep in preps), default=0.0)
        if dollars:
            self.p.ledger.api_dollars += dollars
            self.p.ledger.n_api_calls += 1

    def _done(self, now: float, waited: float, ex: QueryExecution) -> None:
        ex.profiler_queue_delay = waited
        self.p.decide.enter(now, ex)


class DecideStage(_Stage):
    """Pick a configuration against the engine's scheduling view, then
    open the primary lane (and plan the hedge, when speculating)."""

    def enter(self, t: float, ex: QueryExecution) -> None:
        p = self.p
        ex.decision_time = t
        view = p.make_view(ex.query)
        ex.decision = p.policy.choose(ex.query, ex.prep, view)
        # Cluster-aware policies may re-place the query on a replica
        # with more claimable memory (fallback rescue).
        preferred = ex.decision.preferred_replica
        if preferred is not None and p.engine.is_active(preferred):
            # A preference for a replica that started draining since
            # the view was built is dropped, not honoured: draining
            # replicas take no new placements.
            p.engine.pin_app(ex.query.query_id, preferred)
        ex.replica = p.engine.replica_of_app(ex.query.query_id)
        if p.cache_resource is not None:
            # Probe the cache tiers first; a result hit opens no lane.
            # Caching off (cache_resource None) keeps this path
            # byte-identical.
            p.cache_stage.enter(t, ex, view)
            return
        self.open_lane(t, ex, view)

    def open_lane(self, t: float, ex: QueryExecution, view: SchedulingView,
                  chunk_ids: tuple[str, ...] | None = None) -> None:
        """Open the primary lane and plan its hedge, then retrieve — or,
        given memoized ``chunk_ids`` (a retrieval-cache hit), skip
        scatter-gather and rerank and synthesize from them."""
        p = self.p
        lane = Lane(ex=ex, lane_id=0, app_id=ex.query.query_id,
                    replica=ex.replica, start_time=t)
        ex.lanes.append(lane)
        if p.speculation is not None:
            self._plan_hedge(t, ex, view)
        if chunk_ids is None:
            p.retrieve.enter(t, lane)
        else:
            lane.chunk_ids = list(chunk_ids)
            p.synthesize.enter(t, lane)

    def _plan_hedge(self, t: float, ex: QueryExecution,
                    view: SchedulingView) -> None:
        """Ask the speculation policy when (if ever) to arm a duplicate."""
        p = self.p
        if p.speculation.needs_estimate:
            # Priced on the memoized uniform-chunk plan of the config.
            plan = view.footprint(ex.decision.config)
            est_seconds = plan.service_seconds(p.engine.cost)
        else:
            est_seconds = 0.0  # pure timers never read the estimate
        ctx = HedgeContext(
            arrival_time=ex.arrival_time,
            decision_time=t,
            deadline=ex.deadline,
            est_service_seconds=est_seconds,
            primary=ex.replica,
            replica_outstanding=view.replica_outstanding,
            replica_speeds=view.replica_speeds,
        )
        arm_at = p.speculation.hedge_time(ctx)
        if arm_at is None:
            return
        ex.hedge_event = p.loop.schedule(
            max(t, arm_at), "hedge:arm",
            lambda tt, _: p.arm_hedge(tt, ex),
        )


class CacheStage(_Stage):
    """Probe the cache tiers between Decide and Retrieve.

    One lookup hold on the shared ``cache`` resource covers both
    probes (exact/semantic result key, then the retrieval key): a
    **result** hit finalizes the query right here — no lane, no
    retrieval, no LLM calls, no hedge. Otherwise
    :meth:`DecideStage.open_lane` opens the primary lane and plans
    its hedge: a **retrieval** hit hands it the memoized chunk ids,
    which enter synthesis directly; a full miss pays the lookup as
    added latency (the honest cost of consulting a cache) and
    proceeds down the normal path.
    """

    def enter(self, t: float, ex: QueryExecution, view) -> None:
        p = self.p
        hold = p.cache_lookup_hold()
        p.cache_resource.request(
            t, hold,
            lambda now, waited:
                self._looked_up(now, hold + waited, ex, view))

    def _looked_up(self, now: float, lookup_s: float,
                   ex: QueryExecution, view) -> None:
        p = self.p
        ex.cache_lookup_seconds = lookup_s
        if p.result_cache is not None:
            key, qvec = p.result_probe(ex)
            entry, tier = p.result_cache.lookup(
                key, qvec, now, corpus_version=p.store.corpus_version)
            if entry is not None:
                p.finalize_cache_hit(ex, entry, tier, now)
                if tier == "result-semantic":
                    # Promote the near-duplicate under its own exact
                    # key: future identical repeats hit exactly, and
                    # the resident set no longer depends on where the
                    # threshold fell (hit-rate monotone in threshold).
                    p.cache_result(ex, (key, qvec), entry.value, now,
                                   saved_seconds=entry.saved_seconds,
                                   saved_dollars=entry.saved_dollars,
                                   corpus_version=entry.corpus_version)
                return
        chunk_ids = None
        if p.retrieval_cache is not None:
            entry = p.retrieval_cache.lookup(
                p.retrieval_cache_key(ex), now,
                corpus_version=p.store.corpus_version)
            if entry is not None:
                # Cached context, fresh answer.
                p.stamp_cache_hit(ex, entry, "retrieval", now)
                chunk_ids = entry.value
        p.decide.open_lane(now, ex, view, chunk_ids)


@dataclass
class _ScatterState:
    """In-flight bookkeeping for one lane's scatter-gather."""

    t0: float
    fetch_k: int
    qvec: object
    pending: int
    hits: list
    max_wait: float = 0.0


class RetrieveStage(_Stage):
    """Scatter-gather search over the store's shards, each contended on
    its own per-shard resource.

    Scatter computes every shard's local answer up front and charges
    each shard's hold on its resource; the lane proceeds when the
    *last* shard completes (latency = max over shards), plus a gather
    event when merging excess candidates costs time (never at K=1, so
    the single-shard schedule is event-for-event the pre-shard one).
    """

    def enter(self, t: float, lane: Lane) -> None:
        p = self.p
        store = p.store
        ex = lane.ex
        fetch_k = p.fetch_k(ex)
        qvec = store.embed_query(ex.query.text) if len(store) else None
        state = _ScatterState(
            t0=t, fetch_k=fetch_k, qvec=qvec,
            pending=store.n_shards, hits=[()] * store.n_shards,
        )
        for sid in range(store.n_shards):
            found = (store.search_shard(sid, qvec, fetch_k)
                     if qvec is not None else [])
            lease = p.shard_resources[sid].request(
                t, store.shard_hold_seconds(sid),
                lambda now, waited, sid=sid, found=found:
                    self._shard_done(now, waited, sid, found, state, lane),
            )
            lane.leases.append(lease)

    def _shard_done(self, now: float, waited: float, sid: int,
                    found: list, state: _ScatterState,
                    lane: Lane) -> None:
        state.hits[sid] = found
        state.max_wait = max(state.max_wait, waited)
        state.pending -= 1
        if state.pending:
            return
        lane.retrieval_queue_delay = state.max_wait
        store = self.p.store
        merged = store.gather(state.hits, state.fetch_k)
        n_candidates = sum(len(h) for h in state.hits)
        gather_s = store.gather_seconds(n_candidates, state.fetch_k)
        lane.gather_seconds = gather_s
        if gather_s > 0:
            event = self.p.loop.schedule(
                now + gather_s, "gather:done",
                lambda tt, _: self._gathered(tt, merged, state, lane),
            )
            lane.events.append(event)
        else:
            self._gathered(now, merged, state, lane)

    def _gathered(self, now: float, merged: list[SearchHit],
                  state: _ScatterState, lane: Lane) -> None:
        lane.retrieval_seconds = now - state.t0
        p = self.p
        if p.reranker is not None:
            p.rerank.enter(now, lane, merged, state.qvec)
            return
        lane.chunk_ids = [h.chunk.chunk_id for h in merged]
        p.maybe_cache_retrieval(lane, now)
        p.synthesize.enter(now, lane)


class RerankStage(_Stage):
    """Re-score the merged candidate pool on the reranker resource."""

    def enter(self, t: float, lane: Lane,
              candidates: list[SearchHit], qvec) -> None:
        p = self.p
        hold = p.reranker.hold_seconds(len(candidates))
        lane.rerank_seconds = hold
        lease = p.rerank_resource.request(
            t, hold,
            lambda now, waited:
                self._done(now, waited, lane, candidates, qvec),
        )
        lane.leases.append(lease)

    def _done(self, now: float, waited: float, lane: Lane,
              candidates: list[SearchHit], qvec) -> None:
        lane.rerank_queue_delay = waited
        p = self.p
        k = lane.ex.decision.config.num_chunks
        top = (p.reranker.rerank(p.store, qvec, candidates, k)
               if candidates else [])
        lane.chunk_ids = [h.chunk.chunk_id for h in top]
        p.maybe_cache_retrieval(lane, now)
        p.synthesize.enter(now, lane)


class SynthesizeStage(_Stage):
    """Build the prompt plan: clip chunks, expand the synthesis DAG."""

    def enter(self, t: float, lane: Lane) -> None:
        p = self.p
        ex = lane.ex
        chunk_tokens = self._clipped_chunk_tokens(lane)
        synthesizer = p.synthesizer(ex.decision.config)
        lane.plan = synthesizer.build_plan(
            query_tokens=ex.query.n_tokens,
            chunk_tokens=chunk_tokens,
            answer_tokens=ex.query.answer_tokens_estimate,
            config=ex.decision.config,
        )
        lane.stage = 0
        p.serve.submit_stage(lane, t)

    def _clipped_chunk_tokens(self, lane: Lane) -> list[int]:
        """Clip the retrieved chunk list to the model's context budget.

        ``stuff`` concatenates everything into one prompt; a fixed
        config with many large chunks can exceed the context window (or
        the KV pool), in which case trailing chunks are dropped — what
        a production stack's prompt builder does.
        """
        ex = lane.ex
        engine = self.p.engine
        chunks = [self.p.store.get(cid) for cid in lane.chunk_ids]
        tokens = [c.n_tokens for c in chunks]
        if ex.decision.config.synthesis_method is SynthesisMethod.STUFF:
            # Slack covers the prompt template wrapper (instruction +
            # per-chunk separators) plus a safety margin.
            wrapper_slack = 64 + 8 * len(tokens)
            budget = min(
                engine.model.max_context,
                engine.memory.kv_pool_tokens,
            ) - ex.query.n_tokens - ex.query.answer_tokens_estimate - wrapper_slack
            while tokens and sum(tokens) > budget:
                tokens.pop()
                lane.chunk_ids.pop()
                lane.chunks_clipped = True
        if not tokens:
            raise RuntimeError(
                f"no chunks usable for {ex.query.query_id}: context budget "
                "too small for even one chunk"
            )
        return tokens


class ServeStage(_Stage):
    """Drive the plan's LLM calls through the serving engine."""

    def submit_stage(self, lane: Lane, t: float) -> None:
        engine = self.p.engine
        groups = lane.plan.stages[lane.stage]
        lane.stage_remaining = sum(n for _, _, n in groups)
        for prompt, output, n in groups:
            for _ in range(n):
                request = InferenceRequest(
                    prompt_tokens=prompt,
                    output_tokens=output,
                    arrival_time=max(t, engine.now),
                    app_id=lane.app_id,
                    stage=lane.stage,
                    on_finish=lambda req, now, lane=lane: self._on_call_done(
                        lane, req, now),
                )
                lane.requests.append(request)
                engine.submit(request)

    def _on_call_done(self, lane: Lane, request: InferenceRequest,
                      now: float) -> None:
        lane.requests.remove(request)
        if lane.first_admitted is None or (
            request.admitted_time is not None
            and request.admitted_time < lane.first_admitted
        ):
            lane.first_admitted = request.admitted_time
        lane.prefill_tokens += request.prompt_tokens
        lane.output_tokens += request.output_tokens
        lane.stage_remaining -= 1
        if lane.stage_remaining > 0:
            return
        if lane.stage + 1 < lane.plan.n_stages:
            lane.stage += 1
            self.submit_stage(lane, now)
            return
        self.p.complete_lane(lane, now)


class QueryPipeline:
    """One workload run: stages + contended resources on a shared loop.

    The pipeline owns the per-run mutable state (event loop, resources,
    ledger, record sink) so that a fresh pipeline is a fresh
    simulation; the :class:`~repro.evaluation.runner.ExperimentRunner`
    constructs one per ``run()``.

    ``speculation`` (a
    :class:`~repro.serving.speculation.SpeculationPolicy` or ``None``)
    enables deadline-aware hedging; ``slo_seconds`` stamps every query
    with a deadline ``arrival + slo_seconds`` (reported as SLO
    attainment even without speculation). Both default off, leaving
    the event schedule untouched.

    Arguments arrive as the runner validated and normalised them:
    ``shard_concurrency`` holds one entry per shard of ``store`` (or is
    ``None``, unbounded everywhere).
    """

    def __init__(
        self,
        bundle: DatasetBundle,
        policy: RAGPolicy,
        engine: ClusterEngine,
        generator: SimulatedGenerator,
        profiler_concurrency: int | None = None,
        store: ShardedVectorStore | None = None,
        shard_concurrency: list[int | None] | None = None,
        reranker: ExactReranker | None = None,
        speculation: SpeculationPolicy | None = None,
        slo_seconds: float | None = None,
        autoscaler=None,
        cache_config: CacheConfig | None = None,
        metrics: MetricHarness | None = None,
    ) -> None:
        self.bundle = bundle
        self.policy = policy
        self.engine = engine
        self.generator = generator
        #: Optional multi-metric quality harness (docs/EVALUATION.md).
        #: ``None`` (the default) skips scoring entirely: records carry
        #: ``None`` metric fields and the schedule is untouched either
        #: way — scoring is post-serve and emits no events.
        self.metrics = metrics
        self.speculation = speculation
        self.slo_seconds = slo_seconds
        #: Optional :class:`~repro.workload.Autoscaler`; started by
        #: ``run`` once the arrival horizon is known. ``None`` leaves
        #: the fleet static (and the schedule byte-identical).
        self.autoscaler = autoscaler
        #: The (possibly resharded) store queries search; defaults to
        #: the bundle's own single-shard store.
        self.store = store if store is not None else bundle.store
        self.reranker = reranker
        self.loop = EventLoop()
        # coalesce: queued profile requests dispatch as one amortized
        # batched API call per freed slot (see ProfileStage). Never
        # engages at the unbounded default, keeping goldens identical.
        self.profiler = Resource(PROFILER_RESOURCE, self.loop,
                                 profiler_concurrency, coalesce=True)
        n_shards = self.store.n_shards
        per_shard = shard_concurrency or [None] * n_shards
        self.shard_resources = [
            Resource(shard_resource_name(sid, n_shards), self.loop,
                     per_shard[sid])
            for sid in range(n_shards)
        ]
        self.rerank_resource = (
            Resource(RERANK_RESOURCE, self.loop, None)
            if reranker is not None else None
        )
        # Cache tiers (docs/CACHING.md): fresh per pipeline — caches
        # are per-run mutable state like the ledger. Disabled (None
        # config, the default) constructs nothing: no tier objects, no
        # ``cache`` resource, no extra events — the byte-identity path.
        self.result_cache: ResultCache | None = None
        self.retrieval_cache: RetrievalCache | None = None
        self.cache_resource: Resource | None = None
        if cache_config is not None and cache_config.enabled:
            if cache_config.result_enabled:
                self.result_cache = ResultCache(
                    capacity=cache_config.capacity,
                    eviction=cache_config.eviction,
                    ttl_s=cache_config.ttl_s,
                    semantic=(cache_config.result_mode == "semantic"),
                    semantic_threshold=cache_config.semantic_threshold,
                )
            if cache_config.retrieval:
                self.retrieval_cache = RetrievalCache(
                    capacity=cache_config.capacity,
                    eviction=cache_config.eviction,
                    ttl_s=cache_config.ttl_s,
                )
            self.cache_resource = Resource(CACHE_RESOURCE, self.loop, None)
        self.ledger = CostLedger()
        self.records: list[QueryRecord] = []
        #: GPU seconds of cancelled duplicate work (roofline-priced at
        #: the losing replica's speed); the runner attributes this to
        #: the ledger's ``speculation`` column.
        self.speculation_gpu_seconds = 0.0
        self.n_hedges_armed = 0
        self._synthesizers: dict = {}
        self._pending_closed: deque[Arrival] = deque()
        # The stages, wired in traversal order.
        self.profile = ProfileStage(self)
        self.decide = DecideStage(self)
        self.cache_stage = CacheStage(self)
        self.retrieve = RetrieveStage(self)
        self.rerank = RerankStage(self)
        self.synthesize = SynthesizeStage(self)
        self.serve = ServeStage(self)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, arrivals: list[Arrival],
            closed_loop_clients: int = 1) -> None:
        """Seed the workload and run the loop until everything drains."""
        check_positive("closed_loop_clients", closed_loop_clients)
        closed = validate_arrivals(arrivals)
        if closed and self.autoscaler is not None:
            raise ValueError(
                "the autoscaler tracks timed (open-loop) workloads; a "
                "closed-loop run has no arrival horizon to scale against"
            )
        if closed:
            seed_n = min(int(closed_loop_clients), len(arrivals))
            for arrival in arrivals[:seed_n]:
                self._schedule_arrival(0.0, arrival.query)
            self._pending_closed = deque(arrivals[seed_n:])
        else:
            if closed_loop_clients != 1:
                raise ValueError(
                    "closed_loop_clients only applies to closed-loop "
                    "(sequential) workloads"
                )
            for arrival in arrivals:
                self._schedule_arrival(arrival.time, arrival.query)
        # Event-driven serving: replica iterations are first-class
        # events on the shared loop (armed by a StepDriver; idle
        # replicas sleep and are woken by admission) — see
        # repro.sim.driver.
        self.engine.attach(self.loop)
        if self.autoscaler is not None:
            horizon = max(a.time for a in arrivals)
            self.autoscaler.start(
                self.loop, self.engine, horizon=horizon,
                records=self.records, slo_seconds=self.slo_seconds)
        self.loop.run()

    def _schedule_arrival(self, t: float, query: Query) -> None:
        self.loop.schedule(t, "arrival", self.profile.enter, query)

    # ------------------------------------------------------------------
    # Speculation: arming, first-completion-wins, loser teardown
    # ------------------------------------------------------------------
    def arm_hedge(self, t: float, ex: QueryExecution) -> None:
        """The ``hedge:arm`` event fired: open the duplicate lane.

        Chooses the fastest under-loaded replica *now* (queue depths
        have moved since decision time), pins the duplicate's app id
        there, and re-enters the retrieve stage — the duplicate
        contends for shard/rerank resources and KV memory exactly like
        a fresh query, which is the cost hedging pays.
        """
        ex.hedge_event = None
        if ex.done:  # pragma: no cover - arm events are cancelled at win
            return
        engine = self.engine
        target = self.speculation.choose_replica(
            engine.replica_outstanding(), engine.replica_speeds,
            ex.lanes[0].replica,
            eligible=engine.active_replica_ids(),
        )
        if target is None:  # a one-replica fleet has nowhere to hedge to
            return
        app_id = f"{ex.query.query_id}#hedge"
        engine.pin_app(app_id, target)
        lane = Lane(ex=ex, lane_id=1, app_id=app_id,
                    replica=target, start_time=t)
        ex.lanes.append(lane)
        ex.hedged = True
        ex.hedge_time = t
        self.n_hedges_armed += 1
        self.retrieve.enter(t, lane)

    def complete_lane(self, lane: Lane, now: float) -> None:
        """A lane finished its last LLM call: first completion wins."""
        ex = lane.ex
        if ex.done:  # pragma: no cover - losers are cancelled, not raced
            return
        ex.done = True
        if ex.hedge_event is not None:
            # The query beat its own hedge timer; the armed event must
            # die as a tombstone, never fire.
            self.loop.cancel(ex.hedge_event)
            ex.hedge_event = None
        for other in ex.lanes:
            if other is not lane:
                self._cancel_lane(other, now)
        self.finalize(ex, lane, now)

    def _cancel_lane(self, lane: Lane, now: float) -> None:
        """Unwind a losing lane deterministically.

        Order matters for accounting, not correctness: measure the
        loser's processed tokens first (completed calls plus partial
        progress of in-flight ones), then cancel leases (queued ones
        vanish, held ones release their slot to the next waiter),
        tombstone pending gather events, evict engine requests (KV
        reservations freed), and drop the hedge app pin. Every cancel
        below is idempotent/no-op on already-completed handles.
        """
        lane.cancelled = True
        ex = lane.ex
        wasted_prefill = lane.prefill_tokens
        wasted_decode = lane.output_tokens
        for request in lane.requests:
            wasted_prefill += request.prefilled_tokens
            wasted_decode += request.decoded_tokens
        for lease in lane.leases:
            lease.cancel(now)
        for event in lane.events:
            self.loop.cancel(event)
        for request in lane.requests:
            self.engine.cancel(request)
        lane.requests.clear()
        ex.wasted_prefill_tokens += wasted_prefill
        ex.wasted_decode_tokens += wasted_decode
        seconds = self._wasted_seconds(lane, wasted_prefill, wasted_decode)
        ex.speculation_seconds += seconds
        self.speculation_gpu_seconds += seconds
        self.engine.release_app(lane.app_id)

    def _wasted_seconds(self, lane: Lane, prefill_tokens: int,
                        decode_tokens: int) -> float:
        """Roofline-price the loser's processed tokens as GPU time
        (same rule feedback runs are charged at), scaled by the losing
        replica's speed — wasted tokens on a 0.5x replica occupied it
        twice as long."""
        if prefill_tokens <= 0 and decode_tokens <= 0:
            return 0.0
        seconds = self.engine.cost.request_seconds(prefill_tokens,
                                                   decode_tokens)
        return seconds / self.engine.replicas[lane.replica].speed

    # ------------------------------------------------------------------
    def finalize(self, ex: QueryExecution, lane: Lane, now: float) -> None:
        """Winning lane done: score, record, and refill the closed loop."""
        ctx = self.bundle.synthesis_context(ex.query, lane.chunk_ids)
        answer = self.generator.generate(ctx, ex.decision.config)
        record = self._append_record(
            ex, now, answer.tokens, lane.chunk_ids,
            f1=answer.f1,
            expected_f1=answer.expected_f1,
            coverage=answer.coverage,
            chunks_clipped=lane.chunks_clipped,
            queueing_delay=(
                (lane.first_admitted - ex.arrival_time)
                if lane.first_admitted is not None
                else 0.0
            ),
            prefill_tokens=lane.prefill_tokens,
            output_tokens=lane.output_tokens,
            replica=lane.replica,
            retrieval_queue_delay=lane.retrieval_queue_delay,
            retrieval_seconds=lane.retrieval_seconds,
            gather_seconds=lane.gather_seconds,
            rerank_seconds=lane.rerank_seconds,
            rerank_queue_delay=lane.rerank_queue_delay,
            hedge_won=(ex.hedged and lane.lane_id == 1),
        )
        if self.result_cache is not None and not ex.cache_hit:
            # Miss path: memoize the full answer so an exact (or
            # near-duplicate, in semantic mode) repeat can skip
            # Retrieve/Rerank/Synthesize. Benefit is the *measured*
            # post-decide latency and the priced GPU time of this
            # query's LLM calls — what a future hit actually saves.
            saved_seconds = now - lane.start_time
            saved_dollars = self.ledger.model.gpu_time(
                self.engine.cluster,
                self.engine.cost.request_seconds(lane.prefill_tokens,
                                                 lane.output_tokens))
            value = CachedAnswer(
                tokens=tuple(answer.tokens),
                f1=answer.f1,
                expected_f1=answer.expected_f1,
                coverage=answer.coverage,
                chunk_ids=tuple(lane.chunk_ids),
                chunks_clipped=lane.chunks_clipped,
            )
            self.cache_result(ex, self.result_probe(ex), value, now,
                              saved_seconds=saved_seconds,
                              saved_dollars=saved_dollars,
                              corpus_version=self.store.corpus_version)
        self._close(ex, record, now, lane)

    def _append_record(self, ex: QueryExecution, now: float, tokens,
                       chunk_ids, **served) -> QueryRecord:
        """Score and append the query's record.

        Builds the fields both finalize paths share from ``ex``;
        ``served`` carries what the path itself served (answer,
        tokens, replica, lane timings). ``tokens`` and ``chunk_ids``
        are what the quality harness scores.
        """
        quality = (self.metrics.score(ex.query, tokens, chunk_ids)
                   if self.metrics is not None else None)
        prep = ex.prep
        decision = ex.decision
        record = QueryRecord(
            query_id=ex.query.query_id,
            policy=self.policy.name,
            dataset=self.bundle.name,
            arrival_time=ex.arrival_time,
            decision_time=ex.decision_time,
            finish_time=now,
            config=decision.config,
            profiler_seconds=prep.api_seconds,
            profiler_dollars=prep.dollars,
            n_chunks_retrieved=len(chunk_ids),
            fell_back=decision.fell_back,
            used_recent_spaces=decision.used_recent_spaces,
            confidence=(
                prep.profile.confidence if prep.profile else None
            ),
            profiler_queue_delay=ex.profiler_queue_delay,
            deadline=ex.deadline,
            hedged=ex.hedged,
            hedge_time=ex.hedge_time,
            wasted_prefill_tokens=ex.wasted_prefill_tokens,
            wasted_decode_tokens=ex.wasted_decode_tokens,
            speculation_seconds=ex.speculation_seconds,
            cache_hit=ex.cache_hit,
            cache_tier=ex.cache_tier,
            cache_stale=ex.cache_stale,
            cache_age_s=ex.cache_age_s,
            cache_lookup_seconds=ex.cache_lookup_seconds,
            **served,
            **_metric_fields(quality),
        )
        self.records.append(record)
        return record

    def _close(self, ex: QueryExecution, record: QueryRecord, now: float,
               lane: Lane | None = None) -> None:
        """Release the query's app pins, report completion to the
        policy, and refill the closed loop."""
        # make_view pinned the query's app id at decide time. A cache
        # hit never admits engine requests, so without this release its
        # pin would leak for the rest of the run.
        self.engine.release_app(ex.query.query_id)
        if lane is not None:
            # A winning hedge lane's pin must not outlive the query.
            self.engine.release_app(lane.app_id)
        self.policy.on_complete(ex.query, record.f1, record.e2e_delay)
        if self._pending_closed:
            nxt = self._pending_closed.popleft()
            self._schedule_arrival(now, nxt.query)

    # ------------------------------------------------------------------
    # Caching (docs/CACHING.md)
    # ------------------------------------------------------------------
    def cache_lookup_hold(self) -> float:
        """Deterministic hold for one combined probe of the enabled
        tiers on the ``cache`` resource. Semantic mode pays a linear
        scan over resident entries, so a fuller cache probes slower."""
        hold = 0.0
        if self.result_cache is not None:
            hold += self.result_cache.lookup_seconds()
        if self.retrieval_cache is not None:
            hold += self.retrieval_cache.lookup_seconds()
        return hold

    def charge_cache_insert(self, now: float) -> None:
        """Inserts contend on the same ``cache`` resource as lookups —
        a write burst delays concurrent probes, which is the honest
        cost of a shared cache."""
        self.cache_resource.request(
            now, CACHE_INSERT_SECONDS, lambda t, waited: None)

    def result_probe(self, ex: QueryExecution) -> tuple[str, object]:
        """Result-tier exact key of ``ex``'s query and chosen config,
        and its semantic probe vector (``None`` in exact mode)."""
        text = ex.query.text
        qvec = (self.store.embed_query(text)
                if self.result_cache.semantic and len(self.store) else None)
        return ResultCache.key_for(text, ex.decision.config.label()), qvec

    def cache_result(self, ex: QueryExecution, probe: tuple[str, object],
                     value: CachedAnswer, now: float, *,
                     saved_seconds: float, saved_dollars: float,
                     corpus_version: int) -> None:
        """Insert ``value`` as ``ex``'s answer in the result tier under
        ``probe`` (from :meth:`result_probe`) and charge the insert on
        the ``cache`` resource."""
        key, qvec = probe
        self.result_cache.insert(
            key, value, now,
            saved_seconds=saved_seconds,
            saved_dollars=saved_dollars,
            corpus_version=corpus_version,
            embedding=qvec,
            config_label=ex.decision.config.label(),
        )
        self.charge_cache_insert(now)

    def stamp_cache_hit(self, ex: QueryExecution, entry, tier: str,
                        now: float) -> None:
        """Surface a hit on ``tier`` on ``ex``'s record."""
        ex.cache_hit = True
        ex.cache_tier = tier
        ex.cache_stale = entry.corpus_version < self.store.corpus_version
        ex.cache_age_s = now - entry.insert_time

    def fetch_k(self, ex: QueryExecution) -> int:
        """How deep ``ex``'s retrieval fetches: the reranker's
        ``fetch_k`` when one is configured, else the chosen
        ``num_chunks``."""
        k = ex.decision.config.num_chunks
        return self.reranker.fetch_k(k) if self.reranker else k

    def retrieval_cache_key(
            self, ex: QueryExecution) -> tuple[str, int, str, int]:
        """Retrieval-tier key of ``ex``'s query at its fetch depth."""
        return RetrievalCache.key_for(
            canonical_query_id(ex.query.query_id), self.store.n_shards,
            self.store.index_label, self.fetch_k(ex))

    def maybe_cache_retrieval(self, lane: Lane, now: float) -> None:
        """Memoize a freshly retrieved top-k chunk-id list.

        Only primary lanes insert (a hedge duplicate retrieves the same
        ids — inserting twice would just burn insert events), and a
        lane that was itself served from the retrieval cache never
        re-inserts its own payload.
        """
        if (self.retrieval_cache is None or lane.lane_id != 0
                or lane.ex.cache_tier == "retrieval"):
            return
        # The payload is copied: SynthesizeStage clips lane.chunk_ids
        # in place and must not mutate the cached value.
        self.retrieval_cache.insert(
            self.retrieval_cache_key(lane.ex), tuple(lane.chunk_ids), now,
            saved_seconds=(lane.retrieval_seconds + lane.gather_seconds
                           + lane.rerank_seconds),
            corpus_version=self.store.corpus_version,
        )
        self.charge_cache_insert(now)

    def finalize_cache_hit(self, ex: QueryExecution, entry, tier: str,
                           now: float) -> None:
        """A result-cache hit: serve the memoized answer immediately.

        The cached token sequence is re-scored against *this* query's
        ground truth — free for exact repeats (identical truth), and
        the honest quality delta for semantic near-matches and stale
        entries, which is how cache staleness becomes a measurable
        quality effect rather than an invisible one.
        """
        ex.done = True
        value = entry.value
        self.stamp_cache_hit(ex, entry, tier, now)
        # The reference tokens come from the query's truth alone, so the
        # context is built without the cached chunks.
        truth = self.bundle.synthesis_context(ex.query, [])
        f1 = token_f1(list(value.tokens), list(truth.ground_truth_tokens()))
        # The *hitting* query scores the *cached* answer and context:
        # exact repeats reproduce the miss-path metrics bit-for-bit
        # (identical truth, tokens, and chunk ids), while semantic and
        # stale hits surface their honest faithfulness/relevancy/recall
        # deltas instead of hiding behind the donor query's scores.
        record = self._append_record(
            ex, now, value.tokens, value.chunk_ids,
            f1=f1,
            expected_f1=value.expected_f1,
            coverage=value.coverage,
            chunks_clipped=value.chunks_clipped,
            queueing_delay=0.0,
            prefill_tokens=0,
            output_tokens=0,
            replica=ex.replica,
        )
        self._close(ex, record, now)

    def cache_stats(self) -> dict[str, CacheStats]:
        """Per-tier counters for enabled tiers (empty when caching is
        off)."""
        stats: dict[str, CacheStats] = {}
        if self.result_cache is not None:
            stats["result"] = self.result_cache.stats
        if self.retrieval_cache is not None:
            stats["retrieval"] = self.retrieval_cache.stats
        return stats

    # ------------------------------------------------------------------
    # Helpers shared by stages
    # ------------------------------------------------------------------
    def resource_stats(self) -> dict[str, ResourceStats]:
        stats = {PROFILER_RESOURCE: self.profiler.stats}
        for resource in self.shard_resources:
            stats[resource.name] = resource.stats
        if self.rerank_resource is not None:
            stats[RERANK_RESOURCE] = self.rerank_resource.stats
        if self.cache_resource is not None:
            stats[CACHE_RESOURCE] = self.cache_resource.stats
        return stats

    def synthesizer(self, config: RAGConfig):
        method = config.synthesis_method
        if method not in self._synthesizers:
            self._synthesizers[method] = make_synthesizer(method)
        return self._synthesizers[method]

    def make_view(self, query: Query) -> SchedulingView:
        engine = self.engine
        # Route (and pin) the query now so the policy sees the KV
        # memory of the replica its calls will actually land on.
        rid = engine.assign_app(query.query_id)
        target = engine.replicas[rid]
        return SchedulingView(
            now=engine.now,
            free_kv_bytes=target.free_kv_bytes(),
            available_kv_bytes=target.available_kv_bytes(),
            kv_bytes_per_token=target.memory.kv_bytes_per_token,
            chunk_tokens=self.bundle.chunk_tokens,
            query_tokens=query.n_tokens,
            answer_tokens=query.answer_tokens_estimate,
            replica_id=rid,
            replica_free_kv_bytes=tuple(
                r.free_kv_bytes() for r in engine.replicas
            ),
            replica_available_kv_bytes=tuple(
                r.available_kv_bytes() for r in engine.replicas
            ),
            replica_speeds=engine.replica_speeds,
            replica_outstanding=engine.replica_outstanding(),
        )

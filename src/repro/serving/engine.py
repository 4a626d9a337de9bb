"""The continuous-batching serving engine (vLLM stand-in).

Discrete-event semantics: each :meth:`ServingEngine.step` simulates one
engine iteration — admit waiting requests under KV-memory admission
control, schedule a chunked prefill batch (at most
:data:`MAX_BATCHED_PREFILL_TOKENS` prompt tokens) plus one decode token
for every running sequence, then advance the clock by the iteration's
duration from the roofline cost model.

Deliberate deviations from vLLM, chosen to keep the simulator honest
but tractable (documented in DESIGN.md):

* A sequence's full KV footprint (prompt + output) is reserved at
  admission, so preemption/swap-out never triggers. Admission is
  therefore slightly conservative, which *under*-states METIS' benefit.
* The final prefill chunk also yields the first output token (as in
  chunked-prefill vLLM).
* Multi-replica serving (``repro.serving.cluster``) advances replicas
  as events on a shared discrete-event loop instead of running
  per-replica threads; replicas never share KV memory or migrate
  sequences, and a request is routed exactly once at submission (no
  work stealing). Real deployments rebalance mid-flight; the
  deterministic event order keeps traces replayable and replica-count
  comparisons exact.
* Cross-replica placement is per *app* (all LLM calls of one RAG query
  stay on one replica), matching the co-location a Parrot-style
  gateway would enforce, rather than per-call scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.costs import RooflineCostModel
from repro.llm.gpu import ClusterSpec
from repro.llm.model import ModelSpec
from repro.serving.kv_cache import BlockManager
from repro.serving.memory import BLOCK_TOKENS, GPUMemoryModel
from repro.serving.policies import make_policy
from repro.serving.request import InferenceRequest, RequestPhase
from repro.util.validation import check_speed

__all__ = ["EngineConfig", "ServingEngine", "StepInfo", "EngineStats"]

# Engine constants (vLLM's defaults).
#: Most sequences in one running batch.
MAX_NUM_SEQS = 48
#: Prompt tokens one iteration may prefill, summed over its chunks.
MAX_BATCHED_PREFILL_TOKENS = 2_048
#: Share of the KV blocks a non-empty engine keeps free at admission.
WATERMARK_FRAC = 0.01


@dataclass(frozen=True)
class EngineConfig:
    """Static engine parameters: the served model, its hardware, an
    optional KV-pool cap and the admission-order policy name."""

    model: ModelSpec
    cluster: ClusterSpec
    kv_pool_cap_bytes: float | None = None
    policy: str = "fcfs"


@dataclass
class StepInfo:
    """What one engine iteration did.

    Plain (non-frozen) dataclass: one is built per engine iteration on
    the hot path, and frozen-dataclass ``__init__`` pays an
    ``object.__setattr__`` per field. Treat instances as immutable."""

    start: float
    duration: float
    prefill_tokens: int
    n_prefill_seqs: int
    n_decode_seqs: int
    kv_tokens_in_batch: int
    admitted: tuple[InferenceRequest, ...]
    finished: tuple[InferenceRequest, ...]

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class EngineStats:
    """Cumulative engine counters (cost accounting, diagnostics).

    Snapshot object: :attr:`ServingEngine.stats` accumulates raw
    counters on plain attributes during the run (the hot path never
    touches this dataclass) and materializes an ``EngineStats`` on
    access — derived quantities like ``peak_kv_utilization`` are
    computed at report time from the integer block peak."""

    iterations: int = 0
    busy_seconds: float = 0.0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    requests_finished: int = 0
    peak_kv_utilization: float = 0.0
    admission_stalls: int = 0  # iterations where the queue head could not fit
    wakeups: int = 0  # idle -> busy transitions (event-driven wake events)
    requests_cancelled: int = 0  # speculation losers torn down mid-flight
    #: tokens already processed for requests that were then cancelled —
    #: the engine-side measure of speculative (wasted) work
    cancelled_prefill_tokens: int = 0
    cancelled_decode_tokens: int = 0


class ServingEngine:
    """Continuous-batching engine over a simulated GPU cluster.

    ``speed`` is a hardware-throughput multiplier: every iteration's
    roofline duration is divided by it, so ``speed=0.5`` models a
    replica on half-rate hardware (iterations take twice as long).
    The default 1.0 divides by the float literal ``1.0``, which is
    exact in IEEE arithmetic — homogeneous traces are byte-identical
    to the pre-``speed`` engine.
    """

    def __init__(self, config: EngineConfig, speed: float = 1.0) -> None:
        self.config = config
        self.speed = check_speed("speed", speed)
        self.memory = GPUMemoryModel(
            config.model,
            config.cluster,
            kv_pool_cap_bytes=config.kv_pool_cap_bytes,
        )
        self.blocks = BlockManager(
            n_blocks=self.memory.n_blocks,
            block_tokens=BLOCK_TOKENS,
        )
        self.cost = RooflineCostModel(config.model, config.cluster)
        self.policy = make_policy(config.policy)
        self.now = 0.0
        self._waiting: list[InferenceRequest] = []
        self._running: list[InferenceRequest] = []
        self._watermark_blocks = int(self.blocks.n_blocks * WATERMARK_FRAC)
        # Raw stats counters (see EngineStats: the dataclass is built
        # lazily by the ``stats`` property at report time).
        self._iterations = 0
        self._busy_seconds = 0.0
        self._prefill_tokens = 0
        self._decode_tokens = 0
        self._requests_finished = 0
        self._peak_used_blocks = 0
        self._admission_stalls = 0
        self._wakeups = 0
        self._requests_cancelled = 0
        self._cancelled_prefill_tokens = 0
        self._cancelled_decode_tokens = 0
        # Hot-path constants: static per config, cached so submit() and
        # step() never re-derive them through property chains. The
        # roofline terms keep the exact arithmetic op order of
        # RooflineCostModel (bit-identical durations).
        self._max_context = config.model.max_context
        self._kv_pool_tokens = self.memory.kv_pool_tokens
        self._flops_per_token = config.model.flops_per_token
        self._compute_speedup = config.model.quantization.compute_speedup
        self._effective_flops = config.cluster.effective_flops
        self._weight_bytes = config.model.weight_bytes
        self._kv_bytes_per_token = config.model.kv_bytes_per_token
        self._mem_bandwidth = config.cluster.mem_bandwidth
        self._step_overhead_s = self.cost.step_overhead_s
        self._per_seq_overhead_s = self.cost.per_seq_overhead_s
        # Admission-order cache: a stall-bound engine re-sorts an
        # unchanged waiting queue every iteration otherwise. The version
        # bumps whenever ``_waiting`` mutates (submit / cancel / admit);
        # only ``waiting_only`` policies (FCFS) are cacheable — app-aware
        # order shifts with the running set every step.
        self._waiting_version = 0
        self._ordered_version = -1
        self._ordered_cache: list[InferenceRequest] = []
        # Stall memo: admission's outcome is a pure function of
        # (waiting queue, free blocks, running count) under a
        # waiting_only policy, so a step that stalled head-of-line
        # repeats the identical stall until one of those moves — skip
        # the admission loop (but keep counting the stall).
        self._stall_key: tuple[int, int, int] | None = None
        # Incremental batch-composition counters (ints, so the sums are
        # bit-identical to recomputing them): how many running requests
        # are still prefilling, and the decode-phase KV token total
        # (sum of prefilled + decoded over DECODE-phase requests). They
        # buy _build_iteration a decode-only fast path that skips the
        # per-request phase walk.
        self._n_prefill_phase = 0
        self._decode_kv_tokens = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Cumulative counters as a snapshot (derived stats computed here)."""
        return EngineStats(
            iterations=self._iterations,
            busy_seconds=self._busy_seconds,
            prefill_tokens=self._prefill_tokens,
            decode_tokens=self._decode_tokens,
            requests_finished=self._requests_finished,
            peak_kv_utilization=self._peak_used_blocks / self.blocks.n_blocks,
            admission_stalls=self._admission_stalls,
            wakeups=self._wakeups,
            requests_cancelled=self._requests_cancelled,
            cancelled_prefill_tokens=self._cancelled_prefill_tokens,
            cancelled_decode_tokens=self._cancelled_decode_tokens,
        )

    @property
    def model(self) -> ModelSpec:
        return self.config.model

    @property
    def cluster(self) -> ClusterSpec:
        return self.config.cluster

    @property
    def waiting(self) -> tuple[InferenceRequest, ...]:
        return tuple(self._waiting)

    @property
    def running(self) -> tuple[InferenceRequest, ...]:
        return tuple(self._running)

    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    @property
    def outstanding(self) -> int:
        """Requests on this engine (waiting + running) — the queue-depth
        load proxy routers and deadline-risk speculation consume."""
        return len(self._waiting) + len(self._running)

    def free_kv_bytes(self) -> float:
        """Instantaneous free KV memory (the paper's ``get_free_memory``)."""
        return (
            self.blocks.free_blocks
            * self.blocks.block_tokens
            * self.memory.kv_bytes_per_token
        )

    def waiting_demand_bytes(self) -> float:
        """KV memory already promised to queued-but-unadmitted requests."""
        tokens = sum(r.total_tokens for r in self._waiting)
        return self.memory.tokens_to_bytes(tokens)

    def available_kv_bytes(self) -> float:
        """Free KV memory net of queued demand — what a *new* request can
        claim without displacing anyone (METIS' scheduling signal)."""
        return max(0.0, self.free_kv_bytes() - self.waiting_demand_bytes())

    # ------------------------------------------------------------------
    # Submission / time control
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> InferenceRequest:
        """Queue a request; validates it can ever be served."""
        total_tokens = request.prompt_tokens + request.output_tokens
        if total_tokens > self._max_context:
            raise ValueError(
                f"request needs {total_tokens} tokens of context; "
                f"{self.model.name} supports {self.model.max_context}"
            )
        if total_tokens > self._kv_pool_tokens:
            raise ValueError(
                f"request KV footprint ({total_tokens} tokens) exceeds "
                f"the KV pool ({self._kv_pool_tokens} tokens)"
            )
        if request.phase is not RequestPhase.WAITING:
            raise ValueError(f"request already scheduled: {request!r}")
        if not (self._waiting or self._running):
            self._wakeups += 1
        self._waiting.append(request)
        self._waiting_version += 1
        return request

    def advance_to(self, t: float) -> None:
        """Jump the clock forward to ``t`` (idle time between arrivals)."""
        if t > self.now:
            self.now = t

    def cancel(self, request: InferenceRequest) -> bool:
        """Tear down an in-flight request (the speculation-loser path).

        A ``WAITING`` request is removed from the queue before it ever
        claims memory; a ``PREFILL``/``DECODE`` request is evicted from
        the running batch and its KV block reservation is freed
        immediately. ``on_finish`` never fires for a cancelled request
        — the caller owns whatever continuation the request carried.
        Returns ``False`` (untouched) for requests that already
        finished, were already cancelled, or were never submitted here.

        Must not be called from within this engine's own :meth:`step`
        (completion callbacks cancel work on *other* replicas; the
        iteration's prefill plan holds direct references that a
        same-replica eviction would corrupt).
        """
        if request.phase is RequestPhase.WAITING:
            try:
                self._waiting.remove(request)
            except ValueError:
                return False
            self._waiting_version += 1
        elif request.phase in (RequestPhase.PREFILL, RequestPhase.DECODE):
            if request not in self._running:
                return False
            self.blocks.free(request.request_id)
            self._running.remove(request)
            if request.phase is RequestPhase.PREFILL:
                self._n_prefill_phase -= 1
            else:
                self._decode_kv_tokens -= (request.prefilled_tokens
                                           + request.decoded_tokens)
        else:
            return False
        request.phase = RequestPhase.CANCELLED
        request.cancel_time = self.now
        self._requests_cancelled += 1
        self._cancelled_prefill_tokens += request.prefilled_tokens
        self._cancelled_decode_tokens += request.decoded_tokens
        return True

    # ------------------------------------------------------------------
    # The iteration
    # ------------------------------------------------------------------
    def step(self, build_info: bool = True) -> StepInfo | list:
        """Run one engine iteration; returns what happened.

        Raises ``RuntimeError`` when there is no work (callers should
        check :meth:`has_work`).

        ``build_info=False`` is the quiet fast path for drivers with no
        step observer: the iteration is identical, but the return value
        is the raw finished-request list instead of a :class:`StepInfo`
        (which would be built only to be discarded).
        """
        if not (self._waiting or self._running):
            raise RuntimeError("step() called on an idle engine")
        if (not build_info and not self._waiting
                and self._n_prefill_phase == 0):
            # Saturated steady state (decode-only batch, empty queue):
            # _admit is an empty-queue no-op and _build_iteration would
            # take its decode fast path, so both calls are skipped and
            # the decode iteration runs inline. Same float op order as
            # the general path below (prefill busy is exactly 0.0, and
            # ``0.0 + x == x``), so durations are bit-identical.
            kv_tokens = self._decode_kv_tokens
            decode_seqs = self._running[:]
            n_decode = len(decode_seqs)
            busy = ((self._weight_bytes
                     + kv_tokens * self._kv_bytes_per_token)
                    / self._mem_bandwidth
                    + n_decode * self._per_seq_overhead_s)
            duration = (0.0 if busy == 0.0
                        else busy + self._step_overhead_s) / self.speed
            self.now += duration
            # _apply_iteration's decode loop, inlined (empty prefill
            # plan). The phase check guards against an on_finish
            # callback cancelling a hedge sibling on this same engine
            # mid-loop — only possible once something has finished, so
            # it is skipped while ``finished`` is empty.
            finished: list[InferenceRequest] = []
            decode_phase = RequestPhase.DECODE
            n_decoded = 0
            finish = self._finish
            for request in decode_seqs:
                if finished and request.phase is not decode_phase:
                    continue
                n_decoded += 1
                tokens = request.decoded_tokens + 1
                request.decoded_tokens = tokens
                if tokens >= request.output_tokens:
                    finish(request, finished)
            self._decode_kv_tokens += n_decoded
            self._iterations += 1
            self._busy_seconds += duration
            self._decode_tokens += n_decode
            self._requests_finished += len(finished)
            # No allocations since the last peak sample (admission is
            # the only place used_blocks grows), so used <= peak holds
            # and the general path's peak update would be a no-op.
            return finished
        admitted = self._admit()
        prefill_plan, decode_seqs, prefill_tokens, kv_tokens = \
            self._build_iteration()
        n_decode = len(decode_seqs)
        # Inlined roofline (same arithmetic op order as
        # RooflineCostModel.iteration_seconds — bit-identical durations).
        if prefill_tokens:
            flops = prefill_tokens * self._flops_per_token
            flops /= self._compute_speedup
            busy = flops / self._effective_flops
        else:
            busy = 0.0
        if n_decode:
            bytes_read = (self._weight_bytes
                          + kv_tokens * self._kv_bytes_per_token)
            busy = busy + (bytes_read / self._mem_bandwidth
                           + n_decode * self._per_seq_overhead_s)
        duration = (0.0 if busy == 0.0
                    else busy + self._step_overhead_s) / self.speed
        start = self.now
        self.now += duration

        finished = self._apply_iteration(prefill_plan, decode_seqs)

        self._iterations += 1
        self._busy_seconds += duration
        self._prefill_tokens += prefill_tokens
        self._decode_tokens += n_decode
        self._requests_finished += len(finished)
        used = self.blocks.used_blocks
        if used > self._peak_used_blocks:
            self._peak_used_blocks = used
        if not build_info:
            return finished
        return StepInfo(
            start=start,
            duration=duration,
            prefill_tokens=prefill_tokens,
            n_prefill_seqs=len(prefill_plan),
            n_decode_seqs=n_decode,
            kv_tokens_in_batch=kv_tokens,
            admitted=tuple(admitted),
            finished=tuple(finished),
        )

    def _admit(self) -> list[InferenceRequest]:
        """Admit waiting requests in policy order until one doesn't fit.

        Stopping at the first misfit preserves the policy's ordering
        guarantee (no starvation) — and produces the head-of-line
        blocking that METIS' memory-aware configuration selection is
        designed to avoid.
        """
        admitted: list[InferenceRequest] = []
        waiting = self._waiting
        running = self._running
        # A full batch admits nothing, and the loop below would stop at
        # its first request without counting a stall.
        if not waiting or len(running) >= MAX_NUM_SEQS:
            return admitted
        blocks = self.blocks
        prefill_phase = RequestPhase.PREFILL
        if self.policy.waiting_only:
            key = (self._waiting_version, blocks.free_blocks, len(running))
            if key == self._stall_key:
                self._admission_stalls += 1
                return admitted
            if self._ordered_version != self._waiting_version:
                self._ordered_cache = self.policy.order(waiting, running)
                self._ordered_version = self._waiting_version
            ordered = self._ordered_cache
        else:
            # Whatever comes first in the order needs at least as many
            # blocks as the smallest waiting request: when that one
            # does not fit, the loop below would count one stall at its
            # first request, so skip the (running-set dependent) sort.
            smallest = min(r.prompt_tokens + r.output_tokens for r in waiting)
            if not blocks.can_allocate(
                    smallest, self._watermark_blocks if running else 0):
                self._admission_stalls += 1
                return admitted
            key = None
            ordered = self.policy.order(waiting, running)
        for request in ordered:
            if len(running) >= MAX_NUM_SEQS:
                break
            # An empty engine always admits its queue head (ignore the
            # watermark) — otherwise a pool-sized request could stall
            # forever against its own reserve.
            watermark = self._watermark_blocks if running else 0
            total_tokens = request.prompt_tokens + request.output_tokens
            if not blocks.can_allocate(total_tokens, watermark):
                self._admission_stalls += 1
                if key is not None and not admitted:
                    self._stall_key = key
                break
            blocks.allocate(request.request_id, total_tokens)
            request.phase = prefill_phase
            request.admitted_time = self.now
            waiting.remove(request)
            running.append(request)
            admitted.append(request)
        if admitted:
            self._waiting_version += 1
            self._n_prefill_phase += len(admitted)
        return admitted

    def _build_iteration(
        self,
    ) -> tuple[list[tuple[InferenceRequest, int]], list[InferenceRequest],
               int, int]:
        """Decide this iteration's prefill chunks and decode set.

        Returns ``(prefill_plan, decode_seqs, prefill_tokens,
        kv_tokens_in_batch)`` — token totals are accumulated in the
        same pass so the step loop never re-walks the batch.
        """
        if self._n_prefill_phase == 0:
            # Decode-only fast path: every running request is in
            # DECODE, and the incremental counters already hold the
            # batch totals — identical to the walk below (int sums).
            return [], self._running[:], 0, self._decode_kv_tokens
        prefilling: list[InferenceRequest] = []
        decoding: list[InferenceRequest] = []
        kv_tokens = 0
        prefill_phase = RequestPhase.PREFILL
        for r in self._running:
            if r.phase is prefill_phase:
                prefilling.append(r)
            else:  # running requests are PREFILL or DECODE only
                decoding.append(r)
                kv_tokens += r.prefilled_tokens + r.decoded_tokens
        budget = MAX_BATCHED_PREFILL_TOKENS
        plan: list[tuple[InferenceRequest, int]] = []
        prefill_tokens = 0
        for request in prefilling:
            if budget <= 0:
                break
            remaining = request.prompt_tokens - request.prefilled_tokens
            chunk = remaining if remaining < budget else budget
            plan.append((request, chunk))
            budget -= chunk
            prefill_tokens += chunk
        return plan, decoding, prefill_tokens, kv_tokens

    def _apply_iteration(
        self,
        prefill_plan: list[tuple[InferenceRequest, int]],
        decode_seqs: list[InferenceRequest],
    ) -> list[InferenceRequest]:
        finished: list[InferenceRequest] = []
        decode_phase = RequestPhase.DECODE
        now = self.now
        for request, chunk in prefill_plan:
            request.prefilled_tokens += chunk
            assert request.prefilled_tokens <= request.prompt_tokens
            if request.prefilled_tokens == request.prompt_tokens:
                request.phase = decode_phase
                request.prefill_done_time = now
                # The last prefill chunk emits the first output token.
                request.decoded_tokens += 1
                self._n_prefill_phase -= 1
                self._decode_kv_tokens += (request.prefilled_tokens
                                           + request.decoded_tokens)
                if request.decoded_tokens >= request.output_tokens:
                    self._finish(request, finished)
        # The per-token KV growth is summed locally and added once —
        # integer addition commutes with _finish/cancel retirements, so
        # the post-iteration total is unchanged.
        n_decoded = 0
        finish = self._finish
        for request in decode_seqs:
            if request.phase is not decode_phase:
                continue  # finished during prefill bookkeeping above
            n_decoded += 1
            tokens = request.decoded_tokens + 1
            request.decoded_tokens = tokens
            if tokens >= request.output_tokens:
                finish(request, finished)
        self._decode_kv_tokens += n_decoded
        return finished

    def _finish(self, request: InferenceRequest,
                finished: list[InferenceRequest]) -> None:
        request.phase = RequestPhase.FINISHED
        request.finish_time = self.now
        # Finishing requests are always DECODE phase (the transition in
        # _apply_iteration runs first) — retire their KV contribution.
        self._decode_kv_tokens -= (request.prefilled_tokens
                                   + request.decoded_tokens)
        self.blocks.free(request.request_id)
        self._running.remove(request)
        finished.append(request)
        if request.on_finish is not None:
            request.on_finish(request, self.now)

    # ------------------------------------------------------------------
    def run_until_idle(self, max_iterations: int = 1_000_000) -> int:
        """Step until all submitted work completes; returns iterations."""
        n = 0
        while self.has_work():
            self.step()
            n += 1
            if n >= max_iterations:
                raise RuntimeError(
                    f"engine did not drain within {max_iterations} iterations"
                )
        return n

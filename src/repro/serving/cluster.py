"""Serving fleet: N engine replicas behind a load-aware router.

Every run is served by a :class:`ClusterEngine`; a single GPU is a
one-replica fleet. The cluster owns N independent
:class:`ServingEngine` replicas that advance as *first-class events*
on the shared :class:`~repro.sim.kernel.EventLoop` (via
:meth:`ClusterEngine.attach` and a
:class:`~repro.sim.driver.StepDriver`): while any replica has work,
one armed step event sits at the cluster frontier — the minimum
busy-replica clock — and each firing advances the lagging busy replica
(ties broken by replica index). Idle replicas hold no events (they
*sleep*); admission wakes them through the cluster's ``wake_hook``,
and a submission routed to an idle replica of a busy cluster
*regresses* the frontier, which the driver tracks by rescheduling the
armed event.

:meth:`ClusterEngine.step_and_frontier` is that one step, so a
hand-rolled loop that calls it (the tests' lockstep and golden-trace
pins) and the event-driven path produce byte-identical traces. A
one-replica cluster steps exactly like the engine it wraps, which
``tests/test_cluster_golden.py`` pins down.

Replicas may run at heterogeneous speeds (``replica_speeds``: per-
replica hardware-throughput multipliers, e.g. ``(1.0, 0.5)`` for a
fast/slow pair); each replica's iterations simply take
``roofline / speed`` seconds and the event order follows from the
clocks. Homogeneous fleets (the default) are float-exact with the
pre-``speed`` cluster.

Requests are placed by a pluggable :class:`Router`. Routing is sticky
per application (``app_id``): every LLM call of one RAG query lands on
the same replica, which keeps a query's mappers and reducer co-located
(Parrot-style app-aware batching stays meaningful) and lets METIS'
joint scheduler prune configurations against *that* replica's free KV
memory. Requests with an empty ``app_id`` are routed independently.

Router contracts (see docs/CLUSTER.md):

* ``select`` is called once per new app (or per unpinned request) and
  must return a replica index in ``[0, n_replicas)``.
* Routers may inspect replica load (queue depth, KV occupancy) but must
  not mutate replicas.
* All routers are deterministic given their construction arguments;
  :class:`PowerOfTwoRouter` draws from a named ``repro.util.rng``
  stream, so a root seed fixes its choices.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.serving.engine import EngineConfig, EngineStats, ServingEngine
from repro.serving.request import InferenceRequest
from repro.util.rng import stream
from repro.util.validation import (
    check_positive,
    check_replica_speeds,
    check_speed,
)

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim -> serving)
    from repro.sim import EventLoop, StepDriver

__all__ = [
    "ClusterEngine",
    "LeastKVLoadRouter",
    "LeastOutstandingRouter",
    "PowerOfTwoRouter",
    "ReplicaSnapshot",
    "RoundRobinRouter",
    "Router",
    "ROUTER_NAMES",
    "make_router",
]


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class Router(ABC):
    """Picks the replica a new app (or unpinned request) is placed on."""

    name: str = "base"

    @abstractmethod
    def select(self, replicas: Sequence[ServingEngine]) -> int:
        """Return the target replica index in ``[0, len(replicas))``."""

    @staticmethod
    def outstanding(replica: ServingEngine) -> int:
        """Load proxy: requests on the replica (waiting + running)."""
        return replica.outstanding


class RoundRobinRouter(Router):
    """Cycle through replicas regardless of load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, replicas: Sequence[ServingEngine]) -> int:
        choice = self._next % len(replicas)
        self._next = (self._next + 1) % len(replicas)
        return choice


class LeastOutstandingRouter(Router):
    """Replica with the fewest outstanding requests (ties: lowest index)."""

    name = "least-outstanding"

    def select(self, replicas: Sequence[ServingEngine]) -> int:
        return min(range(len(replicas)),
                   key=lambda i: (self.outstanding(replicas[i]), i))


class LeastKVLoadRouter(Router):
    """Replica with the most KV memory still claimable by new work
    (free pool net of queued demand — METIS' scheduling signal), ties
    broken by fewest outstanding requests then lowest index."""

    name = "least-kv-load"

    def select(self, replicas: Sequence[ServingEngine]) -> int:
        return min(
            range(len(replicas)),
            key=lambda i: (-replicas[i].available_kv_bytes(),
                           self.outstanding(replicas[i]), i),
        )


class PowerOfTwoRouter(Router):
    """Power-of-two-choices: sample two distinct replicas from a named
    rng stream, place on the less loaded one (classic Mitzenmacher
    load balancing — near-best balance at O(1) probe cost)."""

    name = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = stream(seed, "cluster", "router", "p2c")

    def select(self, replicas: Sequence[ServingEngine]) -> int:
        n = len(replicas)
        if n == 1:
            return 0
        i, j = sorted(int(x) for x in
                      self._rng.choice(n, size=2, replace=False))
        if self.outstanding(replicas[j]) < self.outstanding(replicas[i]):
            return j
        return i


_ROUTERS = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingRouter.name: LeastOutstandingRouter,
    LeastKVLoadRouter.name: LeastKVLoadRouter,
    PowerOfTwoRouter.name: PowerOfTwoRouter,
}

#: Router names accepted by :func:`make_router` (and the CLI).
ROUTER_NAMES: tuple[str, ...] = tuple(sorted(_ROUTERS))


def make_router(name: str, seed: int = 0) -> Router:
    """Instantiate a router by name (see :data:`ROUTER_NAMES`)."""
    try:
        cls = _ROUTERS[name]
    except KeyError:
        known = ", ".join(ROUTER_NAMES)
        raise ValueError(f"unknown router {name!r}; known: {known}") from None
    if cls is PowerOfTwoRouter:
        return PowerOfTwoRouter(seed=seed)
    return cls()


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSnapshot:
    """Instantaneous per-replica load figures (for reports/routers)."""

    replica_id: int
    now: float
    queue_depth: int
    running: int
    kv_utilization: float
    free_kv_bytes: float
    available_kv_bytes: float
    stats: EngineStats
    speed: float = 1.0
    #: Lifecycle state: ``active`` / ``draining`` / ``retired``.
    state: str = "active"


class ClusterEngine:
    """N independent serving replicas advanced as events.

    The one engine shape the experiment runner and the query pipeline
    drive: a :class:`~repro.sim.kernel.Steppable` (``now`` /
    ``has_work`` / ``advance_and_observe`` / ``frontier`` /
    ``step_and_frontier``) plus routing, placement and the elastic-fleet
    lifecycle. :meth:`attach` puts it on an event loop.

    ``replica_speeds`` gives each replica a hardware-throughput
    multiplier (see :class:`ServingEngine`); its length must equal
    ``n_replicas`` — a mismatch fails fast with the offending counts.
    """

    def __init__(
        self,
        config: EngineConfig,
        n_replicas: int = 1,
        router: str | Router = "least-kv-load",
        seed: int = 0,
        replica_speeds: Sequence[float] | None = None,
    ) -> None:
        check_positive("n_replicas", n_replicas)
        n_replicas = int(n_replicas)
        speeds = check_replica_speeds(replica_speeds, n_replicas)
        self.config = config
        self.replicas = [ServingEngine(config, speed=s) for s in speeds]
        self.replica_speeds: tuple[float, ...] = speeds
        # Elastic-fleet lifecycle (driven by repro.workload.Autoscaler).
        # The initial fleet is provisioned at t=0 and active; replicas
        # are never removed from the list — retirement keeps indices
        # (and with them pins, assignments, reports) stable.
        self._state: list[str] = ["active"] * n_replicas
        self.provisioned_at: list[float] = [0.0] * n_replicas
        self.retired_at: list[float | None] = [None] * n_replicas
        self.router = (make_router(router, seed=seed)
                       if isinstance(router, str) else router)
        self._pins: dict[str, int] = {}
        self._assignments: dict[int, int] = {}  # request_id -> replica
        #: Bumped whenever a replica's busy set / clock can change
        #: other than by a step (submit, cancel, add_replica) —
        #: lets ``step_and_frontier`` reuse its pre-step scan when the
        #: stepped replica was provably the only thing that moved.
        self._busy_version = 0
        #: Called after every ``submit`` (admission may need a wake /
        #: frontier re-arm); set by :meth:`attach`.
        self.wake_hook: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def model(self):
        return self.replicas[0].model

    @property
    def memory(self):
        return self.replicas[0].memory

    @property
    def cost(self):
        return self.replicas[0].cost

    @property
    def cluster(self):
        """The (per-replica) GPU cluster spec, for cost accounting."""
        return self.replicas[0].cluster

    @property
    def now(self) -> float:
        """The cluster frontier.

        While any replica is busy this is the *earliest* busy replica
        clock (the simulation frontier that must advance next — and
        the timestamp of the armed step event in event-driven mode);
        when the cluster is idle it is the latest time any replica
        reached. Note the frontier is not monotone: admission to an
        idle replica of a busy cluster pulls it backwards.
        """
        busy_min = _INF
        idle_max = float("-inf")
        for r in self.replicas:
            rn = r.now
            if r._waiting or r._running:
                if rn < busy_min:
                    busy_min = rn
            elif rn > idle_max:
                idle_max = rn
        if busy_min != _INF:
            return busy_min
        return idle_max

    @property
    def stats(self) -> EngineStats:
        """Cluster-aggregate counters (peak KV is the max over replicas)."""
        agg = EngineStats()
        for r in self.replicas:
            stats = r.stats
            agg.iterations += stats.iterations
            agg.busy_seconds += stats.busy_seconds
            agg.prefill_tokens += stats.prefill_tokens
            agg.decode_tokens += stats.decode_tokens
            agg.requests_finished += stats.requests_finished
            agg.admission_stalls += stats.admission_stalls
            agg.wakeups += stats.wakeups
            agg.requests_cancelled += stats.requests_cancelled
            agg.cancelled_prefill_tokens += stats.cancelled_prefill_tokens
            agg.cancelled_decode_tokens += stats.cancelled_decode_tokens
            agg.peak_kv_utilization = max(agg.peak_kv_utilization,
                                          stats.peak_kv_utilization)
        return agg

    def has_work(self) -> bool:
        for r in self.replicas:
            if r._waiting or r._running:
                return True
        return False

    def frontier(self) -> float | None:
        """Fused ``has_work``/``now`` probe for the StepDriver.

        One replica scan returning the earliest busy replica clock (==
        :attr:`now` whenever the cluster has work), or ``None`` when
        every replica is idle — halves the per-arm scan cost versus
        calling ``has_work()`` and ``now`` separately.
        """
        best = _INF
        for r in self.replicas:
            if (r._waiting or r._running) and r.now < best:
                best = r.now
        return None if best == _INF else best

    def replica_outstanding(self) -> tuple[int, ...]:
        """Per-replica outstanding-request counts (waiting + running).

        The single authoritative queue-depth signal under the
        event-driven driver: routers, the scheduling view, and the
        deadline-risk speculation policy all read this instead of
        recomputing it from the replica lists ad hoc.
        """
        return tuple(r.outstanding for r in self.replicas)

    def snapshots(self) -> tuple[ReplicaSnapshot, ...]:
        return tuple(
            ReplicaSnapshot(
                replica_id=i,
                now=r.now,
                queue_depth=len(r.waiting),
                running=len(r.running),
                kv_utilization=r.blocks.utilization(),
                free_kv_bytes=r.free_kv_bytes(),
                available_kv_bytes=r.available_kv_bytes(),
                stats=r.stats,
                speed=r.speed,
                state=self._state[i],
            )
            for i, r in enumerate(self.replicas)
        )

    # ------------------------------------------------------------------
    # Elastic fleet lifecycle (active -> draining -> retired)
    # ------------------------------------------------------------------
    def is_active(self, replica_id: int) -> bool:
        """Whether ``replica_id`` currently accepts new placements."""
        return self._state[replica_id] == "active"

    @property
    def n_active(self) -> int:
        return self._state.count("active")

    def active_replica_ids(self) -> tuple[int, ...]:
        """Replicas eligible for new apps, hedges, and pins."""
        return tuple(i for i, s in enumerate(self._state) if s == "active")

    def draining_replica_ids(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self._state) if s == "draining")

    def add_replica(self, at: float, speed: float = 1.0) -> int:
        """Provision a fresh replica whose clock starts at ``at``.

        The replica joins active (routable immediately) but idle — it
        holds no events until work is routed to it, so adding capacity
        never perturbs the existing schedule by itself.
        """
        speed = check_speed("speed", speed)
        engine = ServingEngine(self.config, speed=speed)
        engine.advance_to(at)
        self.replicas.append(engine)
        self._busy_version += 1
        self.replica_speeds = self.replica_speeds + (float(speed),)
        self._state.append("active")
        self.provisioned_at.append(float(at))
        self.retired_at.append(None)
        return len(self.replicas) - 1

    def begin_drain(self, replica_id: int) -> None:
        """Stop routing new work to a replica; it keeps what it holds.

        Draining is the first half of drain-before-retire: the replica
        finishes its outstanding requests (and keeps serving apps
        pinned to it) but receives nothing new. At least one replica
        must stay active — a fleet with zero routable replicas would
        deadlock admission.
        """
        if self._state[replica_id] != "active":
            raise ValueError(
                f"replica {replica_id} is {self._state[replica_id]}, "
                "not active; only active replicas can begin draining"
            )
        if self.n_active <= 1:
            raise ValueError(
                "cannot drain the last active replica; the cluster "
                "needs at least one routable replica"
            )
        self._state[replica_id] = "draining"

    def cancel_drain(self, replica_id: int) -> None:
        """Reactivate a draining replica (instant, free scale-up)."""
        if self._state[replica_id] != "draining":
            raise ValueError(
                f"replica {replica_id} is {self._state[replica_id]}, "
                "not draining; nothing to cancel"
            )
        self._state[replica_id] = "active"

    def can_retire(self, replica_id: int) -> bool:
        """Whether a draining replica has fully unwound.

        True only when nothing would be stranded: no outstanding
        request (which also covers in-flight hedge lanes and their KV
        reservations) and no app still pinned to the replica.
        """
        if self._state[replica_id] != "draining":
            return False
        if self.replicas[replica_id].outstanding > 0:
            return False
        return replica_id not in self._pins.values()

    def retire(self, replica_id: int, at: float) -> None:
        """Remove a drained replica from the fleet (terminal).

        The replica stays in ``self.replicas`` so indices remain
        stable, but it is unroutable and its provisioned-capacity
        clock stops at ``at`` (see :meth:`provisioned_seconds`).
        """
        if not self.can_retire(replica_id):
            raise ValueError(
                f"replica {replica_id} cannot retire: state="
                f"{self._state[replica_id]!r}, outstanding="
                f"{self.replicas[replica_id].outstanding}, pinned_apps="
                f"{sorted(a for a, r in self._pins.items() if r == replica_id)}"
            )
        self._state[replica_id] = "retired"
        self.retired_at[replica_id] = float(at)

    def provisioned_seconds(self, end: float) -> list[float]:
        """Per-replica seconds of provisioned capacity over ``[0, end]``.

        Each replica is billed from its provisioning time until it
        retired (or until ``end`` while it never did) — the basis for
        idle-capacity pricing in the cost ledger.
        """
        out = []
        for start, stop in zip(self.provisioned_at, self.retired_at):
            effective_stop = min(stop, end) if stop is not None else end
            out.append(max(0.0, effective_stop - start))
        return out

    # ------------------------------------------------------------------
    # Routing / placement
    # ------------------------------------------------------------------
    def assign_app(self, app_id: str) -> int:
        """Route an app to a replica (sticky: later calls reuse the pin)."""
        if not app_id:
            raise ValueError("assign_app requires a non-empty app_id")
        rid = self._pins.get(app_id)
        if rid is None:
            rid = self._checked_select()
            self._pins[app_id] = rid
        return rid

    def pin_app(self, app_id: str, replica_id: int) -> None:
        """Force an app onto a replica (controller re-placement)."""
        if not 0 <= replica_id < self.n_replicas:
            raise ValueError(
                f"replica_id must be in [0, {self.n_replicas}), got {replica_id}"
            )
        if self._state[replica_id] != "active":
            raise ValueError(
                f"cannot pin app {app_id!r} to replica {replica_id}: it is "
                f"{self._state[replica_id]}, not active"
            )
        self._pins[app_id] = replica_id

    def replica_of_app(self, app_id: str) -> int | None:
        return self._pins.get(app_id)

    def release_app(self, app_id: str) -> None:
        """Drop an app's pin once its calls have drained (bounds state)."""
        self._pins.pop(app_id, None)

    def replica_of_request(self, request_id: int) -> int | None:
        """Placement of an in-flight request (None once it finishes —
        completed entries are pruned to bound tracking state)."""
        return self._assignments.get(request_id)

    def _checked_select(self) -> int:
        active = self.active_replica_ids()
        if not active:
            raise RuntimeError(
                "no active replica to route to; the autoscaler must keep "
                "at least one replica active"
            )
        view = [self.replicas[i] for i in active]
        local = self.router.select(view)
        if not 0 <= local < len(view):
            raise RuntimeError(
                f"router {self.router.name!r} returned replica {local}; "
                f"{len(view)} replicas are active"
            )
        return active[local]

    # ------------------------------------------------------------------
    # Driving surface
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> InferenceRequest:
        """Route and queue a request (sticky per ``app_id``)."""
        if request.app_id:
            rid = self.assign_app(request.app_id)
        else:
            rid = self._checked_select()
        submitted = self.replicas[rid].submit(request)
        self._assignments[request.request_id] = rid
        self._busy_version += 1
        if self.wake_hook is not None:
            # Admission may wake an idle cluster or regress the
            # frontier (an idle replica's clock trails busy ones);
            # the StepDriver (re-)arms the step event accordingly.
            self.wake_hook()
        return submitted

    def advance_and_observe(self, t: float) -> float:
        """Move every replica's clock forward to ``t`` (never backward)
        and return the post-advance :attr:`now`.

        The event loop reads a source's clock right after advancing it
        (the external-event clamp); doing both in one replica scan
        halves the per-arrival scan cost. Correct because
        ``min_i max(r_i, t) == max(min_i r_i, t)`` — the busy-minimum
        after the advance is exactly the clamped busy-minimum before.
        """
        busy_min = _INF
        idle_max = float("-inf")
        for r in self.replicas:
            rn = r.now
            if t > rn:
                r.now = rn = t
            if r._waiting or r._running:
                if rn < busy_min:
                    busy_min = rn
            elif rn > idle_max:
                idle_max = rn
        return busy_min if busy_min != _INF else idle_max

    def cancel(self, request: InferenceRequest) -> bool:
        """Tear down an in-flight request on whichever replica holds it.

        Resolves the placement recorded at submission, delegates to
        :meth:`ServingEngine.cancel` (queue removal or KV-releasing
        eviction), and prunes the assignment so tracking state stays
        bounded. ``False`` for unknown/already-finished requests.
        """
        rid = self._assignments.get(request.request_id)
        if rid is None:
            return False
        if not self.replicas[rid].cancel(request):
            return False
        self._assignments.pop(request.request_id, None)
        self._busy_version += 1
        return True

    def step_and_frontier(self) -> float | None:
        """Advance the lagging busy replica by one engine iteration,
        then return :meth:`frontier`.

        The one cluster step: the StepDriver calls it once per fired
        step event, and manual loops call it directly. The lagging
        replica is the busy one with the earliest clock, ties to the
        lowest index. Returning the frontier from the same replica scan
        saves a second scan and a method dispatch per step event.
        Raises ``RuntimeError`` on an idle cluster.
        """
        replicas = self.replicas
        rid = -1
        best = _INF
        second = _INF
        for i, r in enumerate(replicas):
            if r._waiting or r._running:
                rn = r.now
                if rn < best:
                    second = best
                    best = rn
                    rid = i
                elif rn < second:
                    second = rn
        if rid < 0:
            raise RuntimeError(
                "step_and_frontier() called on an idle cluster")
        version = self._busy_version
        stepped = replicas[rid]
        finished = stepped.step()
        if finished:
            assignments = self._assignments
            for req in finished:
                assignments.pop(req.request_id, None)
        if self._busy_version == version:
            # Nothing submitted/cancelled during the step: only the
            # stepped replica moved, so the new frontier is the pre-step
            # runner-up vs. its own advanced clock.
            if stepped._waiting or stepped._running:
                rn = stepped.now
                if rn < second:
                    second = rn
            return None if second == _INF else second
        best = _INF
        for r in replicas:
            if (r._waiting or r._running) and r.now < best:
                best = r.now
        return None if best == _INF else best

    def attach(self, loop: "EventLoop") -> "StepDriver":
        """Run this cluster's replicas as first-class events on ``loop``.

        Registers the cluster as a time source and arms a
        :class:`~repro.sim.driver.StepDriver`; ``submit`` notifies the
        driver so idle replicas wake at admission time, busy ones keep
        exactly one step event armed at the frontier, and a drained
        cluster holds no events at all.
        """
        from repro.sim.driver import StepDriver

        driver = StepDriver(loop, self)
        self.wake_hook = driver.notify
        return driver

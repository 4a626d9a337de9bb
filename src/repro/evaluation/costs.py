"""Dollar-cost accounting (paper Fig 13).

Two cost sources are modelled:

* **API calls** (profiler, hosted inference models) billed at per-token
  rates from the :class:`~repro.llm.model.ModelSpec`.
* **Self-hosted serving** billed as GPU-seconds of busy time, amortised
  at an on-demand rental price — this is how the paper compares METIS
  (7B + profiler) against larger fixed-config inference models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.gpu import ClusterSpec
from repro.util.validation import check_non_negative

__all__ = ["DollarCostModel", "CostLedger"]


@dataclass(frozen=True)
class DollarCostModel:
    """Prices one query's resource usage in dollars."""

    dollar_per_gpu_hour: float = 0.79  # A40 on-demand

    def gpu_time(self, cluster: ClusterSpec, busy_seconds: float) -> float:
        """Cost of occupying a (possibly multi-GPU) cluster."""
        check_non_negative("busy_seconds", busy_seconds)
        return busy_seconds * cluster.dollar_per_second(self.dollar_per_gpu_hour)


@dataclass
class CostLedger:
    """Accumulates the dollar cost of one experiment run.

    ``speculation_dollars`` is an **attribution**, not an extra
    charge: hedged queries' duplicate work runs on the same GPUs whose
    busy time is already billed through :meth:`charge_gpu`, so the
    speculation column carves the wasted (losing-lane) share out of
    ``gpu_dollars`` for reporting — ``total_dollars`` stays
    ``api + gpu``. This is the tail-latency-vs-cost axis of
    ``fig_speculation``.

    ``idle_dollars`` is a real charge, not an attribution: a
    provisioned replica bills for wall-clock rental whether or not it
    is busy (``charge_idle_capacity`` adds the idle remainder on top
    of the busy time billed through :meth:`charge_gpu`), so
    ``total_dollars`` becomes ``api + gpu + idle``. Static fleets
    sized for the peak pay for their troughs — the cost axis of
    ``fig_autoscale``. Runs that don't price idle capacity (the
    default) never call it, leaving totals unchanged.
    """

    model: DollarCostModel = field(default_factory=DollarCostModel)
    api_dollars: float = 0.0
    gpu_dollars: float = 0.0
    n_api_calls: int = 0
    #: GPU dollars attributable to speculation losers (subset of
    #: ``gpu_dollars``; see class docstring).
    speculation_dollars: float = 0.0
    speculation_gpu_seconds: float = 0.0
    #: Rental dollars for provisioned-but-idle capacity (additive;
    #: see class docstring).
    idle_dollars: float = 0.0
    idle_gpu_seconds: float = 0.0

    def charge_gpu(self, cluster: ClusterSpec, busy_seconds: float) -> float:
        cost = self.model.gpu_time(cluster, busy_seconds)
        self.gpu_dollars += cost
        return cost

    def charge_speculation(self, cluster: ClusterSpec,
                           busy_seconds: float) -> float:
        """Attribute GPU seconds of cancelled duplicate work (priced
        like :meth:`charge_gpu` but *not* added to the total — the
        engine's busy time already contains it)."""
        cost = self.model.gpu_time(cluster, busy_seconds)
        self.speculation_dollars += cost
        self.speculation_gpu_seconds += busy_seconds
        return cost

    def charge_idle_capacity(self, cluster: ClusterSpec,
                             idle_seconds: float) -> float:
        """Charge rental for provisioned capacity that sat idle
        (priced like :meth:`charge_gpu`, **added** to the total)."""
        cost = self.model.gpu_time(cluster, idle_seconds)
        self.idle_dollars += cost
        self.idle_gpu_seconds += idle_seconds
        return cost

    @property
    def total_dollars(self) -> float:
        return self.api_dollars + self.gpu_dollars + self.idle_dollars

    def per_query(self, n_queries: int) -> float:
        """Average dollars per query (0 when no queries ran)."""
        if n_queries <= 0:
            return 0.0
        return self.total_dollars / n_queries

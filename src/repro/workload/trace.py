"""Trace-driven workloads: fixed-duration periods of arrival counts.

A :class:`Workload` describes offered load the way a capacity planner
sees it (after BRAD's ``planner/workload``): a sequence of
fixed-duration :class:`WorkloadPeriod`\\ s, each carrying how many
queries arrive in it. The representation is *forecastable* — the
period grid gives every planning policy (see
:mod:`repro.workload.autoscaler`) a common notion of "the next
period's rate" — and *replayable*: :meth:`Workload.to_json` /
:meth:`Workload.from_json` round-trip byte-identically, so a trace
file pins a workload the way golden fingerprints pin a schedule.

Generators produce the canonical shapes elastic serving is evaluated
against:

* :func:`diurnal_workload` — a sinusoidal day (trough at the edges,
  peak mid-trace).
* :func:`bursty_workload` — a two-state Markov-modulated Poisson
  process (calm/burst), the classic MMPP burstiness model.
* :func:`multi_tenant_workload` — phase-shifted per-tenant diurnal
  curves summed into one trace (tenants peak at different times, so
  the aggregate is flatter than any tenant).

Every stochastic draw comes from a named :mod:`repro.util.rng` stream
keyed on the generator name and period index: the same seed yields a
byte-identical trace *and* byte-identical arrival times from
:meth:`Workload.materialize`, independent of any other component's
randomness.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from repro.data.types import Query
from repro.data.workload import Arrival
from repro.util.rng import stream
from repro.util.validation import (
    check_count,
    check_non_empty,
    check_positive,
)

__all__ = [
    "WorkloadPeriod",
    "Workload",
    "WORKLOAD_NAMES",
    "diurnal_workload",
    "bursty_workload",
    "multi_tenant_workload",
    "zipfian_workload",
    "make_workload",
]


@dataclass(frozen=True)
class WorkloadPeriod:
    """One fixed-duration slice of the trace.

    ``label`` is free-form provenance (tenant name, MMPP state) carried
    through serialization; it never affects arrival times.
    """

    duration_s: float
    n_arrivals: int
    label: str = ""

    def __post_init__(self) -> None:
        check_positive("period.duration_s", self.duration_s)
        check_count("period.n_arrivals", self.n_arrivals)

    @property
    def rate_qps(self) -> float:
        return self.n_arrivals / self.duration_s


@dataclass(frozen=True)
class Workload:
    """A trace: consecutive periods of offered load.

    Construction fails fast on an empty trace (a zero-period workload
    would silently produce an empty run — see
    :func:`repro.util.validation.check_non_empty`).
    """

    periods: tuple[WorkloadPeriod, ...]
    name: str = "trace"
    #: Optional per-arrival indices into the query pool (see
    #: :meth:`materialize`). Empty — the default, and the only shape
    #: older trace files can carry — cycles the pool in order.
    query_mix: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_non_empty("workload.periods", self.periods)
        object.__setattr__(self, "periods", tuple(self.periods))
        mix = tuple(int(i) for i in self.query_mix)
        for i in mix:
            if i < 0:
                raise ValueError(
                    f"workload.query_mix indices must be >= 0, got {i}"
                )
        object.__setattr__(self, "query_mix", mix)

    # ------------------------------------------------------------------
    # Forecastable properties
    # ------------------------------------------------------------------
    def period_index_at(self, t: float) -> int:
        """Period containing trace time ``t`` (clamped to the ends)."""
        if t <= 0:
            return 0
        elapsed = 0.0
        for i, period in enumerate(self.periods):
            elapsed += period.duration_s
            if t < elapsed:
                return i
        return len(self.periods) - 1

    def rate_at(self, t: float) -> float:
        """Offered rate (qps) of the period containing ``t``.

        Past the trace end this is the *last* period's rate — the
        forecast a planner sees while the tail of the workload drains.
        """
        return self.periods[self.period_index_at(t)].rate_qps

    def forecast_rate(self, t: float, lookahead_s: float) -> float:
        """Rate ``lookahead_s`` ahead of ``t`` (the planner's oracle).

        The trace *is* the forecast: a declared workload plays the role
        of BRAD's forecasted next-period workload, so planning quality
        degrades only through the period granularity, not through
        forecast error. Trace-file replays of measured workloads keep
        the same interface.
        """
        return self.rate_at(t + lookahead_s)

    def ewma_rate(self, t: float, alpha: float) -> float:
        """Exponentially smoothed offered rate over the periods up to
        ``t`` (inclusive).

        ``alpha`` in (0, 1] weights the newest period: 1.0 degrades to
        :meth:`rate_at`, small values remember the trace's history and
        damp single-period spikes — the smoothing the ``forecast-ewma``
        autoscaler plans against so MMPP noise doesn't whipsaw the
        fleet (see :class:`repro.workload.EwmaForecastPolicy`).
        """
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        idx = self.period_index_at(t)
        ewma = self.periods[0].rate_qps
        for period in self.periods[1:idx + 1]:
            ewma = alpha * period.rate_qps + (1.0 - alpha) * ewma
        return ewma

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, queries: list[Query], seed: int = 0
                    ) -> list[Arrival]:
        """Draw concrete open-loop arrivals for this trace.

        Within each period the ``n_arrivals`` timestamps are i.i.d.
        uniform over the period (the conditional law of a Poisson
        process given its count), drawn from the stream
        ``(seed, "workload", name, period_index)`` — so period ``i``'s
        times never depend on how many arrivals earlier periods had.

        ``queries`` is the pool. With the default empty ``query_mix``
        arrivals cycle through it in order; a non-empty mix maps
        arrival ``i`` to ``queries[query_mix[i % len(mix)] % len(pool)]``
        (the modulo keeps short mixes and small pools valid),
        which is how :func:`zipfian_workload` skews popularity. Either
        way, repeat visits clone the query under a fresh ``query_id``
        (``<id>#r<n>`` for its *n*-th reuse) because app pins and
        record identity key on query-id uniqueness; cache keys fold the
        suffix back off via
        :func:`repro.util.ids.canonical_query_id`.
        """
        check_non_empty("queries", queries)
        times: list[float] = []
        start = 0.0
        for i, period in enumerate(self.periods):
            if period.n_arrivals:
                rng = stream(seed, "workload", self.name, i)
                offsets = sorted(
                    float(u) for u in
                    rng.uniform(0.0, period.duration_s, period.n_arrivals)
                )
                times.extend(start + u for u in offsets)
            start += period.duration_s
        arrivals: list[Arrival] = []
        seen: dict[str, int] = {}
        mix = self.query_mix
        for i, t in enumerate(times):
            if mix:
                query = queries[mix[i % len(mix)] % len(queries)]
            else:
                query = queries[i % len(queries)]
            visit = seen.get(query.query_id, 0)
            seen[query.query_id] = visit + 1
            if visit:
                query = replace(query,
                                query_id=f"{query.query_id}#r{visit}")
            arrivals.append(Arrival(query=query, time=t))
        return arrivals

    # ------------------------------------------------------------------
    # Trace-file replay
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical serialization (sorted keys, fixed layout): the
        same workload always renders to the same bytes. ``query_mix``
        is emitted only when non-empty, so traces that never used it
        serialize byte-identically to before the field existed."""
        payload: dict = {
            "name": self.name,
            "periods": [
                {
                    "duration_s": p.duration_s,
                    "n_arrivals": p.n_arrivals,
                    "label": p.label,
                }
                for p in self.periods
            ],
        }
        if self.query_mix:
            payload["query_mix"] = list(self.query_mix)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        """Parse :meth:`to_json`'s format; malformed input raises
        ``ValueError`` naming the offending field."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ValueError("a trace must be a JSON object")
        for field in ("periods", "query_mix"):
            if not isinstance(payload.get(field, []), list):
                raise ValueError(f"{field} must be a list")
        periods = []
        for i, period in enumerate(payload.get("periods", ())):
            try:
                periods.append(WorkloadPeriod(
                    duration_s=float(period["duration_s"]),
                    n_arrivals=int(period["n_arrivals"]),
                    label=str(period.get("label", "")),
                ))
            except KeyError as exc:
                raise ValueError(
                    f"periods[{i}].{exc.args[0]} is missing") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"periods[{i}]: {exc}") from None
        query_mix = payload.get("query_mix", [])
        for i, entry in enumerate(query_mix):
            if type(entry) is not int:
                raise ValueError(
                    f"query_mix[{i}] must be an integer, got {entry!r}")
        return cls(
            periods=periods,
            name=str(payload.get("name", "trace")),
            query_mix=tuple(query_mix),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Workload":
        """Read a trace file. A missing, unreadable or malformed file
        raises ``ValueError`` naming the path (and the field)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise ValueError(
                f"trace file {os.fspath(path)!r}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValueError(
                f"trace file {os.fspath(path)!r}: {exc}") from None


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _poisson_count(rate_qps: float, duration_s: float, rng) -> int:
    return int(rng.poisson(rate_qps * duration_s))


def diurnal_workload(
    n_periods: int = 24,
    period_s: float = 60.0,
    base_qps: float = 0.25,
    peak_qps: float = 2.0,
    seed: int = 0,
    name: str = "diurnal",
) -> Workload:
    """A sinusoidal day: trough at the trace edges, peak mid-trace.

    Period ``i``'s mean rate follows ``base + (peak - base) *
    (1 - cos(2*pi*i/n)) / 2``; the realized count is a Poisson draw at
    that mean from the stream ``(seed, "workload", name, "count", i)``.
    """
    check_count("n_periods", n_periods, minimum=1)
    check_positive("period_s", period_s)
    check_positive("base_qps", base_qps)
    check_positive("peak_qps", peak_qps)
    if peak_qps < base_qps:
        raise ValueError(
            f"peak_qps must be >= base_qps, got peak_qps={peak_qps} < "
            f"base_qps={base_qps}"
        )
    periods = []
    for i in range(n_periods):
        shape = (1.0 - math.cos(2.0 * math.pi * i / n_periods)) / 2.0
        rate = base_qps + (peak_qps - base_qps) * shape
        rng = stream(seed, "workload", name, "count", i)
        periods.append(WorkloadPeriod(
            duration_s=float(period_s),
            n_arrivals=_poisson_count(rate, period_s, rng),
            label=f"hour{i}",
        ))
    return Workload(periods=tuple(periods), name=name)


def bursty_workload(
    n_periods: int = 48,
    period_s: float = 30.0,
    base_qps: float = 0.4,
    burst_qps: float = 3.0,
    p_enter_burst: float = 0.15,
    p_exit_burst: float = 0.4,
    seed: int = 0,
    name: str = "bursty",
) -> Workload:
    """MMPP-style burstiness: a two-state (calm/burst) Markov chain
    over periods, Poisson counts at the state's rate."""
    check_count("n_periods", n_periods, minimum=1)
    check_positive("period_s", period_s)
    check_positive("base_qps", base_qps)
    check_positive("burst_qps", burst_qps)
    state_rng = stream(seed, "workload", name, "state")
    burst = False
    periods = []
    for i in range(n_periods):
        flip = float(state_rng.random())
        if burst:
            burst = flip >= p_exit_burst
        else:
            burst = flip < p_enter_burst
        rate = burst_qps if burst else base_qps
        rng = stream(seed, "workload", name, "count", i)
        periods.append(WorkloadPeriod(
            duration_s=float(period_s),
            n_arrivals=_poisson_count(rate, period_s, rng),
            label="burst" if burst else "calm",
        ))
    return Workload(periods=tuple(periods), name=name)


def multi_tenant_workload(
    tenant_qps: dict[str, float] | None = None,
    n_periods: int = 24,
    period_s: float = 60.0,
    seed: int = 0,
    name: str = "multi-tenant",
) -> Workload:
    """Phase-shifted diurnal tenants summed into one trace.

    Each tenant runs its own sinusoid around its mean rate, offset by
    ``tenant_index / n_tenants`` of a cycle — tenants peak at
    different times of day, so the aggregate is flatter than any one
    tenant (the consolidation argument for shared fleets). The period
    label names the tenant contributing the most arrivals.
    """
    if tenant_qps is None:
        tenant_qps = {"tenant-a": 0.8, "tenant-b": 0.5, "tenant-c": 0.3}
    check_non_empty("tenant_qps", tenant_qps)
    check_count("n_periods", n_periods, minimum=1)
    check_positive("period_s", period_s)
    for tenant, qps in tenant_qps.items():
        check_positive(f"tenant_qps[{tenant!r}]", qps)
    tenants = sorted(tenant_qps)
    periods = []
    for i in range(n_periods):
        counts: dict[str, int] = {}
        for j, tenant in enumerate(tenants):
            mean = tenant_qps[tenant]
            phase = 2.0 * math.pi * (i / n_periods + j / len(tenants))
            rate = mean * (1.0 + 0.8 * (1.0 - math.cos(phase)) / 2.0)
            rng = stream(seed, "workload", name, tenant, i)
            counts[tenant] = _poisson_count(rate, period_s, rng)
        top = max(tenants, key=lambda t: (counts[t], t))
        periods.append(WorkloadPeriod(
            duration_s=float(period_s),
            n_arrivals=sum(counts.values()),
            label=top,
        ))
    return Workload(periods=tuple(periods), name=name)


def zipfian_workload(
    n_periods: int = 20,
    period_s: float = 30.0,
    rate_qps: float = 1.5,
    pool_size: int = 30,
    zipf_s: float = 1.1,
    seed: int = 0,
    name: str = "zipf",
) -> Workload:
    """Steady offered load with a Zipf-skewed repeating query mix.

    The cache-friendly trace: period counts are Poisson at a flat
    ``rate_qps``, and every arrival's query is drawn over pool indices
    ``0..pool_size-1`` with weight ``1 / (rank+1)**zipf_s`` — index 0
    is the head of the popularity curve, so a handful of hot queries
    dominate while the tail stays cold, the textbook regime where a
    small result cache earns a large hit rate (``fig_cache``). The
    draw comes from the stream ``(seed, "workload", name, "mix")`` and
    lands in :attr:`Workload.query_mix`, so the skew replays
    byte-identically from a saved trace file.
    """
    check_count("n_periods", n_periods, minimum=1)
    check_positive("period_s", period_s)
    check_positive("rate_qps", rate_qps)
    check_count("pool_size", pool_size, minimum=1)
    check_positive("zipf_s", zipf_s)
    periods = []
    for i in range(n_periods):
        rng = stream(seed, "workload", name, "count", i)
        periods.append(WorkloadPeriod(
            duration_s=float(period_s),
            n_arrivals=_poisson_count(rate_qps, period_s, rng),
            label=f"p{i}",
        ))
    total = sum(p.n_arrivals for p in periods)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(pool_size)]
    norm = sum(weights)
    probs = [w / norm for w in weights]
    mix_rng = stream(seed, "workload", name, "mix")
    mix = tuple(
        int(j) for j in mix_rng.choice(pool_size, size=total, p=probs)
    ) if total else ()
    return Workload(periods=tuple(periods), name=name, query_mix=mix)


#: Generator names accepted by :func:`make_workload` (and ``--workload``).
WORKLOAD_NAMES: tuple[str, ...] = ("diurnal", "bursty", "multi-tenant",
                                   "zipf")

_GENERATORS = {
    "diurnal": diurnal_workload,
    "bursty": bursty_workload,
    "multi-tenant": multi_tenant_workload,
    "zipf": zipfian_workload,
}


def make_workload(spec, seed: int = 0, **overrides) -> Workload:
    """Resolve a workload spec: an instance, a generator name, or a
    trace-file path (JSON, see :meth:`Workload.to_json`)."""
    if isinstance(spec, Workload):
        return spec
    if spec in _GENERATORS:
        return _GENERATORS[spec](seed=seed, **overrides)
    if isinstance(spec, (str, os.PathLike)) and (
        os.path.exists(spec) or str(spec).endswith(".json")
    ):
        return Workload.load(spec)
    known = ", ".join(WORKLOAD_NAMES)
    raise ValueError(
        f"unknown workload {spec!r}; known generators: {known} "
        "(or pass a trace-file path ending in .json)"
    )

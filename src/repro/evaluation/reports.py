"""Plain-text table formatting and cluster-run aggregation.

Every benchmark regenerates a paper table/figure as rows of
``{column: value}``; this module renders them uniformly so the bench
output is directly comparable with the paper's plots. For
multi-replica runs it also folds per-replica engine counters (KV
occupancy, queue pressure, fallback rate) into cluster summaries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["format_table", "per_replica_rows", "cluster_summary",
           "resource_rows", "retrieval_shard_rows", "speculation_rows",
           "autoscale_rows", "autoscale_summary",
           "cache_rows", "quality_rows"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.5f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render rows as an aligned monospace table.

    >>> print(format_table([{"n": 1}, {"n": 2}]))
    n
    -
    1
    2
    """
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered))
        for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Cluster-run aggregation
# ----------------------------------------------------------------------
def per_replica_rows(result) -> list[dict]:
    """One row of serving counters per cluster replica.

    ``result`` is a :class:`~repro.evaluation.runner.RunResult`
    (duck-typed: anything with ``records`` carrying ``replica`` /
    ``fell_back`` / ``queueing_delay`` and a ``replica_stats`` list;
    an optional ``replica_speeds`` list adds the per-replica speed
    multiplier column for heterogeneous fleets).

    ``busy_seconds`` and ``wakeups`` (idle-to-busy transitions, i.e.
    the wake events the event-driven stepping armed for the replica)
    together describe each replica's duty cycle: a fast replica in a
    heterogeneous fleet shows more wakeups and less busy time per
    query than its slow peers.
    """
    speeds = list(getattr(result, "replica_speeds", None) or [])
    rows: list[dict] = []
    for i, stats in enumerate(result.replica_stats):
        records = [r for r in result.records if r.replica == i]
        n = len(records)
        n_fallback = sum(1 for r in records if r.fell_back)
        delays = sorted(r.queueing_delay for r in records)
        p50 = delays[len(delays) // 2] if delays else 0.0
        rows.append(dict(
            replica=i,
            speed=speeds[i] if i < len(speeds) else 1.0,
            queries=n,
            requests_finished=stats.requests_finished,
            busy_seconds=stats.busy_seconds,
            wakeups=stats.wakeups,
            peak_kv_utilization=stats.peak_kv_utilization,
            admission_stalls=stats.admission_stalls,
            fallback_rate=(n_fallback / n) if n else 0.0,
            p50_queue_delay_s=p50,
        ))
    return rows


def cluster_summary(result) -> dict:
    """Fold per-replica stats into one cluster-level summary row.

    ``load_imbalance`` is max/mean queries per replica (1.0 = perfectly
    balanced); ``peak_kv_utilization`` is the worst replica's peak.
    """
    rows = per_replica_rows(result)
    if not rows:
        return dict(n_replicas=0, queries=0, fallback_rate=0.0,
                    peak_kv_utilization=0.0, admission_stalls=0,
                    load_imbalance=0.0, busy_seconds=0.0)
    queries = [row["queries"] for row in rows]
    total = sum(queries)
    n_fallback = sum(row["fallback_rate"] * row["queries"] for row in rows)
    mean_load = total / len(rows)
    return dict(
        n_replicas=len(rows),
        queries=total,
        fallback_rate=(n_fallback / total) if total else 0.0,
        peak_kv_utilization=max(row["peak_kv_utilization"] for row in rows),
        admission_stalls=sum(row["admission_stalls"] for row in rows),
        load_imbalance=(max(queries) / mean_load) if mean_load else 0.0,
        busy_seconds=sum(row["busy_seconds"] for row in rows),
    )


def resource_rows(result) -> list[dict]:
    """One row of contention counters per pipeline resource.

    ``result`` is a :class:`~repro.evaluation.runner.RunResult`
    (duck-typed: needs ``resource_stats`` — a mapping of name to
    :class:`~repro.sim.resource.ResourceStats` — and ``makespan``).
    Unbounded resources render ``concurrency`` as ``inf`` with zero
    utilization; queue-delay columns quantify how long queries waited
    for a slot (the load-dependent part of Fig 18's overhead).
    """
    rows: list[dict] = []
    for name, stats in result.resource_stats.items():
        finite = stats.concurrency != float("inf")
        rows.append(dict(
            resource=name,
            concurrency=int(stats.concurrency) if finite else stats.concurrency,
            requests=stats.n_requests,
            utilization=stats.utilization(result.makespan),
            busy_seconds=stats.busy_seconds,
            queued_fraction=stats.queued_fraction,
            mean_queue_delay_s=stats.mean_queue_delay,
            max_queue_delay_s=stats.max_queue_delay,
            peak_queue_len=stats.peak_queue_len,
        ))
    return rows


def retrieval_shard_rows(result) -> list[dict]:
    """One row per retrieval shard (plus the reranker when present).

    The retrieval-focused slice of :func:`resource_rows`: for a
    sharded store each ``retrieval/shardN`` resource gets a row with a
    parsed ``shard`` column, so per-shard utilization and queue delay
    are directly comparable across K in scaling sweeps. The unsharded
    ``retrieval`` resource and the ``reranker`` render with
    ``shard='-'``.
    """
    rows: list[dict] = []
    for row in resource_rows(result):
        name = row["resource"]
        if not (name == "retrieval" or name.startswith("retrieval/")
                or name == "reranker"):
            continue
        shard = (int(name.split("/shard", 1)[1])
                 if "/shard" in name else "-")
        rows.append(dict(
            resource=name,
            shard=shard,
            concurrency=row["concurrency"],
            requests=row["requests"],
            utilization=row["utilization"],
            queued_fraction=row["queued_fraction"],
            mean_queue_delay_s=row["mean_queue_delay_s"],
            max_queue_delay_s=row["max_queue_delay_s"],
            peak_queue_len=row["peak_queue_len"],
        ))
    return rows


def speculation_rows(result) -> list[dict]:
    """One summary row of hedging observables for a run.

    ``result`` is a :class:`~repro.evaluation.runner.RunResult`
    (duck-typed: ``records`` with the hedge fields, ``engine_stats``,
    ``ledger``, and the derived ``hedge_rate`` / ``hedge_win_rate`` /
    ``wasted_work_fraction`` / ``slo_attainment`` properties). The
    p99-vs-cost pairing is the fig_speculation headline: hedging buys
    tail latency with the wasted-work fraction and the ledger's
    ``speculation`` dollars.
    """
    has_slo = result.slo_seconds is not None
    return [dict(
        speculation=result.speculation or "none",
        slo_s=result.slo_seconds if has_slo else "-",
        # Without an SLO there is no deadline to attain; render "-"
        # rather than a misleading 0% attainment.
        slo_attainment=result.slo_attainment if has_slo else "-",
        hedge_rate=result.hedge_rate,
        hedge_win_rate=result.hedge_win_rate,
        wasted_work_fraction=result.wasted_work_fraction,
        p50_delay_s=result.delay_percentile(50),
        p99_delay_s=result.delay_percentile(99),
        requests_cancelled=result.engine_stats.requests_cancelled,
        speculation_dollars=result.ledger.speculation_dollars,
    )]


def autoscale_rows(result) -> list[dict]:
    """One row per fleet change the autoscaler made, in event order.

    ``result`` is a :class:`~repro.evaluation.runner.RunResult`
    (duck-typed: needs ``scaling_events`` — a list of
    :class:`~repro.workload.ScalingEvent`). ``replica`` renders ``-``
    for provision requests, which have no replica id until the
    capacity actually joins.
    """
    return [dict(
        time_s=e.time,
        action=e.action,
        replica=e.replica if e.replica >= 0 else "-",
        n_active=e.n_active,
    ) for e in result.scaling_events]


def autoscale_summary(result) -> dict:
    """One row summarising elastic capacity over a run.

    Pairs the SLO axis with the cost axis: ``idle_fraction`` is the
    share of provisioned GPU-seconds that sat idle (what a static
    peak-sized fleet wastes in the troughs), and the event counts
    show how busy the control loop was.
    """
    events = result.scaling_events
    provisioned = result.provisioned_gpu_seconds
    idle = result.idle_gpu_seconds
    return dict(
        autoscaler=result.autoscaler or "none",
        n_replicas_peak=max((e.n_active for e in events),
                            default=len(result.replica_stats)),
        scale_ups=sum(1 for e in events if e.action == "add"),
        retires=sum(1 for e in events if e.action == "retire"),
        provisioned_gpu_s=provisioned,
        idle_gpu_s=idle,
        idle_fraction=(idle / provisioned) if provisioned > 0 else 0.0,
        idle_dollars=result.ledger.idle_dollars,
    )


def cache_rows(result) -> list[dict]:
    """One row of counters per enabled cache tier.

    ``result`` is a :class:`~repro.evaluation.runner.RunResult`
    (duck-typed: needs ``cache_stats`` — a mapping of tier name to
    :class:`~repro.caching.CacheStats`). Empty when caching is off.
    ``saved_seconds`` / ``saved_dollars`` are the summed *measured*
    benefit of the hits (what each memoized answer actually cost to
    produce), the same quantities GDSF eviction ranks entries by —
    see ``docs/CACHING.md``. When the metric harness scored anything
    (``n_quality_scored > 0``), a ``hit_faithfulness`` column pairs
    each tier's saved cost with the quality its hits actually
    delivered (docs/EVALUATION.md): NaN when the tier served no
    scored hits, as the profile tier never does (its hits serve a
    profile, not an answer). Harness-off runs omit the column so default cache
    tables render byte-identically to the pre-harness layout.
    """
    records = getattr(result, "records", [])
    scored = getattr(result, "n_quality_scored", 0) > 0

    def row(tier, stats):
        out = dict(
            tier=tier,
            lookups=stats.lookups,
            hits=stats.hits,
            hit_rate=stats.hit_rate,
            inserts=stats.inserts,
            evictions=stats.evictions,
            expirations=stats.expirations,
            stale_hits=stats.stale_hits,
            semantic_hits=stats.semantic_hits,
            saved_seconds=stats.saved_seconds,
            saved_dollars=stats.saved_dollars,
        )
        if scored:
            out["hit_faithfulness"] = _mean_metric(
                [r for r in records if r.cache_hit
                 and (r.cache_tier or "").startswith(tier)],
                "faithfulness")
        return out

    return [row(tier, stats)
            for tier, stats in result.cache_stats.items()]


#: QueryRecord metric field names, in reporting order (kept in sync
#: with ``repro.evaluation.metrics.METRIC_NAMES`` without importing
#: it — reports stays a leaf module).
_QUALITY_METRICS = ("faithfulness", "answer_relevancy",
                    "context_precision", "context_recall")


def _mean_metric(records, metric: str) -> float:
    """NaN-safe mean of one metric over the scored subset of
    ``records`` (NaN when nothing was scored — empty run or harness
    off), mirroring the RunResult aggregate convention."""
    values = [getattr(r, metric) for r in records]
    values = [v for v in values if v is not None]
    if not values:
        return float("nan")
    return sum(values) / len(values)


def quality_rows(result) -> list[dict]:
    """Quality-metric aggregates per serving path (docs/EVALUATION.md).

    ``result`` is a :class:`~repro.evaluation.runner.RunResult`
    (duck-typed: ``records`` carrying the metric fields plus
    ``cache_hit`` / ``cache_tier``). One row per serving path — the
    miss path and each cache tier that actually served hits — plus an
    ``all`` summary row, so semantic-hit and stale-hit quality deltas
    read directly off the table. Rows render NaN metric columns when
    the harness was off; an empty run yields just the ``all`` row.
    """
    def path_of(r) -> str:
        return f"hit:{r.cache_tier}" if r.cache_hit else "miss"

    paths: dict[str, list] = {}
    order: list[str] = []
    for r in result.records:
        path = path_of(r)
        if path not in paths:
            paths[path] = []
            order.append(path)
        paths[path].append(r)

    def row(path: str, records) -> dict:
        out = dict(path=path, queries=len(records))
        for metric in _QUALITY_METRICS:
            out[metric] = _mean_metric(records, metric)
        out["mean_f1"] = (sum(r.f1 for r in records) / len(records)
                          if records else float("nan"))
        return out

    rows = [row(path, paths[path]) for path in sorted(order)]
    rows.append(row("all", result.records))
    return rows


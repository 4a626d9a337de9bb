"""Fig 11 (heterogeneous variant): a mixed-speed fleet under load-aware
routing.

Serves a saturating workload on a two-replica cluster whose replicas
run at 1.0× and 0.5× hardware speed (event-driven stepping lets each
advance at its own rate), comparing a load-blind router (round-robin)
against load-aware ones (least-outstanding, least-kv-load). The
load-aware routers observe the slow replica's longer queue and steer
proportionally more queries to the fast replica; round-robin splits
the workload evenly and lets the slow replica dominate tail delay.

Reported per (system, router): aggregate throughput, mean delay, the
fast replica's share of queries, and per-replica busy-time / wakeup
(idle-event) rows from the event-driven cluster.

Expected (pinned loosely by the experiment smoke test and precisely by
``tests/test_cluster_events.py``): under least-outstanding the fast
replica serves measurably more queries than under round-robin's even
split.
"""

from __future__ import annotations

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.evaluation.reports import per_replica_rows
from repro.experiments.common import (
    DEFAULT_RATES,
    ExperimentReport,
    load_bundle,
    make_metis,
    run_policy,
)

__all__ = ["run", "fast_share", "SPEEDS"]

_DATASET = "finsec"
#: 1.0x and 0.5x replicas: the canonical fast/slow pair (fig_speculation
#: serves the same fleet).
SPEEDS = (1.0, 0.5)
_ROUTERS = ("round-robin", "least-outstanding", "least-kv-load")
#: Saturate even the fast replica so routing decisions matter.
_SATURATION_MULTIPLIER = 4.0
_FAST_N_QUERIES = 80


def fast_share(result) -> float:
    """Fraction of queries served by replica 0 (the 1.0x replica)."""
    if not result.records:
        return 0.0
    return sum(1 for r in result.records if r.replica == 0) / len(result.records)


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        "Fig 11 (hetero): 1.0x/0.5x fleet, load-aware vs load-blind routing"
    )
    bundle = load_bundle(_DATASET, fast, seed,
                         fast_n_queries=_FAST_N_QUERIES)
    rate = DEFAULT_RATES[_DATASET] * _SATURATION_MULTIPLIER
    fixed_config = RAGConfig(SynthesisMethod.STUFF, 8)

    shares: dict[tuple[str, str], float] = {}
    for system, make in (
        ("vLLM(fixed)", lambda: FixedConfigPolicy(fixed_config)),
        ("METIS", lambda: make_metis(bundle, seed=seed)),
    ):
        for router in _ROUTERS:
            result = run_policy(
                bundle, make(), rate_qps=rate, seed=seed,
                n_replicas=len(SPEEDS), router=router,
                replica_speeds=list(SPEEDS),
            )
            share = fast_share(result)
            shares[(system, router)] = share
            fast_row, slow_row = per_replica_rows(result)
            report.add_row(
                dataset=_DATASET,
                system=system,
                router=router,
                speeds="/".join(f"{s:g}x" for s in SPEEDS),
                throughput_qps=result.throughput_qps,
                mean_delay_s=result.mean_delay,
                p90_delay_s=result.delay_percentile(90),
                mean_f1=result.mean_f1,
                fast_replica_share=share,
                fast_busy_s=fast_row["busy_seconds"],
                slow_busy_s=slow_row["busy_seconds"],
                fast_wakeups=fast_row["wakeups"],
                slow_wakeups=slow_row["wakeups"],
            )
        rr = shares[(system, "round-robin")]
        lo = shares[(system, "least-outstanding")]
        report.add_note(
            f"{_DATASET}/{system}: fast-replica share "
            f"{lo:.2f} under least-outstanding vs {rr:.2f} under "
            f"round-robin (load-aware routing should exceed the even "
            f"split on a 1.0x/0.5x fleet)"
        )
    return report

"""Tests for the staged query pipeline: determinism at unbounded
concurrency, queueing under contention, closed-loop clients, and
workload validation."""

import json
from pathlib import Path

import pytest

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data.workload import (
    Arrival,
    poisson_arrivals,
    sequential_arrivals,
)
from repro.evaluation.pipeline import (
    PROFILER_RESOURCE,
    RETRIEVAL_RESOURCE,
    validate_arrivals,
)
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import make_metis

STUFF6 = RAGConfig(SynthesisMethod.STUFF, 6)


def fingerprint(result) -> list[tuple]:
    return [
        (r.query_id, r.arrival_time, r.decision_time, r.finish_time,
         r.f1, r.queueing_delay, r.prefill_tokens, r.output_tokens,
         r.replica, r.config)
        for r in result.records
    ]


def make_runner(bundle, engine_config, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(bundle, engine_config, seed=0, **kwargs)


class TestUnboundedEquivalence:
    """Default (unbounded) resources must not perturb the schedule."""

    def test_default_matches_huge_explicit_concurrency(
            self, finsec_bundle, engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        base = make_runner(finsec_bundle, engine_config).run(
            make_metis(finsec_bundle), arrivals)
        explicit = make_runner(
            finsec_bundle, engine_config,
            profiler_concurrency=10**6, shard_concurrency=10**6,
        ).run(make_metis(finsec_bundle), arrivals)
        assert fingerprint(base) == fingerprint(explicit)
        assert base.makespan == explicit.makespan

    def test_unbounded_run_reports_zero_queue_delay(
            self, finsec_bundle, engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        result = make_runner(finsec_bundle, engine_config).run(
            make_metis(finsec_bundle), arrivals)
        assert all(r.profiler_queue_delay == 0.0 for r in result.records)
        assert all(r.retrieval_queue_delay == 0.0 for r in result.records)
        stats = result.resource_stats
        assert stats[PROFILER_RESOURCE].n_queued == 0
        assert stats[RETRIEVAL_RESOURCE].n_queued == 0
        assert stats[PROFILER_RESOURCE].n_requests == len(result.records)


class TestGoldenFingerprint:
    """Regression anchor: the committed fingerprint was generated from
    a schedule verified byte-identical to the pre-``repro.sim``
    closure-based runner (full-run SHA comparison against the PR 1
    HEAD). Any drift in the default event schedule — even one that
    perturbs both unbounded variants equally — fails here."""

    GOLDEN = Path(__file__).parent / "golden" / "pipeline_golden.json"

    def test_default_schedule_matches_committed_fingerprint(self):
        from repro.data import build_dataset
        from repro.experiments.common import default_engine_config

        bundle = build_dataset("finsec", seed=0, n_queries=12)
        arrivals = poisson_arrivals(bundle.queries, 2.0, seed=0)
        result = ExperimentRunner(bundle, default_engine_config(),
                                  seed=0).run(make_metis(bundle), arrivals)
        golden = json.loads(self.GOLDEN.read_text())
        assert repr(result.makespan) == golden["makespan"]
        assert len(result.records) == len(golden["records"])
        for r, g in zip(result.records, golden["records"]):
            got = {
                "query_id": r.query_id,
                "arrival_time": repr(r.arrival_time),
                "decision_time": repr(r.decision_time),
                "finish_time": repr(r.finish_time),
                "f1": repr(r.f1),
                "queueing_delay": repr(r.queueing_delay),
                "prefill_tokens": r.prefill_tokens,
                "output_tokens": r.output_tokens,
                "replica": r.replica,
                "config": r.config.label(),
            }
            assert got == g, r.query_id


class TestProfilerContention:
    """Acceptance: finite profiler_concurrency queues under saturation."""

    def test_saturating_workload_builds_profiler_queue(
            self, finsec_bundle, engine_config):
        # One profiler slot serves ~6.8 calls/s; 10 qps saturates it.
        arrivals = poisson_arrivals(finsec_bundle.queries, 10.0, seed=0)
        contended = make_runner(
            finsec_bundle, engine_config, profiler_concurrency=1,
        ).run(make_metis(finsec_bundle), arrivals)
        unbounded = make_runner(finsec_bundle, engine_config).run(
            make_metis(finsec_bundle), arrivals)

        stats = contended.resource_stats[PROFILER_RESOURCE]
        assert stats.n_queued > 0
        assert stats.total_queue_delay > 0.0
        assert stats.peak_queue_len >= 2
        assert stats.peak_in_service == 1
        assert any(r.profiler_queue_delay > 0 for r in contended.records)
        # The wait shows up in the per-query overhead fraction (Fig 18).
        assert (contended.mean_profiler_fraction
                > unbounded.mean_profiler_fraction)

    def test_contended_timestamps_remain_consistent(
            self, finsec_bundle, engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 10.0, seed=0)
        result = make_runner(
            finsec_bundle, engine_config, profiler_concurrency=1,
        ).run(make_metis(finsec_bundle), arrivals)
        assert len(result.records) == len(finsec_bundle.queries)
        for r in result.records:
            # decision happens after the queued wait + the service time
            assert r.decision_time >= (
                r.arrival_time + r.profiler_queue_delay
                + r.profiler_seconds) - 1e-9
            assert r.arrival_time <= r.decision_time <= r.finish_time

    def test_retrieval_contention_queues(self, finsec_bundle, engine_config):
        # Retrieval holds a slot for 4 ms; back-to-back arrivals at
        # 500 qps (2 ms apart) through one slot must queue.
        arrivals = poisson_arrivals(finsec_bundle.queries, 500.0, seed=0)
        result = make_runner(
            finsec_bundle, engine_config, shard_concurrency=1,
        ).run(FixedConfigPolicy(STUFF6), arrivals)
        stats = result.resource_stats[RETRIEVAL_RESOURCE]
        assert stats.n_queued > 0
        assert any(r.retrieval_queue_delay > 0 for r in result.records)

    def test_profiler_contention_is_deterministic(
            self, finsec_bundle, engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 10.0, seed=0)

        def run_once():
            return make_runner(
                finsec_bundle, engine_config, profiler_concurrency=2,
            ).run(make_metis(finsec_bundle), arrivals)

        assert fingerprint(run_once()) == fingerprint(run_once())

    def test_saturated_profiler_charges_every_query(
            self, finsec_bundle, engine_config):
        """A saturated profiler slot serves each queued query with its
        own call: one charged call and one full hold per query, and the
        same dollars as the unbounded run."""
        arrivals = poisson_arrivals(finsec_bundle.queries, 10.0, seed=0)
        contended = make_runner(
            finsec_bundle, engine_config, profiler_concurrency=1,
        ).run(make_metis(finsec_bundle), arrivals)
        unbounded = make_runner(finsec_bundle, engine_config).run(
            make_metis(finsec_bundle), arrivals)
        stats = contended.resource_stats[PROFILER_RESOURCE]
        assert stats.n_queued > 0
        # ProfileStage is the only n_api_calls writer, so the ledger
        # counts profiler calls exactly.
        assert contended.ledger.n_api_calls == len(contended.records)
        assert stats.busy_seconds == pytest.approx(
            sum(r.profiler_seconds for r in contended.records))
        assert contended.ledger.api_dollars == unbounded.ledger.api_dollars

    def test_invalid_concurrency_rejected(self, finsec_bundle,
                                          engine_config):
        with pytest.raises(ValueError):
            make_runner(finsec_bundle, engine_config,
                        profiler_concurrency=0)
        with pytest.raises(ValueError):
            make_runner(finsec_bundle, engine_config,
                        shard_concurrency=-1)


class TestClosedLoopClients:
    def test_one_client_matches_plain_sequential(
            self, finsec_bundle, engine_config):
        arrivals = sequential_arrivals(finsec_bundle.queries[:10])
        policy = FixedConfigPolicy(STUFF6)
        base = make_runner(finsec_bundle, engine_config).run(
            policy, arrivals)
        explicit = make_runner(finsec_bundle, engine_config).run(
            FixedConfigPolicy(STUFF6), arrivals, closed_loop_clients=1)
        assert fingerprint(base) == fingerprint(explicit)

    @pytest.mark.parametrize("k", [2, 3])
    def test_outstanding_queries_bounded_by_k(
            self, k, finsec_bundle, engine_config):
        arrivals = sequential_arrivals(finsec_bundle.queries[:12])
        result = make_runner(finsec_bundle, engine_config).run(
            FixedConfigPolicy(STUFF6), arrivals, closed_loop_clients=k)
        assert len(result.records) == 12
        # Sweep in-flight intervals: never more than K outstanding.
        events = sorted(
            [(round(r.arrival_time, 7), 1) for r in result.records]
            + [(round(r.finish_time, 7), -1) for r in result.records],
            key=lambda p: (p[0], p[1]),
        )
        live = peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        assert peak <= k
        assert peak >= 2  # K clients genuinely overlap

    def test_more_clients_finish_no_later(self, finsec_bundle,
                                          engine_config):
        arrivals = sequential_arrivals(finsec_bundle.queries[:12])

        def makespan(k: int) -> float:
            return make_runner(finsec_bundle, engine_config).run(
                FixedConfigPolicy(STUFF6), arrivals,
                closed_loop_clients=k).makespan

        assert makespan(3) <= makespan(1) + 1e-9

    def test_clients_beyond_workload_size_ok(self, finsec_bundle,
                                             engine_config):
        arrivals = sequential_arrivals(finsec_bundle.queries[:4])
        result = make_runner(finsec_bundle, engine_config).run(
            FixedConfigPolicy(STUFF6), arrivals, closed_loop_clients=99)
        assert len(result.records) == 4

    def test_clients_rejected_for_open_loop(self, finsec_bundle,
                                            engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries[:4], 1.0, seed=0)
        with pytest.raises(ValueError, match="closed-loop"):
            make_runner(finsec_bundle, engine_config).run(
                FixedConfigPolicy(STUFF6), arrivals, closed_loop_clients=2)

    def test_zero_clients_rejected(self, finsec_bundle, engine_config):
        arrivals = sequential_arrivals(finsec_bundle.queries[:4])
        with pytest.raises(ValueError):
            make_runner(finsec_bundle, engine_config).run(
                FixedConfigPolicy(STUFF6), arrivals, closed_loop_clients=0)


class TestWorkloadValidation:
    """The pre-refactor check only fired when arrival 0 was open-loop;
    a closed-loop head followed by timed arrivals slipped through."""

    def test_open_then_closed_rejected(self, finsec_bundle, engine_config):
        queries = finsec_bundle.queries[:3]
        arrivals = [Arrival(queries[0], 0.5), Arrival(queries[1], None),
                    Arrival(queries[2], 1.0)]
        with pytest.raises(ValueError, match="mixed open/closed-loop"):
            make_runner(finsec_bundle, engine_config).run(
                FixedConfigPolicy(STUFF6), arrivals)

    def test_closed_then_open_rejected(self, finsec_bundle, engine_config):
        """The case the old first-arrival-only check silently mis-ran."""
        queries = finsec_bundle.queries[:2]
        arrivals = [Arrival(queries[0], None), Arrival(queries[1], 0.5)]
        with pytest.raises(ValueError, match="mixed open/closed-loop"):
            make_runner(finsec_bundle, engine_config).run(
                FixedConfigPolicy(STUFF6), arrivals)

    def test_error_names_offending_index(self, finsec_bundle):
        queries = finsec_bundle.queries[:3]
        arrivals = [Arrival(q, None) for q in queries[:2]]
        arrivals.append(Arrival(queries[2], 7.0))
        with pytest.raises(ValueError, match="arrival 2"):
            validate_arrivals(arrivals)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty workload"):
            validate_arrivals([])

    def test_valid_workloads_classified(self, finsec_bundle):
        queries = finsec_bundle.queries[:3]
        assert validate_arrivals(sequential_arrivals(queries)) is True
        assert validate_arrivals(
            poisson_arrivals(queries, 1.0, seed=0)) is False

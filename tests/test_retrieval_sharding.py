"""Pipeline-level tests for scatter-gather retrieval: K=1 equivalence,
per-shard contention, the rerank stage, runner fail-fast validation,
and per-shard reporting."""

import pytest

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data.workload import poisson_arrivals
from repro.evaluation.pipeline import (
    PROFILER_RESOURCE,
    RERANK_RESOURCE,
    RETRIEVAL_RESOURCE,
    shard_resource_name,
)
from repro.evaluation.reports import retrieval_shard_rows
from repro.evaluation.runner import ExperimentRunner
from repro.retrieval.rerank import ExactReranker

STUFF6 = RAGConfig(SynthesisMethod.STUFF, 6)


def fingerprint(result) -> list[tuple]:
    return [
        (r.query_id, r.arrival_time, r.decision_time, r.finish_time,
         r.f1, r.queueing_delay, r.prefill_tokens, r.output_tokens,
         r.replica, r.config)
        for r in result.records
    ]


def run_sharded(bundle, engine_config, arrivals=None, **kwargs):
    arrivals = arrivals or poisson_arrivals(bundle.queries, 2.0, seed=0)
    runner = ExperimentRunner(bundle, engine_config, seed=0, **kwargs)
    return runner.run(FixedConfigPolicy(STUFF6), arrivals)


class TestSingleShardEquivalence:
    """retrieval_shards=1 must be the pre-refactor path, byte for byte
    (the committed golden fingerprint in test_pipeline.py pins the
    absolute schedule; these pin the explicit-flag spellings)."""

    def test_explicit_one_shard_matches_default(self, finsec_bundle,
                                                engine_config):
        base = run_sharded(finsec_bundle, engine_config)
        explicit = run_sharded(finsec_bundle, engine_config,
                               retrieval_shards=1)
        assert fingerprint(base) == fingerprint(explicit)
        assert base.makespan == explicit.makespan

    def test_one_shard_keeps_legacy_resource_name(self, finsec_bundle,
                                                  engine_config):
        result = run_sharded(finsec_bundle, engine_config,
                             retrieval_shards=1)
        assert set(result.resource_stats) == {PROFILER_RESOURCE,
                                              RETRIEVAL_RESOURCE}
        assert result.n_retrieval_shards == 1
        assert result.reranker is None

    def test_one_shard_reuses_bundle_store(self, finsec_bundle,
                                           engine_config):
        runner = ExperimentRunner(finsec_bundle, engine_config,
                                  retrieval_shards=1)
        assert runner.store is finsec_bundle.store


class TestShardedOutcomes:
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_same_answers_any_k(self, n_shards, finsec_bundle,
                                engine_config):
        """Sharding is a performance knob: with an exact index the
        retrieved sets — and therefore every F1 — must not move."""
        base = run_sharded(finsec_bundle, engine_config)
        sharded = run_sharded(finsec_bundle, engine_config,
                              retrieval_shards=n_shards)
        assert sharded.n_retrieval_shards == n_shards
        by_id = {r.query_id: r for r in base.records}
        for record in sharded.records:
            want = by_id[record.query_id]
            assert record.f1 == want.f1
            assert record.n_chunks_retrieved == want.n_chunks_retrieved

    def test_per_shard_resources_reported(self, finsec_bundle,
                                          engine_config):
        result = run_sharded(finsec_bundle, engine_config,
                             retrieval_shards=4)
        names = {shard_resource_name(s, 4) for s in range(4)}
        assert names == {f"retrieval/shard{s}" for s in range(4)}
        assert names <= set(result.resource_stats)
        assert RETRIEVAL_RESOURCE not in result.resource_stats
        for name in names:
            assert result.resource_stats[name].n_requests == \
                len(result.records)

    def test_sharded_retrieval_shrinks_work_but_gathers(self, finsec_bundle,
                                                        engine_config):
        base = run_sharded(finsec_bundle, engine_config)
        sharded = run_sharded(finsec_bundle, engine_config,
                              retrieval_shards=4)
        # Per-shard executor work shrinks (each shard scans 1/K of the
        # corpus); the merge picks up a small per-candidate cost.
        base_busy = base.resource_stats[RETRIEVAL_RESOURCE].busy_seconds
        worst_shard = max(
            sharded.resource_stats[f"retrieval/shard{s}"].busy_seconds
            for s in range(4))
        assert worst_shard < base_busy
        assert base.mean_gather_seconds == 0.0
        assert sharded.mean_gather_seconds > 0.0
        assert all(r.gather_seconds > 0 for r in sharded.records)
        assert all(r.retrieval_seconds > 0 for r in sharded.records)

    def test_shard_contention_queues_independently(self, finsec_bundle,
                                                   engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 500.0, seed=0)
        result = run_sharded(finsec_bundle, engine_config,
                             arrivals=arrivals,
                             retrieval_shards=2, shard_concurrency=1)
        stats = [result.resource_stats[f"retrieval/shard{s}"]
                 for s in range(2)]
        assert all(s.n_queued > 0 for s in stats)
        assert any(r.retrieval_queue_delay > 0 for r in result.records)
        # The per-query wait is the max over shards, so it is at least
        # each record's own shards' mean.
        assert result.records

    def test_contended_sharded_run_is_deterministic(self, finsec_bundle,
                                                    engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 500.0, seed=0)

        def run_once():
            return run_sharded(finsec_bundle, engine_config,
                               arrivals=arrivals, retrieval_shards=4,
                               shard_concurrency=[1, 2, 1, 2])

        assert fingerprint(run_once()) == fingerprint(run_once())


class TestRerankStage:
    def test_exact_reranker_is_quality_neutral_on_flat(self, finsec_bundle,
                                                       engine_config):
        base = run_sharded(finsec_bundle, engine_config,
                           retrieval_shards=2)
        reranked = run_sharded(finsec_bundle, engine_config,
                               retrieval_shards=2, reranker="exact")
        by_id = {r.query_id: r for r in base.records}
        for record in reranked.records:
            assert record.f1 == by_id[record.query_id].f1

    def test_rerank_cost_and_stats_surface(self, finsec_bundle,
                                           engine_config):
        result = run_sharded(finsec_bundle, engine_config,
                             retrieval_shards=2, reranker="exact")
        assert result.reranker == "exact"
        assert RERANK_RESOURCE in result.resource_stats
        assert result.resource_stats[RERANK_RESOURCE].n_requests == \
            len(result.records)
        assert all(r.rerank_seconds > 0 for r in result.records)

    def test_custom_reranker_instance(self, finsec_bundle, engine_config):
        reranker = ExactReranker(per_candidate_seconds=1e-3,
                                 fetch_multiplier=2)
        result = run_sharded(finsec_bundle, engine_config,
                             retrieval_shards=2, reranker=reranker)
        # hold = per_candidate * pool; pool = sum_s min(2k, shard)
        assert all(r.rerank_seconds >= 1e-3 * 6 for r in result.records)

    def test_reranker_on_ivf_runs(self, finsec_bundle, engine_config):
        result = run_sharded(finsec_bundle, engine_config,
                             retrieval_shards=4, index="ivf",
                             reranker="exact")
        assert len(result.records) == len(finsec_bundle.queries)
        assert all(r.n_chunks_retrieved > 0 for r in result.records)


class TestRunnerValidation:
    def test_bad_shard_count(self, finsec_bundle, engine_config):
        for bad in (0, -2, 1.5):
            with pytest.raises(ValueError, match="retrieval_shards"):
                ExperimentRunner(finsec_bundle, engine_config,
                                 retrieval_shards=bad)

    def test_shard_concurrency_length_mismatch(self, finsec_bundle,
                                               engine_config):
        with pytest.raises(ValueError, match="3 entries.*retrieval_shards "
                                             "is 2"):
            ExperimentRunner(finsec_bundle, engine_config,
                             retrieval_shards=2,
                             shard_concurrency=[1, 2, 3])

    def test_shard_concurrency_bad_entry(self, finsec_bundle,
                                         engine_config):
        with pytest.raises(ValueError, match=r"shard_concurrency\[1\]"):
            ExperimentRunner(finsec_bundle, engine_config,
                             retrieval_shards=2,
                             shard_concurrency=[1, 0])

    def test_retrieval_concurrency_conflicts_with_shards(
            self, finsec_bundle, engine_config):
        with pytest.raises(ValueError, match="retrieval_concurrency"):
            ExperimentRunner(finsec_bundle, engine_config,
                             retrieval_shards=2, retrieval_concurrency=4)

    def test_retrieval_concurrency_conflicts_with_shard_concurrency(
            self, finsec_bundle, engine_config):
        with pytest.raises(ValueError, match="not both"):
            ExperimentRunner(finsec_bundle, engine_config,
                             retrieval_concurrency=4, shard_concurrency=2)

    def test_unknown_index_and_reranker(self, finsec_bundle,
                                        engine_config):
        with pytest.raises(ValueError, match="unknown index factory"):
            ExperimentRunner(finsec_bundle, engine_config, index="hnsw")
        with pytest.raises(ValueError, match="unknown reranker"):
            ExperimentRunner(finsec_bundle, engine_config,
                             reranker="cross-encoder")

    def test_broadcast_single_int(self, finsec_bundle, engine_config):
        runner = ExperimentRunner(finsec_bundle, engine_config,
                                  retrieval_shards=3, shard_concurrency=2)
        assert runner.shard_concurrency == [2, 2, 2]


class TestRetrievalShardRows:
    def test_rows_cover_shards_and_reranker(self, finsec_bundle,
                                            engine_config):
        result = run_sharded(finsec_bundle, engine_config,
                             retrieval_shards=4, shard_concurrency=1,
                             reranker="exact")
        rows = retrieval_shard_rows(result)
        shards = [r["shard"] for r in rows if r["resource"] != "reranker"]
        assert shards == [0, 1, 2, 3]
        reranker_rows = [r for r in rows if r["resource"] == "reranker"]
        assert len(reranker_rows) == 1
        assert reranker_rows[0]["shard"] == "-"
        assert all(r["requests"] == len(result.records) for r in rows)

    def test_unsharded_row_shape(self, finsec_bundle, engine_config):
        result = run_sharded(finsec_bundle, engine_config)
        rows = retrieval_shard_rows(result)
        assert len(rows) == 1
        assert rows[0]["resource"] == RETRIEVAL_RESOURCE
        assert rows[0]["shard"] == "-"

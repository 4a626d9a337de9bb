"""Property tests for the K-shard vector store: placement determinism,
gather correctness vs the unsharded store, stable tie-breaking, the
per-shard timing model, resharding, pluggable indexes, and the
query-side memo."""

import numpy as np
import pytest

from repro.data import build_dataset
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import default_engine_config, make_metis
from repro.retrieval.chunker import Chunk
from repro.retrieval.embedding import HashedEmbedding
from repro.retrieval.index import (
    INDEX_FACTORIES,
    AutoTrainedIVFIndex,
    FlatL2Index,
)
from repro.retrieval.rerank import ExactReranker, make_reranker
from repro.retrieval.sharded import PLACEMENT_SEED, ShardedVectorStore
from repro.util.rng import derive_seed
from repro.workload import zipfian_workload

WORDS = (
    "nvidia apple tesla revenue cost profit quarter guidance asia europe "
    "cloud chips margin growth outlook capital research deal supply demand"
).split()


def make_chunks(n: int, seed: int = 0) -> list[Chunk]:
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n):
        text = " ".join(rng.choice(WORDS, size=8))
        chunks.append(Chunk(chunk_id=f"c{i}", doc_id=f"d{i % 5}",
                            text=text, n_tokens=8, position=i))
    return chunks


def build(n_shards: int, chunks=None, **kwargs) -> ShardedVectorStore:
    store = ShardedVectorStore(
        n_shards=n_shards, embedding=HashedEmbedding(dim=64), **kwargs)
    store.add_chunks(chunks if chunks is not None else make_chunks(40))
    return store


class TestPlacement:
    def test_deterministic_across_builds(self):
        a, b = build(4), build(4)
        for chunk in make_chunks(40):
            assert a.shard_of(chunk.chunk_id) == b.shard_of(chunk.chunk_id)

    def test_matches_published_hash_scheme(self):
        store = build(4)
        for cid in ("c0", "c7", "c39"):
            assert store.shard_of(cid) == derive_seed(0, "shard", cid) % 4

    def test_placement_independent_of_insertion_order(self):
        chunks = make_chunks(40)
        a = build(4, chunks=chunks)
        b = ShardedVectorStore(n_shards=4, embedding=HashedEmbedding(dim=64))
        b.add_chunks(list(reversed(chunks)))
        for chunk in chunks:
            assert a.shard_of(chunk.chunk_id) == b.shard_of(chunk.chunk_id)

    def test_placement_seed_changes_layout(self):
        """The layout is the PLACEMENT_SEED hash; another seed would lay
        the same chunks out differently."""
        store = build(8)
        ids = [f"c{i}" for i in range(40)]
        layout = [store.shard_of(cid) for cid in ids]
        assert layout == [derive_seed(PLACEMENT_SEED, "shard", cid) % 8
                          for cid in ids]
        assert layout != [derive_seed(PLACEMENT_SEED + 1, "shard", cid) % 8
                          for cid in ids]

    def test_single_shard_holds_everything(self):
        store = build(1)
        assert store.shard_sizes == [40]

    def test_shards_partition_the_corpus(self):
        store = build(4)
        assert sum(store.shard_sizes) == 40
        assert all(size > 0 for size in store.shard_sizes)


class TestGatherCorrectness:
    """Sharded scatter-gather must return the unsharded top-k set."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_same_topk_set_as_unsharded(self, n_shards, k):
        chunks = make_chunks(40)
        flat = build(1, chunks=chunks)
        sharded = build(n_shards, chunks=chunks)
        for query in ("nvidia revenue asia", "cloud chips outlook",
                      "tesla profit margin guidance"):
            want = {h.chunk.chunk_id for h in flat.search(query, k)}
            got = {h.chunk.chunk_id for h in sharded.search(query, k)}
            assert got == want

    def test_single_shard_bit_identical_to_legacy_store(self):
        chunks = make_chunks(40)
        # Default construction is the single-shard store datasets build.
        legacy = ShardedVectorStore(embedding=HashedEmbedding(dim=64))
        legacy.add_chunks(chunks)
        sharded = build(1, chunks=chunks)
        for k in (1, 7, 40):
            a = legacy.search("nvidia revenue asia", k)
            b = sharded.search("nvidia revenue asia", k)
            assert [(h.chunk.chunk_id, h.distance, h.rank) for h in a] == \
                [(h.chunk.chunk_id, h.distance, h.rank) for h in b]

    def test_gather_distances_nondecreasing(self):
        store = build(4)
        hits = store.search("supply demand growth", 12)
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)
        assert [h.rank for h in hits] == list(range(len(hits)))

    def test_ties_break_by_insertion_position(self):
        # Identical texts embed identically -> exact distance ties that
        # land on different shards; gather must order them by corpus
        # insertion position, not by shard id.
        chunks = [Chunk(chunk_id=f"t{i}", doc_id="d", text="nvidia cost",
                        n_tokens=2, position=i) for i in range(8)]
        store = build(4, chunks=chunks)
        hits = store.search("nvidia cost", 8)
        assert [h.chunk.chunk_id for h in hits] == [f"t{i}" for i in range(8)]

    def test_k_clamped_and_empty(self):
        store = build(4)
        assert len(store.search("anything", 99)) == 40
        empty = ShardedVectorStore(n_shards=4,
                                   embedding=HashedEmbedding(dim=64))
        assert empty.search("anything", 5) == []
        with pytest.raises(ValueError):
            store.search("x", 0)

    def test_duplicate_chunk_ids_rejected_within_batch(self):
        store = build(2)
        dup = make_chunks(2)[:1] * 2
        with pytest.raises(ValueError, match="duplicate"):
            ShardedVectorStore(embedding=HashedEmbedding(dim=64)) \
                .add_chunks(dup)
        with pytest.raises(ValueError, match="duplicate"):
            store.add_chunks(make_chunks(1))


class TestTimingModel:
    def test_whole_corpus_shard_is_exactly_legacy_constant(self):
        store = build(1, retrieval_latency_s=0.004)
        assert store.shard_hold_seconds(0) == 0.004

    def test_shard_hold_shrinks_with_k_but_keeps_overhead_floor(self):
        chunks = make_chunks(64)
        l_full = 0.1
        holds = {}
        for n_shards in (1, 2, 4, 8):
            store = build(n_shards, chunks=chunks,
                          retrieval_latency_s=l_full)
            holds[n_shards] = max(store.shard_hold_seconds(s)
                                  for s in range(n_shards))
        assert holds[1] == l_full
        assert holds[1] > holds[2] > holds[4] > holds[8]
        # Fixed overhead: even tiny shards cost >= fraction * L.
        assert holds[8] > 0.25 * l_full

    def test_gather_free_at_one_shard_and_for_exact_k(self):
        assert build(1).gather_seconds(12, 12) == 0.0
        store = build(4, gather_per_candidate_s=1e-3)
        assert store.gather_seconds(5, 5) == 0.0
        assert store.gather_seconds(20, 5) == pytest.approx(15e-3)

    def test_exact_sq_distance_matches_index(self):
        store = build(1)
        qvec = store.embed_query("nvidia revenue asia")
        for hit in store.search("nvidia revenue asia", 5):
            assert store.exact_sq_distance(qvec, hit.chunk.chunk_id) == \
                pytest.approx(hit.distance, abs=1e-5)


class TestReshard:
    def test_preserves_corpus_and_results(self):
        chunks = make_chunks(40)
        base = build(1, chunks=chunks)
        for n_shards in (2, 4):
            clone = base.reshard(n_shards)
            assert len(clone) == len(base)
            assert clone.get("c3").text == base.get("c3").text
            want = {h.chunk.chunk_id for h in base.search("asia cloud", 6)}
            got = {h.chunk.chunk_id for h in clone.search("asia cloud", 6)}
            assert got == want

    def test_inherits_and_overrides_timing(self):
        base = build(1, retrieval_latency_s=0.5,
                     gather_per_candidate_s=3e-3)
        clone = base.reshard(4)
        assert clone.retrieval_latency_s == 0.5
        assert clone.gather_per_candidate_s == 3e-3
        faster = base.reshard(4, retrieval_latency_s=0.1)
        assert faster.retrieval_latency_s == 0.1

    def test_keeps_index_label(self):
        base = build(1)
        assert base.reshard(2).index_label == "flat"
        assert base.reshard(2, index_factory="ivf").index_label == "ivf"


class TestPluggableIndex:
    def test_named_factories(self):
        assert set(INDEX_FACTORIES) == {"flat", "ivf"}
        flat = build(2, index_factory="flat")
        assert isinstance(flat._shards[0].index, FlatL2Index)
        ivf = build(2, index_factory="ivf")
        assert isinstance(ivf._shards[0].index, AutoTrainedIVFIndex)
        assert ivf._shards[0].index.is_trained

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown index factory"):
            ShardedVectorStore(index_factory="hnsw")

    def test_ivf_auto_train_clamps_nlist_to_tiny_shard(self):
        index = AutoTrainedIVFIndex(8, nlist=16, nprobe=4)
        index.add(np.eye(8, dtype=np.float32)[:3])
        assert index.is_trained
        assert index.nlist <= 3
        distances, indices = index.search(np.eye(8, dtype=np.float32)[:1], 2)
        assert indices[0][0] >= 0

    def test_ivf_store_searches(self):
        store = build(4, index_factory="ivf")
        hits = store.search("nvidia revenue asia", 5)
        assert hits
        assert [h.rank for h in hits] == list(range(len(hits)))

    def test_callable_factory(self):
        store = build(2, index_factory=lambda dim: FlatL2Index(dim))
        assert len(store.search("asia", 3)) == 3


class TestExactReranker:
    def test_reranks_overfetched_pool_by_true_distance(self):
        # On an approximate index the reranker's exact re-scoring must
        # order the over-fetched pool by true distance and pick its
        # best k — which equals the flat top-k whenever the pool
        # contains it.
        chunks = make_chunks(60)
        flat = build(1, chunks=chunks)
        ivf = build(4, chunks=chunks, index_factory="ivf")
        reranker = ExactReranker()
        qvec = ivf.embed_query("nvidia revenue asia")
        pool = ivf.search("nvidia revenue asia", reranker.fetch_k(5))
        top = reranker.rerank(ivf, qvec, pool, 5)
        assert len(top) == 5
        distances = [h.distance for h in top]
        assert distances == sorted(distances)
        pool_ids = {h.chunk.chunk_id for h in pool}
        assert {h.chunk.chunk_id for h in top} <= pool_ids
        flat_ids = {h.chunk.chunk_id
                    for h in flat.search("nvidia revenue asia", 5)}
        if flat_ids <= pool_ids:
            assert {h.chunk.chunk_id for h in top} == flat_ids

    def test_noop_on_exact_candidates(self):
        store = build(2)
        qvec = store.embed_query("cloud chips outlook")
        pool = store.search("cloud chips outlook", 12)
        reranked = ExactReranker().rerank(store, qvec, pool, 4)
        assert [h.chunk.chunk_id for h in reranked] == \
            [h.chunk.chunk_id for h in pool[:4]]

    def test_make_reranker(self):
        assert make_reranker(None) is None
        assert isinstance(make_reranker("exact"), ExactReranker)
        custom = ExactReranker()
        assert make_reranker(custom) is custom
        with pytest.raises(ValueError, match="unknown reranker"):
            make_reranker("cross-encoder")

    def test_cost_model(self):
        reranker = ExactReranker()
        assert reranker.fetch_k(5) == 20
        assert reranker.hold_seconds(20) == pytest.approx(4e-3)


def _ranked(hits) -> list[tuple]:
    return [(h.chunk.chunk_id, h.distance, h.rank) for h in hits]


class TestQueryMemo:
    """embed_query/search_shard compute once per distinct input; the
    memo is derived-only, so every answer equals a fresh store's."""

    @pytest.mark.parametrize("index", ["flat", "ivf"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_memoized_answers_equal_a_never_queried_clone(self, n_shards,
                                                          index):
        store = build(n_shards, chunks=make_chunks(60), index_factory=index)
        rng = np.random.default_rng(n_shards)
        texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 6))))
                 for _ in range(6)]
        for _ in range(30):
            text = texts[int(rng.integers(len(texts)))]
            k = int(rng.integers(1, 25))
            fresh = store.reshard(n_shards)
            assert _ranked(store.search(text, k)) == \
                _ranked(fresh.search(text, k))
            qvec = store.embed_query(text)
            assert np.array_equal(qvec, fresh.embed_query(text))
            for sid in range(n_shards):
                # A writeable copy bypasses the clone's memo entirely.
                assert store.search_shard(sid, qvec, k) == \
                    fresh.search_shard(sid, qvec.copy(), k)

    def test_repeats_return_equal_but_distinct_lists(self):
        store = build(4)
        qvec = store.embed_query("nvidia revenue asia")
        assert store.embed_query("nvidia revenue asia") is qvec
        first = store.search_shard(0, qvec, 5)
        second = store.search_shard(0, qvec, 5)
        assert first == second and first is not second
        first.clear()  # a caller's edit must not reach the memo
        assert store.search_shard(0, qvec, 5) == second

    def test_returned_vector_is_read_only(self):
        qvec = build(2).embed_query("cloud chips outlook")
        with pytest.raises(ValueError):
            qvec[0] = 1.0

    def test_writeable_vector_bypasses_memo(self):
        store = build(4)
        qvec = store.embed_query("nvidia revenue asia")
        other = store.embed_query("tesla profit margin")
        assert store.search_shard(1, qvec, 6) != \
            store.search_shard(1, other, 6)
        probe = qvec.copy()
        assert store.search_shard(1, probe, 6) == \
            store.search_shard(1, qvec, 6)
        probe[:] = other  # same object, new contents
        assert store.search_shard(1, probe, 6) == \
            store.search_shard(1, other, 6)

    def test_add_chunks_invalidates(self):
        store = build(4)
        text = "tesla capital deal"
        assert "dup" not in {h.chunk.chunk_id for h in store.search(text, 3)}
        store.add_chunks([Chunk(chunk_id="dup", doc_id="d", text=text,
                                n_tokens=3, position=40)])
        top = store.search(text, 3)[0]
        assert top.chunk.chunk_id == "dup"
        assert top.distance == pytest.approx(0.0, abs=1e-5)


class TestWarmMemoDeterminism:
    def test_warm_store_serves_the_records_of_a_fresh_bundle(self):
        """At K=1 the runner searches the bundle's own store, whose
        memo stays warm from one run to the next: the records must be
        those of a freshly built bundle."""
        workload = zipfian_workload(n_periods=4, period_s=30.0,
                                    rate_qps=1.0, pool_size=20, seed=0)

        def serve(runner, bundle):
            arrivals = workload.materialize(bundle.queries, seed=0)
            result = runner.run(make_metis(bundle), arrivals)
            return [repr(record) for record in result.records]

        def fresh_runner():
            bundle = build_dataset("finsec", n_queries=20, cache=False)
            return bundle, ExperimentRunner(
                bundle, default_engine_config(), seed=0,
                result_cache="semantic")

        bundle, runner = fresh_runner()
        assert runner.store is bundle.store
        cold, warm = serve(runner, bundle), serve(runner, bundle)
        fresh = serve(*reversed(fresh_runner()))
        assert cold == warm == fresh

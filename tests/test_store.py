"""Unit tests for the vector store."""

import pytest

from repro.retrieval.chunker import Chunk
from repro.retrieval.embedding import HashedEmbedding
from repro.retrieval.sharded import ShardedVectorStore


def make_chunk(cid: str, text: str) -> Chunk:
    return Chunk(chunk_id=cid, doc_id="d", text=text,
                 n_tokens=len(text.split()), position=0)


@pytest.fixture()
def store():
    s = ShardedVectorStore(embedding=HashedEmbedding(dim=64))
    s.add_chunks([
        make_chunk("c0", "nvidia operating cost rose in q1 2024"),
        make_chunk("c1", "apple revenue grew across asia markets"),
        make_chunk("c2", "weather tomorrow will be rainy in paris"),
    ])
    return s


class TestVectorStore:
    def test_len(self, store):
        assert len(store) == 3

    def test_search_ranks_relevant_first(self, store):
        hits = store.search("nvidia operating cost q1", k=3)
        assert hits[0].chunk.chunk_id == "c0"
        assert [h.rank for h in hits] == [0, 1, 2]

    def test_search_k_clamped_to_store_size(self, store):
        assert len(store.search("anything", k=10)) == 3

    def test_get_roundtrip(self, store):
        assert store.get("c1").text.startswith("apple")

    def test_get_unknown_raises(self, store):
        with pytest.raises(KeyError):
            store.get("nope")

    def test_duplicate_chunk_id_rejected(self, store):
        with pytest.raises(ValueError, match="duplicate"):
            store.add_chunks([make_chunk("c0", "again")])

    def test_empty_store_search(self):
        s = ShardedVectorStore(embedding=HashedEmbedding(dim=64))
        assert s.search("whatever", k=5) == []

    def test_invalid_k(self, store):
        with pytest.raises(ValueError):
            store.search("x", k=0)

    def test_add_empty_is_noop(self, store):
        store.add_chunks([])
        assert len(store) == 3

    def test_distances_nondecreasing(self, store):
        hits = store.search("nvidia cost", k=3)
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)

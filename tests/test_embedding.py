"""Unit tests for hashed embeddings and IDF weighting."""

from collections import Counter

import numpy as np
import pytest

from repro.llm.tokenizer import SimTokenizer
from repro.retrieval.embedding import HashedEmbedding, IdfWeights


def idf_over(texts):
    """IDF weights fitted on ``texts``' token counts."""
    tokenizer = SimTokenizer()
    return IdfWeights().fit(Counter(tokenizer.tokenize(t)) for t in texts)


class TestHashedEmbedding:
    def test_unit_norm(self):
        emb = HashedEmbedding()
        v = emb.embed("the quick brown fox")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-5)

    def test_empty_text_is_zero_vector(self):
        emb = HashedEmbedding()
        assert np.linalg.norm(emb.embed("")) == 0.0

    def test_deterministic(self):
        a = HashedEmbedding().embed("hello world")
        b = HashedEmbedding().embed("hello world")
        assert np.allclose(a, b)

    def test_families_differ(self):
        """FAMILY seeds every token's hash: another family is another
        (similarly capable) embedding model."""

        class OtherFamily(HashedEmbedding):
            FAMILY = "fam-b"

        a = HashedEmbedding().embed("hello world")
        b = OtherFamily().embed("hello world")
        assert not np.allclose(a, b)

    def test_similar_texts_closer_than_dissimilar(self):
        emb = HashedEmbedding()
        q = emb.embed("nvidia operating cost q1 2024")
        close = emb.embed("the operating cost of nvidia in q1 2024 was high")
        far = emb.embed("rainy weather in paris tomorrow morning")
        assert float(q @ close) > float(q @ far)

    def test_batch_matches_single(self):
        emb = HashedEmbedding()
        texts = ["alpha beta", "gamma delta"]
        batch = emb.embed_batch(texts)
        assert np.allclose(batch[0], emb.embed(texts[0]))
        assert np.allclose(batch[1], emb.embed(texts[1]))

    def test_empty_batch_shape(self):
        emb = HashedEmbedding(dim=64)
        assert emb.embed_batch([]).shape == (0, 64)

    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            HashedEmbedding(dim=4)


class TestIdfWeights:
    def test_rare_tokens_weigh_more(self):
        idf = idf_over(["the cat", "the dog", "the bird", "rare word"])
        assert idf.weight("rare") > idf.weight("the")

    def test_unseen_token_gets_max_weight(self):
        idf = idf_over(["a b", "a c"])
        assert idf.weight("zzz") >= idf.weight("b")

    def test_fit_resets_state(self):
        idf = idf_over(["x x x"])
        first = idf.weight("x")
        idf.fit([Counter(["y"])] * 3)
        assert idf.weight("x") > first  # x now unseen → max weight

    def test_idf_changes_embedding(self):
        corpus = ["common filler words here"] * 10 + ["special entity fact"]
        idf = idf_over(corpus)
        plain = HashedEmbedding()
        weighted = HashedEmbedding(idf=idf)
        text = "common special"
        assert not np.allclose(plain.embed(text), weighted.embed(text))

    def test_idf_improves_discrimination(self):
        corpus = [
            "report overview the quarterly entity alpha numbers",
            "report overview the quarterly entity beta numbers",
        ]
        idf = idf_over(corpus)
        emb = HashedEmbedding(idf=idf)
        q = emb.embed("alpha")
        sim_match = float(q @ emb.embed(corpus[0]))
        sim_other = float(q @ emb.embed(corpus[1]))
        assert sim_match > sim_other

    def test_batch_fits_an_unfitted_idf(self):
        """Indexing fits the IDF on the batch it embeds: the same
        weights and rows as fitting first and embedding after."""
        corpus = ["report overview the entity alpha numbers",
                  "report overview the entity beta", "alpha alpha gamma"]
        lazy = HashedEmbedding(idf=IdfWeights())
        rows = lazy.embed_batch(corpus)
        assert lazy.idf.fitted
        eager = HashedEmbedding(idf=idf_over(corpus))
        for token in ("report", "alpha", "gamma", "unseen"):
            assert lazy.idf.weight(token) == eager.idf.weight(token)
        for row, text in zip(rows, corpus):
            assert row.tobytes() == eager.embed(text).tobytes()

    def test_later_batches_keep_the_fit(self):
        idf = idf_over(["alpha beta", "alpha gamma"])
        before = idf.weight("beta")
        HashedEmbedding(idf=idf).embed_batch(["alpha"] * 5)
        assert idf.weight("beta") == before

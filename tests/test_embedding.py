"""Unit tests for hashed embeddings and IDF weighting."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embedding_reference import embed_batch_reference, embed_reference
from repro.llm.tokenizer import SimTokenizer
from repro.retrieval.embedding import _BLOCK_ROWS, HashedEmbedding, IdfWeights


def idf_over(texts):
    """IDF weights fitted on ``texts``' document frequencies."""
    tokenizer = SimTokenizer()
    df = Counter(tok for t in texts for tok in set(tokenizer.tokenize(t)))
    return IdfWeights().fit_df(len(texts), df)


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
        assert batch[0].tobytes() == emb.embed(texts[0]).tobytes()
        assert batch[1].tobytes() == emb.embed(texts[1]).tobytes()

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
        idf.fit_df(3, {"y": 3})
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


def _texts(n, seed=0):
    """``n`` texts of 0–120 words from a 300-word vocabulary: repeated
    words (``tf > 1``), words long enough to split, one empty text."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" if i % 3 else f"longword{i}x" for i in range(300)]
    texts = [
        " ".join(vocab[j] for j in rng.integers(len(vocab),
                                                size=rng.integers(0, 120)))
        for _ in range(n)
    ]
    texts[n // 2] = ""
    return texts


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestMatchesReference:
    """The vectorized embedder equals the per-token loop it replaced
    (``tests/embedding_reference.py``) byte for byte: each coordinate
    takes its tokens' float64 weights in token order, rounding to
    float32 after each add."""

    @pytest.mark.parametrize("dim", [8, 37, 512])
    @pytest.mark.parametrize("use_idf", [True, False])
    def test_batch_and_embed(self, dim, use_idf):
        texts = _texts(2 * _BLOCK_ROWS + 7)
        emb = HashedEmbedding(dim=dim, idf=IdfWeights() if use_idf else None)
        ref = HashedEmbedding(dim=dim, idf=IdfWeights() if use_idf else None)
        assert _same_bytes(emb.embed_batch(texts),
                           embed_batch_reference(ref, texts))
        for text in texts + _texts(20, seed=1):
            assert _same_bytes(emb.embed(text), embed_reference(emb, text))

    def test_deep_collisions_and_repeats(self):
        """At ``dim=8``, 40 distinct tokens stack 3 or more deep on a
        coordinate, and each repeats (``tf > 1``)."""
        text = " ".join([f"t{i}" for i in range(40)] * 3)
        emb = HashedEmbedding(dim=8)
        coords = Counter(emb._token_coord(f"t{i}")[0] for i in range(40))
        assert max(coords.values()) >= 3
        assert _same_bytes(emb.embed(text), embed_reference(emb, text))
        assert _same_bytes(emb.embed_batch([text])[0],
                           embed_reference(emb, text))

    def test_empty_text(self):
        emb = HashedEmbedding(dim=8)
        assert _same_bytes(emb.embed(""), embed_reference(emb, ""))
        assert _same_bytes(emb.embed_batch(["", "a"]),
                           embed_batch_reference(emb, ["", "a"]))

    @given(st.text(alphabet="abcdefghij '.,\t", max_size=200),
           st.sampled_from([8, 512]))
    def test_any_text(self, text, dim):
        emb = HashedEmbedding(dim=dim, idf=idf_over(_texts(10)))
        assert _same_bytes(emb.embed(text), embed_reference(emb, text))

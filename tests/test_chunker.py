"""Unit tests for document chunking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.tokenizer import SimTokenizer
from repro.retrieval.chunker import split_into_chunks

tok = SimTokenizer()


def make_doc(n_sentences: int, words_per_sentence: int = 8) -> str:
    return " ".join(
        " ".join(f"word{i}x{j}"[:6] for j in range(words_per_sentence)) + "."
        for i in range(n_sentences)
    )


class TestSplit:
    def test_respects_token_budget(self):
        doc = make_doc(40)
        for chunk in split_into_chunks("d", doc, chunk_tokens=64):
            assert chunk.n_tokens <= 64 + 16  # +16: one sentence of slack

    def test_all_text_retained(self):
        doc = make_doc(10)
        chunks = split_into_chunks("d", doc, chunk_tokens=128)
        joined = " ".join(c.text for c in chunks)
        for i in range(10):
            assert f"word{i}" in joined

    def test_chunk_ids_unique_and_positional(self):
        chunks = split_into_chunks("docA", make_doc(40), chunk_tokens=64)
        assert [c.position for c in chunks] == list(range(len(chunks)))
        assert len({c.chunk_id for c in chunks}) == len(chunks)
        assert all(c.doc_id == "docA" for c in chunks)

    def test_sentences_not_split_when_they_fit(self):
        sentence = "alpha beta gamma delta."
        doc = sentence + " " + sentence
        chunks = split_into_chunks("d", doc, chunk_tokens=6)
        for chunk in chunks:
            assert "alpha beta gamma delta" in chunk.text

    def test_oversized_sentence_hard_split(self):
        sentence = " ".join(f"w{i}" for i in range(100)) + "."
        chunks = split_into_chunks("d", sentence, chunk_tokens=20)
        assert len(chunks) >= 5
        assert all(c.n_tokens <= 21 for c in chunks)

    def test_oversized_word_cut_at_token_boundaries(self):
        chunks = split_into_chunks("d", "a" * 200 + " b c", chunk_tokens=10)
        assert [c.n_tokens for c in chunks] == [10] * 5 + [2]
        assert [c.text for c in chunks] == ["a" * 40] * 5 + ["b c"]

    def test_cut_word_keeps_its_case(self):
        """``extr aord inar y`` cut after two tokens: the rest, ``inary``,
        is short enough to be one token."""
        chunks = split_into_chunks("d", "Extraordinary", chunk_tokens=2)
        assert [c.text for c in chunks] == ["Extraord", "inary"]
        assert [c.n_tokens for c in chunks] == [2, 1]

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(st.text(max_size=300),
                     st.text(alphabet="aB'.,-\u0130\u00df \t", max_size=300)),
           st.integers(min_value=1, max_value=24))
    def test_no_chunk_over_budget(self, text, budget):
        chunks = split_into_chunks("d", text, chunk_tokens=budget)
        assert max((c.n_tokens for c in chunks), default=0) <= budget
        for chunk in chunks:
            assert chunk.n_tokens == tok.count(chunk.text)

    def test_empty_document(self):
        assert split_into_chunks("d", "", chunk_tokens=64) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            split_into_chunks("d", "x", chunk_tokens=0)

    @settings(deadline=None, max_examples=200)
    @given(st.text(alphabet="ab'.!? ,3\n", max_size=300),
           st.integers(min_value=1, max_value=24))
    def test_n_tokens_counts_the_chunk_text(self, text, budget):
        """The summed piece counts equal a fresh count of the joined
        text: no token spans the joining space."""
        for chunk in split_into_chunks("d", text, chunk_tokens=budget):
            assert chunk.n_tokens == tok.count(chunk.text)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=16, max_value=256))
    def test_token_conservation(self, n_sentences, budget):
        doc = make_doc(n_sentences)
        chunks = split_into_chunks("d", doc, chunk_tokens=budget)
        total = sum(c.n_tokens for c in chunks)
        assert total == pytest.approx(tok.count(doc), abs=n_sentences)

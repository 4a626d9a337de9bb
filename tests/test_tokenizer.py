"""Unit tests for the deterministic tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm.tokenizer import SimTokenizer

tok = SimTokenizer()


class TestTokenize:
    def test_simple_words(self):
        assert tok.tokenize("the cat sat") == ["the", "cat", "sat"]

    def test_lowercases(self):
        assert tok.tokenize("The CAT") == ["the", "cat"]

    def test_punctuation_is_separate_tokens(self):
        assert tok.tokenize("hello, world!") == ["hello", ",", "world", "!"]

    def test_long_words_split_into_pieces(self):
        pieces = tok.tokenize("extraordinary")
        assert pieces == ["extr", "aord", "inar", "y"]

    def test_six_letter_word_is_single_token(self):
        assert tok.tokenize("stadium") != ["stadium"]  # 7 letters → split
        assert tok.tokenize("stadia") == ["stadia"]  # 6 letters → whole

    def test_numbers_tokenize(self):
        assert tok.tokenize("q1 2024") == ["q1", "2024"]

    def test_empty_string(self):
        assert tok.tokenize("") == []

    def test_whitespace_only(self):
        assert tok.tokenize("  \n\t ") == []


class TestCount:
    def test_count_matches_tokenize(self):
        text = "Compare NVIDIA's operating cost over the first three quarters."
        assert tok.count(text) == len(tok.tokenize(text))

    @given(st.text(max_size=300))
    def test_count_always_matches_tokenize(self, text):
        assert tok.count(text) == len(tok.tokenize(text))

    def test_count_is_deterministic(self):
        text = "hello world " * 50
        assert tok.count(text) == tok.count(text)


@pytest.mark.parametrize("text,expected_min", [
    ("a b c", 3),
    ("punctuation, everywhere!", 3),
])
def test_token_floor(text, expected_min):
    assert tok.count(text) >= expected_min

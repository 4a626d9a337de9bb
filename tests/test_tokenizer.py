"""Unit tests for the deterministic tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm import tokenizer
from repro.llm.tokenizer import SimTokenizer
from tokenizer_reference import tokenize_reference

tok = SimTokenizer()

#: Characters of a run: ASCII word characters of both cases, plus
#: letters whose lowercase stays non-ASCII (``ß``, ``é``), becomes ASCII
#: (``K``, the Kelvin sign) or grows a combining mark (``İ`` lowers to
#: ``i`` plus U+0307).
_WORD_CHARS = "abcxyzABCXYZ0189'" + "\u0130\u212a\u00df\u00e9"
#: Unicode whitespace and punctuation between runs.
_SEPARATORS = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000" + ".,;!?-()$%"

#: Runs of 5–14 word characters, straddling the 6/7 whole-word limit
#: and the 4-character piece edges, joined by separator runs.
_targeted_text = st.lists(
    st.tuples(
        st.text(alphabet=_WORD_CHARS, min_size=5, max_size=14),
        st.text(alphabet=_SEPARATORS, max_size=3),
    ),
    max_size=8,
).map(lambda parts: "".join(run + sep for run, sep in parts))


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


class TestMatchesReference:
    """The one-regex tokenizer equals the split-then-slice loop it
    replaced (``tests/tokenizer_reference.py``) token for token."""

    @pytest.mark.parametrize("text", [
        "abcdef", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklm",
        "ABCDEF abcdefg", "abcdef\tabcdefg", "12345,1234567", "it's",
        "don't'x'", "''''''", "'''''''", "a-bcdefg", "abcdefg.abcdef",
        "\u0130stanbul", "\u212aelvins", "stra\u00dfe", "caf\u00e9s",
        "abcde\u00e9fghij", "abc\u3000defghij\xa0k",
    ])
    def test_examples(self, text):
        assert tok.tokenize(text) == tokenize_reference(text)

    @given(st.one_of(_targeted_text, st.text(max_size=300)))
    def test_matches_reference(self, text):
        assert tok.tokenize(text) == tokenize_reference(text)


#: Every Unicode whitespace character (the last is U+3000).
_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())

#: Text over every whitespace character, ASCII word characters and
#: punctuation, and letters that lowercase to non-ASCII, to ASCII or to
#: two characters (``İ``), including a final sigma.
_word_split_text = st.text(
    alphabet=_WHITESPACE + "abcXYZ09'.,-" + "\u0130\u212a\u00df\u00e9\u03a3",
    max_size=200)


class TestWordMemo:
    """A text's tokens are its lowercased whitespace words' tokens, so
    a memo per word gives the whole text's tokens."""

    @given(st.one_of(_word_split_text, st.text(max_size=200)))
    def test_tokens_are_the_words_tokens(self, text):
        by_word = [t for w in text.lower().split()
                   for t in tokenize_reference(w)]
        assert tokenize_reference(text) == by_word
        assert tok.tokenize(text) == by_word
        assert tok.word_counts(text) == [
            len(tokenize_reference(w)) for w in text.split()]

    def test_memo_stays_bounded_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(tokenizer, "_WORD_MEMO_CAP", 8)
        monkeypatch.setattr(tokenizer, "_word_memo", tokenizer._WordMemo())
        text = " ".join(f"w{i}x{'y' * (i % 9)}," for i in range(50))
        for _ in range(2):
            assert tok.tokenize(text) == tokenize_reference(text)
            assert tok.count(text) == len(tokenize_reference(text))
            assert len(tokenizer._word_memo) <= 8


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

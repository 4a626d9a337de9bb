"""Unit tests for the dataset generator internals."""

import dataclasses

import numpy as np
import pytest

from repro.data import vocab
from repro.data.datasets import build_dataset, get_spec
from repro.data.generator import DatasetSpec, generate_dataset
from repro.data.vocab import (
    _ENTITY_SUFFIXES,
    _SYLLABLES,
    FILLER_WORDS,
    VALUE_WORDS,
    make_entity_name,
    make_filler,
    make_filler_sentence,
    make_value_phrase,
)
from repro.llm import tokenizer
from repro.llm.tokenizer import SimTokenizer
from repro.util.rng import RngStreams, stream


@pytest.fixture()
def rng():
    return RngStreams(0).get("test")


class TestVocab:
    def test_entity_names_are_short_tokens(self, rng):
        for kind in ("corp", "place", "person", "team"):
            name = make_entity_name(rng, kind)
            first = name.split()[0]
            assert len(first) <= 6  # stays a single tokenizer token

    def test_entity_kinds_have_distinct_suffixes(self, rng):
        place = make_entity_name(rng, "place")
        assert place.split()[-1] in ("county", "city", "valley", "district")

    def test_value_phrase_length(self, rng):
        assert len(make_value_phrase(rng, 4).split()) == 4

    def test_value_phrase_beyond_pool_pads(self, rng):
        n = len(VALUE_WORDS) + 5
        phrase = make_value_phrase(rng, n)
        assert len(phrase.split()) == n
        assert len(set(phrase.split())) == n  # still no duplicates

    def test_value_phrase_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            make_value_phrase(rng, 0)

    def test_filler_topic_rate_zero_uses_only_filler(self, rng):
        sentence = make_filler_sentence(rng, ("zzztopic",), topic_rate=0.0)
        assert "zzztopic" not in sentence

    def test_filler_topic_rate_one_uses_only_topic(self, rng):
        sentence = make_filler_sentence(rng, ("zzztopic",), topic_rate=1.0)
        words = sentence.rstrip(".").lower().split()
        assert all(w == "zzztopic" for w in words)

    def test_filler_vocab_disjoint_from_values(self):
        assert not set(FILLER_WORDS) & set(VALUE_WORDS)


def reference_entity_name(rng, kind="corp"):
    """``make_entity_name`` as written with ``Generator.choice``."""
    first = (rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES))[:6]
    if kind == "person":
        second = (rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES))[:6]
        return f"{first.capitalize()} {second.capitalize()}"
    if kind == "place":
        suffix = rng.choice(("county", "city", "valley", "district"))
        return f"{first.capitalize()} {suffix}"
    if kind == "team":
        suffix = rng.choice(("committee", "team", "group", "council"))
        return f"{first.capitalize()} {suffix}"
    suffix = rng.choice(_ENTITY_SUFFIXES[:7])
    return f"{first.capitalize()} {suffix}"


def reference_filler_sentence(rng, topic_words, n_words=12,
                              topic_rate=0.25):
    """``make_filler_sentence`` as written with ``Generator.choice``."""
    words = []
    for _ in range(n_words):
        use_topic = topic_words and rng.random() < topic_rate
        pool = topic_words if use_topic else FILLER_WORDS
        words.append(str(rng.choice(pool)))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


class TestChoiceStreamEquivalence:
    """Drawing a word as ``pool[rng.integers(len(pool))]`` consumes the
    same bits as ``rng.choice(pool)``: equal words, and the generator
    left in the same state for every later draw. Fails if a numpy
    release changes how ``choice`` samples a sequence."""

    SEEDS = (0, 1, 7, 2024)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("topic_rate", (0.0, 0.18, 1.0))
    @pytest.mark.parametrize("topic_words", (
        (), ("zzztopic",),
        ("acme", "revenue", "growth", "margin", "debt", "outlook"),
    ), ids=("none", "one", "many"))
    def test_filler_sentence(self, seed, topic_rate, topic_words):
        fast, ref = stream(seed, "filler"), stream(seed, "filler")
        for i in range(60):
            n_words = 1 + i % 16
            assert make_filler_sentence(
                fast, topic_words, n_words=n_words, topic_rate=topic_rate,
            ) == reference_filler_sentence(
                ref, topic_words, n_words=n_words, topic_rate=topic_rate,
            )
        assert fast.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ("corp", "place", "person", "team"))
    def test_entity_name(self, seed, kind):
        fast, ref = stream(seed, "entity"), stream(seed, "entity")
        for _ in range(200):
            name = make_entity_name(fast, kind)
            assert type(name) is str
            assert name == reference_entity_name(ref, kind)
        assert fast.bit_generator.state == ref.bit_generator.state


def reference_filler(rng, topic_words, need, topic_rate):
    """``make_filler`` as the loop the corpus builder ran before it drew
    a block per document: one ``make_filler_sentence`` at a time until
    the running token count reaches ``need``."""
    tokenizer = SimTokenizer()
    sentences, tokens = [], 0
    while tokens < need:
        sentence = make_filler_sentence(rng, topic_words,
                                        topic_rate=topic_rate)
        sentences.append(sentence)
        tokens += tokenizer.count(sentence)
    return sentences, tokens


class TestFillerBlockStream:
    """``make_filler`` draws a document's filler from one block of raw
    PCG64 outputs; the scalar loop is the oracle. Equal sentences, equal
    token totals and an equal ``bit_generator.state`` after every call,
    so every later draw of the corpus stream sees the same bits."""

    SEEDS = (0, 1, 7, 2024)
    NEEDS = (1, 12, 13, 14, 27, 150, 999, 3000, 0, 2, 400)
    POOLS = {
        "one": ("zzztopic",),
        "two": ("acme", "quarterly"),
        "six": ("acme", "revenue", "growth", "margin", "debt", "outlook"),
    }

    def race(self, seed, pool, topic_rate, buffered):
        block, ref = stream(seed, "filler"), stream(seed, "filler")
        if buffered:
            # One integers draw leaves the high half of a raw output in
            # PCG64's 32-bit buffer.
            assert block.integers(5) == ref.integers(5)
            assert block.bit_generator.state["has_uint32"] == 1
        for need in self.NEEDS:
            got = make_filler(block, pool, need, topic_rate)
            want = reference_filler(ref, pool, need, topic_rate)
            assert got == want, f"need={need}"
            assert block.bit_generator.state == ref.bit_generator.state, \
                f"need={need}"
        # The stream goes on identically, buffer included.
        assert block.integers(1000, size=5).tolist() \
            == ref.integers(1000, size=5).tolist()
        assert block.random() == ref.random()

    @pytest.mark.parametrize("buffered", (False, True),
                             ids=("unbuffered", "buffered"))
    @pytest.mark.parametrize("topic_rate", (0.0, 0.05, 0.18, 1.0))
    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_matches_scalar_loop(self, seed, pool, topic_rate,
                                       buffered):
        self.race(seed, self.POOLS[pool], topic_rate, buffered)

    @pytest.mark.parametrize("buffered", (False, True),
                             ids=("unbuffered", "buffered"))
    def test_possible_rejection_takes_the_scalar_loop(self, monkeypatch,
                                                      buffered):
        """Where Lemire could reject a draw, the block is discarded and
        the scalar loop runs from the saved state."""
        calls = []
        scalar = vocab._filler_scalar

        def counted(*args):
            calls.append(args[2])
            return scalar(*args)

        def never_exact(halves, sizes):
            product = halves * sizes
            return product >> np.uint64(32), np.zeros(len(halves), bool)

        monkeypatch.setattr(vocab, "_filler_scalar", counted)
        monkeypatch.setattr(vocab, "_lemire", never_exact)
        self.race(7, self.POOLS["six"], 0.18, buffered)
        assert calls == [n for n in self.NEEDS if n > 0]

    def test_lemire_flags_only_possible_rejections(self):
        halves = np.array([0, 1, 2**32 - 1, 3, 2**31], dtype=np.uint64)
        sizes = np.array([6, 42, 42, 6, 6], dtype=np.uint64)
        index, exact = vocab._lemire(halves, sizes)
        assert index.tolist() == [(int(u) * int(n)) >> 32
                                  for u, n in zip(halves, sizes)]
        # Low 32 bits of u*n: 0, 42, 2**32-42, 18, 0.
        assert exact.tolist() == [False, True, True, True, False]


#: ``SimTokenizer.tokenize`` calls in one seed-0 build of each dataset
#: (upper bounds): one per document's entity name and one per query-side
#: template. Indexing counts chunks from their word counts; tokenizing
#: each chunk again would add one call per chunk.
BUILD_TOKENIZE_CALLS = {
    "finsec": 301,
    "musique": 306,
    "qmsum": 383,
    "squad": 206,
}

#: Regex passes in one seed-0 build from a cold word memo (upper
#: bounds): one per distinct lowercased whitespace word the build meets.
#: One pass per sentence or per chunk would take thousands.
BUILD_REGEX_PASSES = {
    "finsec": 336,
    "musique": 438,
    "qmsum": 308,
    "squad": 325,
}


class _CountingPattern:
    """A compiled pattern that counts its ``findall`` passes."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.passes = 0

    def findall(self, text):
        self.passes += 1
        return self.pattern.findall(text)


@pytest.mark.parametrize("name", sorted(BUILD_TOKENIZE_CALLS))
def test_build_work_counts(monkeypatch, name):
    """One-sided gate on a build's deterministic work: a count above its
    pin fails by name; a count below passes and is printed, and the
    change that lowers it updates the pin. No document of the four
    seed-0 corpora takes the scalar filler loop."""
    counts = {"tokenize": 0, "scalar filler": 0}
    tokenize = SimTokenizer.tokenize
    scalar = vocab._filler_scalar
    pattern = _CountingPattern(tokenizer._TOKEN_RE)

    def counted_tokenize(self, text):
        counts["tokenize"] += 1
        return tokenize(self, text)

    def counted_scalar(*args):
        counts["scalar filler"] += 1
        return scalar(*args)

    monkeypatch.setattr(SimTokenizer, "tokenize", counted_tokenize)
    monkeypatch.setattr(vocab, "_filler_scalar", counted_scalar)
    monkeypatch.setattr(tokenizer, "_TOKEN_RE", pattern)
    monkeypatch.setattr(tokenizer, "_word_memo", tokenizer._WordMemo())
    build_dataset(name, seed=0, cache=False)
    counts["regex passes"] = pattern.passes
    pins = {"tokenize": BUILD_TOKENIZE_CALLS[name], "scalar filler": 0,
            "regex passes": BUILD_REGEX_PASSES[name]}
    above = [f"{what} = {counts[what]:,} > pin {pin:,}"
             for what, pin in pins.items() if counts[what] > pin]
    assert not above, f"{name}: " + "; ".join(above)
    for what, pin in pins.items():
        if counts[what] < pin:
            print(f"{name}: {what} = {counts[what]:,} is below its pin "
                  f"{pin:,}; lower the pin")


class TestDatasetSpecValidation:
    def test_pieces_probs_must_sum_to_one(self):
        spec = get_spec("squad")
        with pytest.raises(ValueError, match="sum to 1"):
            dataclasses.replace(spec, pieces_probs=((1, 0.5), (2, 0.4)))

    def test_needs_enough_docs(self):
        spec = get_spec("squad")
        with pytest.raises(ValueError, match="4 documents"):
            dataclasses.replace(spec, n_docs=2)

    def test_needs_queries(self):
        spec = get_spec("squad")
        with pytest.raises(ValueError, match="1 query"):
            dataclasses.replace(spec, n_queries=0)


class TestGeneratedStructure:
    @pytest.fixture(scope="class")
    def tiny(self):
        spec = dataclasses.replace(get_spec("musique"), n_docs=8,
                                   n_queries=15)
        return generate_dataset(spec, seed=1)

    def test_doc_lengths_in_range(self, tiny):
        lo, hi = get_spec("musique").doc_token_range
        for n in tiny.doc_tokens.values():
            assert lo * 0.8 <= n <= hi * 1.2

    def test_cross_doc_queries_span_documents(self, tiny):
        multi = [q for q in tiny.queries
                 if q.truth.pieces_of_information >= 2]
        assert multi, "expected some multi-piece queries"
        spanning = 0
        for q in multi:
            docs = {tiny.facts[fid].doc_id
                    for fid in q.truth.required_fact_ids}
            if len(docs) >= 2:
                spanning += 1
        assert spanning / len(multi) > 0.7

    def test_summary_range_tracks_verbosity(self, tiny):
        for q in tiny.queries:
            lo, hi = q.truth.summary_range
            max_verbosity = max(tiny.facts[fid].verbosity
                                for fid in q.truth.required_fact_ids)
            assert hi >= max_verbosity  # budget can hold the worst fact

    def test_answer_estimate_close_to_truth(self, tiny):
        for q in tiny.queries:
            truth_len = (len(q.truth.answer_template_tokens)
                         + sum(len(tiny.facts[fid].value_tokens)
                               for fid in q.truth.required_fact_ids))
            assert q.answer_tokens_estimate >= min(truth_len, 4)

    def test_same_doc_queries_prefer_distinct_chunks(self):
        spec = dataclasses.replace(get_spec("finsec"), n_docs=8,
                                   n_queries=20)
        bundle = generate_dataset(spec, seed=2)
        fact_chunk = {fid: cid for cid, fids in bundle.chunk_facts.items()
                      for fid in fids}
        for q in bundle.queries:
            if q.truth.pieces_of_information < 3:
                continue
            chunks = {fact_chunk[fid] for fid in q.truth.required_fact_ids}
            # At least two distinct chunks involved for 3+-piece queries.
            assert len(chunks) >= 2

"""The memoized quality harness against its unmemoized reference.

``MetricHarness`` memoizes whole scores per run, chunk token sets and
the fact → chunks map per bundle (``docs/EVALUATION.md``). Every memo
is keyed on the exact inputs of a pure function, so on any draw the
harness must equal
``metrics_reference.score_reference`` bit for bit: repeated triples,
replays of one logical query, another query's answer scored against
this one (the shape of a semantic cache hit), empty answers, empty
contexts, and chunks whose text has no tokens.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from metrics_reference import relevant_chunk_ids_reference, score_reference
from repro.data import build_dataset
from repro.evaluation.metrics import MetricHarness
from repro.retrieval.chunker import Chunk

NOISE = ("≠noise0", "≠noise1", "≠noise2")


def reference_answer(bundle, query) -> list[str]:
    tokens = list(query.truth.answer_template_tokens)
    for fact_id in query.truth.required_fact_ids:
        tokens.extend(bundle.facts[fact_id].value_tokens)
    return tokens


def draw_answer(rng: random.Random, bundle, query, chunk_ids) -> list[str]:
    """An answer shaped like one the generator or a cache would serve."""
    shape = rng.randrange(5)
    if shape == 0:
        return []
    if shape == 1:  # another query's answer: a semantic hit's shape
        return reference_answer(bundle, rng.choice(bundle.queries))
    tokens = reference_answer(bundle, query)
    if shape == 2:  # drop some facts, add noise
        tokens = [t for t in tokens if rng.random() < 0.7]
        tokens += rng.sample(NOISE, rng.randrange(len(NOISE) + 1))
    elif shape == 3 and chunk_ids:  # words lifted from the context
        text = bundle.store.get(rng.choice(chunk_ids)).text
        words = bundle.tokenizer.tokenize(text)
        tokens += rng.sample(words, min(len(words), rng.randrange(1, 8)))
    rng.shuffle(tokens)
    return tokens


def draw_chunk_ids(rng: random.Random, bundle, query,
                   all_ids: list[str]) -> list[str]:
    if rng.random() < 0.1:
        return []
    relevant = sorted(relevant_chunk_ids_reference(bundle, query))
    picked = rng.sample(relevant, rng.randrange(len(relevant) + 1))
    picked += rng.sample(all_ids, rng.randrange(12))
    picked = list(dict.fromkeys(picked))
    rng.shuffle(picked)
    return picked


def race(bundle, harness: MetricHarness, rng: random.Random,
         n_draws: int, all_ids: list[str] | None = None) -> int:
    """Score ``n_draws`` random triples (re-scoring some earlier ones)
    and assert each equals the reference. Context is drawn from
    ``all_ids`` (default: every chunk of the corpus). Returns the
    repeat count."""
    if all_ids is None:
        all_ids = list(bundle.chunk_facts)
    seen: list[tuple] = []
    repeats = 0
    for _ in range(n_draws):
        if seen and rng.random() < 0.3:
            query, answer, chunk_ids = rng.choice(seen)
            if rng.random() < 0.5:  # a replay of the same logical query
                query = dataclasses.replace(
                    query, query_id=f"{query.query_id}#r{rng.randrange(9)}")
            repeats += 1
        else:
            query = rng.choice(bundle.queries)
            chunk_ids = draw_chunk_ids(rng, bundle, query, all_ids)
            answer = draw_answer(rng, bundle, query, chunk_ids)
            seen.append((query, answer, chunk_ids))
        got = harness.score(query, answer, chunk_ids)
        want = score_reference(bundle, query, answer, chunk_ids)
        assert repr(got) == repr(want), (query.query_id, answer, chunk_ids)
    return repeats


@pytest.mark.parametrize("name", ["squad", "musique", "finsec", "qmsum"])
def test_memoized_harness_equals_reference(all_bundles, name):
    bundle = all_bundles[name]
    rng = random.Random(name)
    assert race(bundle, MetricHarness(bundle), rng, n_draws=250) > 0


def test_chunks_without_tokens_match_reference():
    """A chunk whose text has no tokens grounds nothing, alone or next
    to real chunks."""
    bundle = build_dataset("finsec", n_queries=8, cache=False)
    bundle.store.add_chunks([
        Chunk(chunk_id=f"blank{i}", doc_id="blank", text=text,
              n_tokens=1, position=i)
        for i, text in enumerate(("", "   "))])
    assert bundle.chunk_token_set("blank0") == frozenset()
    harness = MetricHarness(bundle)
    query = bundle.queries[0]
    relevant = sorted(bundle.relevant_chunk_ids(query))
    answers = (reference_answer(bundle, query), [], list(NOISE))
    contexts = (["blank0"], ["blank0", "blank1"], ["blank1"] + relevant,
                relevant + ["blank0"])
    for answer in answers:
        for chunk_ids in contexts:
            assert repr(harness.score(query, answer, chunk_ids)) == \
                repr(score_reference(bundle, query, answer, chunk_ids))
    assert harness.faithfulness(query, answers[0], ["blank0"]) == 0.0
    blanks = ["blank0", "blank1"] * 20
    assert race(bundle, harness, random.Random(3), n_draws=100,
                all_ids=list(bundle.chunk_facts) + blanks) > 0


def test_repeated_triple_returns_the_memoized_score(finsec_bundle):
    harness = MetricHarness(finsec_bundle)
    query = finsec_bundle.queries[0]
    answer = reference_answer(finsec_bundle, query)
    chunk_ids = sorted(finsec_bundle.relevant_chunk_ids(query))
    assert len(chunk_ids) > 1
    first = harness.score(query, answer, chunk_ids)
    replay = dataclasses.replace(query, query_id=f"{query.query_id}#r4")
    assert harness.score(replay, tuple(answer), tuple(chunk_ids)) is first
    # Order is part of the key: precision is rank-weighted.
    assert harness.score(query, answer, chunk_ids[::-1]) is not first


@pytest.mark.parametrize("name", ["squad", "musique", "finsec", "qmsum"])
def test_relevant_chunk_ids_equal_the_scan(name):
    bundle = build_dataset(name)
    for query in bundle.queries:
        assert bundle.relevant_chunk_ids(query) == \
            relevant_chunk_ids_reference(bundle, query)


def test_hit_ground_truth_ignores_chunk_ids(finsec_bundle):
    """The cache-hit F1 builds its truth without chunks: the reference
    tokens of a synthesis context never depend on them."""
    rng = random.Random(0)
    all_ids = list(finsec_bundle.chunk_facts)
    for query in finsec_bundle.queries:
        chunk_ids = rng.sample(all_ids, rng.randrange(10))
        chunk_ids += sorted(finsec_bundle.relevant_chunk_ids(query))
        assert (finsec_bundle.synthesis_context(query, chunk_ids)
                .ground_truth_tokens()
                == finsec_bundle.synthesis_context(query, [])
                .ground_truth_tokens())

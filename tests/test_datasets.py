"""Unit tests for synthetic dataset generation."""

import dataclasses

import numpy as np
import pytest

from repro.data import DATASET_NAMES, build_dataset, get_spec
from repro.data.facts import Fact
from repro.llm.tokenizer import SimTokenizer


class TestRegistry:
    def test_four_datasets(self):
        assert set(DATASET_NAMES) == {"squad", "musique", "finsec", "qmsum"}

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="musique"):
            get_spec("hotpot")

    def test_cache_returns_same_object(self):
        a = build_dataset("squad", n_queries=10)
        b = build_dataset("squad", n_queries=10)
        assert a is b

    def test_cache_bypass(self):
        a = build_dataset("squad", n_queries=10)
        b = build_dataset("squad", n_queries=10, cache=False)
        assert a is not b


class TestBundleIntegrity:
    @pytest.fixture(params=list(DATASET_NAMES))
    def bundle(self, request, all_bundles):
        return all_bundles[request.param]

    def test_every_fact_in_exactly_one_chunk(self, bundle):
        placed = [fid for fids in bundle.chunk_facts.values() for fid in fids]
        assert len(placed) == len(set(placed))
        assert set(placed) == set(bundle.facts)

    def test_fact_sentences_present_in_chunks(self, bundle):
        fact_chunk = {
            fid: cid
            for cid, fids in bundle.chunk_facts.items()
            for fid in fids
        }
        for fid, fact in list(bundle.facts.items())[:20]:
            chunk = bundle.store.get(fact_chunk[fid])
            assert fact.sentence in chunk.text

    def test_queries_reference_known_facts(self, bundle):
        for q in bundle.queries:
            for fid in q.truth.required_fact_ids:
                assert fid in bundle.facts

    def test_query_text_mentions_fact_entities(self, bundle):
        for q in bundle.queries[:10]:
            for fid in q.truth.required_fact_ids:
                entity_word = bundle.facts[fid].entity.split()[0].lower()
                assert entity_word in q.text.lower()

    def test_joint_reasoning_iff_multi_piece_mostly(self, bundle):
        for q in bundle.queries:
            if q.truth.pieces_of_information > 1:
                assert q.truth.joint_reasoning

    def test_chunk_sizes_respect_spec(self, bundle):
        for chunk_id in list(bundle.chunk_facts)[:50]:
            chunk = bundle.store.get(chunk_id)
            assert chunk.n_tokens <= bundle.chunk_tokens + 32


class TestTable1Calibration:
    @pytest.mark.parametrize("name,input_lo,input_hi,output_hi", [
        ("squad", 300, 2_300, 20),
        ("musique", 800, 5_500, 35),
        ("finsec", 3_000, 11_000, 70),
        ("qmsum", 3_000, 13_000, 90),
    ])
    def test_token_ranges(self, all_bundles, name, input_lo, input_hi,
                          output_hi):
        row = all_bundles[name].table1_row()
        assert input_lo <= row["input_p10"] <= row["input_p90"] <= input_hi
        assert row["output_p10"] >= 3
        assert row["output_p90"] <= output_hi


class TestRetrievalQuality:
    def test_recall_at_3n_is_high(self, all_bundles):
        """Paper footnote 5: retrievers need 2-3x slack to find the
        needed information."""
        for name, bundle in all_bundles.items():
            recalls = []
            for q in bundle.queries:
                relevant = bundle.relevant_chunk_ids(q)
                hits = bundle.store.search(
                    q.text, 3 * q.truth.pieces_of_information
                )
                found = {h.chunk.chunk_id for h in hits}
                recalls.append(len(relevant & found) / len(relevant))
            assert np.mean(recalls) > 0.7, name

    def test_recall_improves_with_k(self, finsec_bundle):
        def recall_at(mult):
            vals = []
            for q in finsec_bundle.queries:
                relevant = finsec_bundle.relevant_chunk_ids(q)
                hits = finsec_bundle.store.search(
                    q.text, mult * q.truth.pieces_of_information
                )
                found = {h.chunk.chunk_id for h in hits}
                vals.append(len(relevant & found) / len(relevant))
            return np.mean(vals)

        assert recall_at(1) < recall_at(2) < recall_at(3) + 0.01


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = build_dataset("musique", seed=3, n_queries=10, cache=False)
        b = build_dataset("musique", seed=3, n_queries=10, cache=False)
        assert [q.text for q in a.queries] == [q.text for q in b.queries]
        assert set(a.facts) == set(b.facts)

    def test_different_seed_differs(self):
        a = build_dataset("musique", seed=3, n_queries=10, cache=False)
        b = build_dataset("musique", seed=4, n_queries=10, cache=False)
        assert [q.text for q in a.queries] != [q.text for q in b.queries]


class TestFactRendering:
    def test_styles_differ(self):
        args = ("Acme corp", "net revenue q1 2024", "azure delta")
        plain = Fact.render_sentence(*args, style="plain")
        report = Fact.render_sentence(*args, style="report")
        meeting = Fact.render_sentence(*args, style="meeting")
        assert len({plain, report, meeting}) == 3
        for s in (plain, report, meeting):
            assert "azure delta" in s

    def test_view_projects_tokens(self, finsec_bundle):
        fact = next(iter(finsec_bundle.facts.values()))
        view = fact.view()
        assert view.fact_id == fact.fact_id
        assert len(view.value_tokens) >= 1
        assert view.verbosity == fact.verbosity

    def test_cached_value_tokens_keep_value_semantics(self):
        fact = Fact(fact_id="d0/f0", doc_id="d0", entity="Acme corp",
                    attribute="net revenue", value_text="azure delta 42",
                    sentence="The net revenue of Acme corp is azure delta 42.",
                    verbosity=8.0)
        twin = dataclasses.replace(fact)
        tokens = fact.value_tokens
        assert tokens == tuple(SimTokenizer().tokenize("azure delta 42"))
        assert fact.value_tokens is tokens  # tokenized once
        assert fact == twin and hash(fact) == hash(twin)
        assert repr(fact) == repr(twin)
        assert dataclasses.replace(fact) == fact
        moved = dataclasses.replace(fact, value_text="violet echo")
        assert moved != fact
        assert moved.value_tokens == tuple(
            SimTokenizer().tokenize("violet echo"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fact.value_text = "x"

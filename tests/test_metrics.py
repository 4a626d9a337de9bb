"""Unit + integration tests for the multi-metric quality harness
(``repro.evaluation.metrics``, ``docs/EVALUATION.md``).

Covers the metric edge cases (empty context, zero-token answers,
template-only answers), the determinism contract (same bundle content
→ bit-identical scores across builds, processes, and hash seeds), the
exact-duplicate cache-hit parity guarantee, and the quality-SLO spec
layer.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data import build_dataset
from repro.evaluation.metrics import (
    METRIC_NAMES,
    MetricHarness,
    QualitySLO,
)
from repro.evaluation.slo import evaluate_quality_slo
from repro.experiments.common import run_policy
from repro.util.ids import canonical_query_id
from repro.workload import zipfian_workload


@pytest.fixture(scope="module")
def bundle():
    return build_dataset("finsec", seed=0, n_queries=12)


@pytest.fixture(scope="module")
def harness(bundle):
    return MetricHarness(bundle)


@pytest.fixture(scope="module")
def query(bundle):
    return bundle.queries[0]


def reference_answer(bundle, query) -> list[str]:
    """Template tokens plus every required fact's value tokens — the
    fully grounded, fully relevant answer."""
    tokens = list(query.truth.answer_template_tokens)
    for fact_id in query.truth.required_fact_ids:
        tokens.extend(bundle.facts[fact_id].value_tokens)
    return tokens


class TestMetricValues:
    def test_reference_answer_scores_high(self, bundle, harness, query):
        chunk_ids = list(bundle.relevant_chunk_ids(query))
        m = harness.score(query, reference_answer(bundle, query), chunk_ids)
        for name in METRIC_NAMES:
            assert 0.0 <= getattr(m, name) <= 1.0
        # Every claim token is planted in a relevant chunk, every
        # required fact is covered, every retrieved chunk is relevant.
        assert m.faithfulness == 1.0
        assert m.context_precision == 1.0
        assert m.context_recall == 1.0
        assert m.answer_relevancy > 0.1

    def test_empty_context(self, bundle, harness, query):
        """No retrieved chunks: claims are ungrounded, nothing is
        relevant, nothing is recalled."""
        m = harness.score(query, reference_answer(bundle, query), [])
        assert m.faithfulness == 0.0
        assert m.context_precision == 0.0
        assert m.context_recall == 0.0
        assert m.answer_relevancy > 0.0  # relevancy ignores context

    def test_zero_token_answer(self, bundle, harness, query):
        chunk_ids = list(bundle.relevant_chunk_ids(query))
        m = harness.score(query, [], chunk_ids)
        # Nothing asserted -> vacuously faithful; nothing to embed ->
        # zero relevancy. Context metrics don't depend on the answer.
        assert m.faithfulness == 1.0
        assert m.answer_relevancy == 0.0
        assert m.context_recall == 1.0

    def test_template_only_answer_is_vacuously_faithful(
            self, bundle, harness, query):
        template = list(query.truth.answer_template_tokens)
        assert harness.faithfulness(query, template, []) == 1.0

    def test_ungroundable_tokens_cut_faithfulness(
            self, bundle, harness, query):
        chunk_ids = list(bundle.relevant_chunk_ids(query))
        grounded = reference_answer(bundle, query)
        noisy = grounded + ["≠wrong0", "≠wrong1"]
        assert (harness.faithfulness(query, noisy, chunk_ids)
                < harness.faithfulness(query, grounded, chunk_ids))

    def test_precision_is_rank_weighted(self, bundle, harness, query):
        relevant = list(bundle.relevant_chunk_ids(query))[:1]
        # Any chunk id outside the relevant set works as a distractor.
        distractor = next(
            cid for cid in bundle.chunk_facts
            if cid not in set(bundle.relevant_chunk_ids(query)))
        top = harness.context_precision(query, relevant + [distractor])
        buried = harness.context_precision(query, [distractor] + relevant)
        assert top == 1.0
        assert 0.0 < buried < top

    def test_irrelevant_context_scores_zero_precision(
            self, bundle, harness, query):
        relevant = set(bundle.relevant_chunk_ids(query))
        distractors = [cid for cid in bundle.chunk_facts
                       if cid not in relevant][:3]
        assert harness.context_precision(query, distractors) == 0.0


class TestQualitySLOSpec:
    def test_parse_roundtrip(self):
        slo = QualitySLO.parse("faithfulness>=0.8")
        assert slo == QualitySLO("faithfulness", 0.8)
        assert slo.spec == "faithfulness>=0.8"
        assert QualitySLO.parse(slo.spec) == slo

    def test_parse_strips_whitespace(self):
        assert (QualitySLO.parse("context_recall >= 0.5")
                == QualitySLO("context_recall", 0.5))

    @pytest.mark.parametrize("spec", [
        "faithfulness",            # no operator
        "faithfulness>=high",      # non-numeric threshold
        "f1>=0.5",                 # unknown metric
        "faithfulness>=1.5",       # out of range
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            QualitySLO.parse(spec)


class TestDeterminism:
    def test_same_bundle_content_same_scores(self, bundle, query):
        """Two independently built bundles with the same content give
        bit-identical metrics (no RNG, no wall clock, no id() leaks)."""
        rebuilt = build_dataset("finsec", seed=0, n_queries=12)
        a = MetricHarness(bundle)
        b = MetricHarness(rebuilt)
        answer = reference_answer(bundle, query)
        chunk_ids = list(bundle.relevant_chunk_ids(query))[::-1]
        assert (a.score(query, answer, chunk_ids)
                == b.score(rebuilt.queries[0], answer, chunk_ids))

    def test_scores_identical_across_processes(self, tmp_path):
        """Fresh interpreters with different hash seeds produce the
        same scores — the cross-process half of the determinism
        contract (docs/EVALUATION.md)."""
        script = tmp_path / "score.py"
        script.write_text(
            "import json\n"
            "from repro.data import build_dataset\n"
            "from repro.evaluation.metrics import MetricHarness\n"
            "bundle = build_dataset('finsec', seed=0, n_queries=6)\n"
            "harness = MetricHarness(bundle)\n"
            "out = []\n"
            "for q in bundle.queries:\n"
            "    tokens = list(q.truth.answer_template_tokens)\n"
            "    for fid in q.truth.required_fact_ids:\n"
            "        tokens.extend(bundle.facts[fid].value_tokens)\n"
            "    m = harness.score(q, tokens,\n"
            "                      list(bundle.relevant_chunk_ids(q)))\n"
            "    out.append([m.faithfulness, m.answer_relevancy,\n"
            "                m.context_precision, m.context_recall])\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(repro.__file__).parents[1])
        outputs = []
        for hash_seed in ("0", "42"):
            env = dict(os.environ, PYTHONPATH=src,
                       PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, str(script)], env=env,
                capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])  # non-empty, parseable


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def cached_run(self, bundle):
        trace = zipfian_workload(seed=0, pool_size=12, n_periods=4,
                                 period_s=30.0, rate_qps=1.0, zipf_s=1.1)
        return run_policy(
            bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 6)),
            workload=trace, quality_metrics=True,
            result_cache="exact", cache_capacity=64)

    def test_every_record_is_scored(self, cached_run):
        assert cached_run.quality_metrics
        assert cached_run.n_quality_scored == len(cached_run.records)
        for name in METRIC_NAMES:
            assert math.isfinite(cached_run.mean_metric(name))

    def test_mean_metric_rejects_unknown_name(self, cached_run):
        with pytest.raises(ValueError):
            cached_run.mean_metric("f1")

    def test_exact_hits_reproduce_miss_metrics(self, cached_run):
        """An exact-duplicate hit serves the cached answer against the
        cached context, so all four metrics equal the original miss's
        — bit for bit, not approximately."""
        first_miss = {}
        for r in cached_run.records:
            cid = canonical_query_id(r.query_id)
            if not r.cache_hit and cid not in first_miss:
                first_miss[cid] = r
        hits = [r for r in cached_run.records if r.cache_hit]
        assert hits, "trace produced no cache hits"
        for r in hits:
            miss = first_miss[canonical_query_id(r.query_id)]
            for name in METRIC_NAMES:
                assert getattr(r, name) == getattr(miss, name)

    def test_quality_off_leaves_records_unscored(self, bundle):
        result = run_policy(
            bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 6)))
        assert not result.quality_metrics
        assert result.n_quality_scored == 0
        assert all(r.faithfulness is None for r in result.records)
        assert math.isnan(result.mean_faithfulness)


class TestQualitySLOEvaluation:
    def test_trivial_threshold_attains_fully(self, bundle):
        result = run_policy(
            bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 6)),
            quality_metrics=True)
        report = evaluate_quality_slo(result, "faithfulness>=0.0")
        assert report.n_scored == len(result.records)
        assert report.attainment == 1.0
        assert report.shortfall == 0.0

    def test_unscored_run_reports_zero_attainment(self, bundle):
        result = run_policy(
            bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 6)))
        report = evaluate_quality_slo(
            result, QualitySLO("faithfulness", 0.5))
        # Records exist but none were scored: attainment 0.0 (mirrors
        # slo_attainment's unstamped convention), mean unknown.
        assert report.n_queries == len(result.records)
        assert report.n_scored == 0
        assert report.attainment == 0.0
        assert math.isnan(report.mean_value)

    def test_as_row_renders(self, bundle):
        result = run_policy(
            bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 6)),
            quality_metrics=True)
        row = evaluate_quality_slo(result, "context_recall>=0.5").as_row()
        assert row["slo"] == "context_recall>=0.5"
        assert row["queries"] == len(result.records)

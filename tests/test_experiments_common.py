"""Unit tests for shared experiment infrastructure."""

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.evaluation.pipeline import QueryRecord
from repro.evaluation.runner import RunResult
from repro.experiments.common import (
    DEFAULT_RATES,
    ExperimentReport,
    fixed_config_grid,
    is_diverging,
    select_best_quality,
    select_closest_quality,
    select_similar_delay,
)
from repro.experiments.service_time import isolated_plan_seconds
from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.llm.costs import RooflineCostModel
from repro.serving.engine import EngineStats
from repro.synthesis import make_synthesizer
from repro.evaluation.costs import CostLedger


def fake_record(qid: str, arrival: float, finish: float,
                f1: float = 0.5) -> QueryRecord:
    return QueryRecord(
        query_id=qid, policy="p", dataset="d",
        arrival_time=arrival, decision_time=arrival, finish_time=finish,
        config=RAGConfig(SynthesisMethod.STUFF, 5),
        f1=f1, expected_f1=f1, coverage=1.0,
        profiler_seconds=0.0, profiler_dollars=0.0,
        n_chunks_retrieved=5, chunks_clipped=False, fell_back=False,
        used_recent_spaces=False, confidence=None, queueing_delay=0.0,
        prefill_tokens=100, output_tokens=10,
    )


def fake_result(delays: list[float], f1: float = 0.5,
                spacing: float = 1.0) -> RunResult:
    records = [
        fake_record(f"q{i}", arrival=i * spacing,
                    finish=i * spacing + d, f1=f1)
        for i, d in enumerate(delays)
    ]
    makespan = max(r.finish_time for r in records)
    return RunResult(policy="p", dataset="d", records=records,
                     makespan=makespan, engine_stats=EngineStats(),
                     ledger=CostLedger())


class TestDivergenceDetection:
    def test_stable_run_not_flagged(self):
        result = fake_result([1.0] * 40)
        assert not is_diverging(result)

    def test_growing_delays_flagged(self):
        # Queue builds: delay grows linearly with arrival index.
        result = fake_result([0.5 + 0.8 * i for i in range(40)])
        assert is_diverging(result)

    def test_bulk_drain_flagged(self):
        # All queries finish long after the arrival window (makespan
        # far beyond last arrival) even though per-query delays are
        # roughly flat.
        records = [fake_record(f"q{i}", arrival=i * 1.0,
                               finish=500.0 + i * 0.01)
                   for i in range(40)]
        result = RunResult(policy="p", dataset="d", records=records,
                           makespan=505.0, engine_stats=EngineStats(),
                           ledger=CostLedger())
        assert is_diverging(result)

    def test_few_records_never_flagged(self):
        assert not is_diverging(fake_result([100.0, 200.0]))


class TestSelectionRules:
    def test_best_quality_prefers_stable(self):
        stable = fake_result([1.0] * 40, f1=0.5)
        diverging = fake_result([0.5 + 1.0 * i for i in range(40)], f1=0.9)
        assert select_best_quality([stable, diverging]) is stable

    def test_best_quality_falls_back_when_all_diverge(self):
        a = fake_result([0.5 + 1.0 * i for i in range(40)], f1=0.4)
        b = fake_result([0.5 + 1.0 * i for i in range(40)], f1=0.6)
        assert select_best_quality([a, b]) is b

    def test_closest_quality_prefers_not_above_target(self):
        low = fake_result([1.0] * 10, f1=0.45)
        high = fake_result([1.0] * 10, f1=0.58)
        assert select_closest_quality([low, high], target_f1=0.55) is low

    def test_closest_quality_all_above_takes_nearest(self):
        a = fake_result([1.0] * 10, f1=0.60)
        b = fake_result([1.0] * 10, f1=0.75)
        assert select_closest_quality([a, b], target_f1=0.5) is a

    def test_similar_delay(self):
        fast = fake_result([1.0] * 10)
        slow = fake_result([9.0] * 10)
        assert select_similar_delay([fast, slow], target_delay=2.0) is fast


class TestGridAndRates:
    def test_grid_covers_all_methods(self):
        for dataset in DEFAULT_RATES:
            methods = {c.synthesis_method for c in fixed_config_grid(dataset)}
            assert methods == set(SynthesisMethod)

    def test_rates_defined_for_all_datasets(self):
        assert set(DEFAULT_RATES) == {"squad", "musique", "finsec", "qmsum"}
        assert all(r > 0 for r in DEFAULT_RATES.values())


class TestExperimentReport:
    def test_add_and_format(self):
        report = ExperimentReport("demo")
        report.add_row(a=1, b=2.5)
        report.add_note("hello")
        text = report.format()
        assert "demo" in text and "hello" in text and "2.50" in text


class TestIsolatedServiceTime:
    cost = RooflineCostModel(MISTRAL_7B_AWQ, ClusterSpec(A40))

    def _plan(self, method, k=4, ilen=100):
        config = RAGConfig(method, k,
                           ilen if method.uses_intermediate_length else 0)
        return make_synthesizer(method).build_plan(
            30, [500] * k, 20, config)

    def test_positive(self):
        for method in SynthesisMethod:
            assert isolated_plan_seconds(self._plan(method), self.cost) > 0

    def test_map_reduce_slower_than_stuff(self):
        stuff = isolated_plan_seconds(
            self._plan(SynthesisMethod.STUFF), self.cost)
        mr = isolated_plan_seconds(
            self._plan(SynthesisMethod.MAP_REDUCE), self.cost)
        assert mr > stuff

    def test_monotone_in_chunks(self):
        small = isolated_plan_seconds(
            self._plan(SynthesisMethod.STUFF, k=2), self.cost)
        large = isolated_plan_seconds(
            self._plan(SynthesisMethod.STUFF, k=12), self.cost)
        assert large > small

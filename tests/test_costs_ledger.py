"""Unit tests for dollar-cost accounting."""

import pytest

from repro.evaluation.costs import CostLedger, DollarCostModel
from repro.llm import A40, ClusterSpec, GPT_4O


class TestDollarCostModel:
    def test_gpu_time(self):
        model = DollarCostModel(dollar_per_gpu_hour=3.6)
        cluster = ClusterSpec(A40)
        assert model.gpu_time(cluster, 3600) == pytest.approx(3.6)

    def test_rejects_negative(self):
        model = DollarCostModel()
        with pytest.raises(ValueError):
            model.gpu_time(ClusterSpec(A40), -1)


class TestCostLedger:
    def test_accumulates(self):
        ledger = CostLedger()
        first = ledger.charge_gpu(ClusterSpec(A40), 100)
        second = ledger.charge_gpu(ClusterSpec(A40), 100)
        # The pipeline prices each profiler call itself and adds it.
        ledger.api_dollars += GPT_4O.dollar_cost(1000, 10)
        assert ledger.gpu_dollars == pytest.approx(first + second)
        assert ledger.total_dollars == pytest.approx(
            ledger.api_dollars + ledger.gpu_dollars
        )
        assert ledger.api_dollars > 0
        assert ledger.gpu_dollars > 0

    def test_per_query(self):
        ledger = CostLedger()
        ledger.charge_gpu(ClusterSpec(A40), 3600)
        assert ledger.per_query(10) == pytest.approx(ledger.total_dollars / 10)
        assert ledger.per_query(0) == 0.0

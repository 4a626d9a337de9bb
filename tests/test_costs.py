"""Unit + property tests for the roofline and API latency models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm import A40, ApiLatencyModel, ClusterSpec, MISTRAL_7B_AWQ
from repro.llm.costs import RooflineCostModel

cost = RooflineCostModel(MISTRAL_7B_AWQ, ClusterSpec(A40))


class TestPrefill:
    def test_zero_tokens_is_free(self):
        assert cost.prefill_seconds(0) == 0.0

    def test_linear_in_tokens(self):
        t1 = cost.prefill_seconds(1_000)
        t2 = cost.prefill_seconds(2_000)
        assert t2 == pytest.approx(2 * t1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cost.prefill_seconds(-1)

    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=0, max_value=100_000))
    def test_monotone_in_tokens(self, a, b):
        lo, hi = sorted((a, b))
        assert cost.prefill_seconds(lo) <= cost.prefill_seconds(hi)


class TestDecode:
    def test_no_sequences_is_free(self):
        assert cost.decode_step_seconds(0, 0) == 0.0

    def test_weights_floor(self):
        # Even with an empty KV cache, decoding reads the full weights.
        floor = MISTRAL_7B_AWQ.weight_bytes / ClusterSpec(A40).mem_bandwidth
        assert cost.decode_step_seconds(0, 1) >= floor

    def test_monotone_in_kv(self):
        assert (cost.decode_step_seconds(1_000, 4)
                < cost.decode_step_seconds(100_000, 4))

    def test_monotone_in_seqs(self):
        assert (cost.decode_step_seconds(10_000, 1)
                < cost.decode_step_seconds(10_000, 32))


class TestApiLatency:
    def test_base_latency_floor(self):
        api = ApiLatencyModel()
        assert api.call_seconds(0, 0) == pytest.approx(api.base_latency_s)

    def test_monotone_in_both_token_counts(self):
        api = ApiLatencyModel()
        assert api.call_seconds(100, 10) < api.call_seconds(1_000, 10)
        assert api.call_seconds(100, 10) < api.call_seconds(100, 100)

    def test_output_dominates_input_per_token(self):
        api = ApiLatencyModel()
        d_in = api.call_seconds(101, 10) - api.call_seconds(100, 10)
        d_out = api.call_seconds(100, 11) - api.call_seconds(100, 10)
        assert d_out > d_in

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ApiLatencyModel().call_seconds(-1, 0)

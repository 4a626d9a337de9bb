"""Unit tests for model specs, GPU specs and cluster composition."""

import pytest

from repro.llm import (
    A40,
    ClusterSpec,
    GPT_4O,
    GPUSpec,
    LLAMA3_70B_AWQ,
    MISTRAL_7B_AWQ,
    ModelSpec,
    Quantization,
)
from repro.util.units import GB


class TestModelSpec:
    def test_kv_bytes_per_token_mistral(self):
        # 2 (K+V) * 32 layers * 8 kv heads * 128 dim * 2 bytes = 128 KiB
        assert MISTRAL_7B_AWQ.kv_bytes_per_token == 131_072

    def test_weight_bytes_awq_below_fp16(self):
        awq = MISTRAL_7B_AWQ.weight_bytes
        fp16 = MISTRAL_7B_AWQ.n_params * 2
        assert awq < fp16
        assert awq == pytest.approx(MISTRAL_7B_AWQ.n_params * 0.55)

    def test_flops_per_token(self):
        assert MISTRAL_7B_AWQ.flops_per_token == 2 * MISTRAL_7B_AWQ.n_params

    def test_dollar_cost(self):
        cost = GPT_4O.dollar_cost(1_000_000, 0)
        assert cost == pytest.approx(2.50)
        cost = GPT_4O.dollar_cost(0, 1_000_000)
        assert cost == pytest.approx(10.00)

    def test_validation_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", n_params=0, n_layers=1, n_kv_heads=1,
                      head_dim=1, max_context=1)

    def test_70b_has_more_kv_than_7b(self):
        assert LLAMA3_70B_AWQ.kv_bytes_per_token > MISTRAL_7B_AWQ.kv_bytes_per_token


class TestQuantization:
    def test_awq_speedup_above_fp16(self):
        assert Quantization.AWQ_INT4.compute_speedup > Quantization.FP16.compute_speedup

    def test_fp16_is_two_bytes(self):
        assert Quantization.FP16.bytes_per_param == 2.0


class TestGPUAndCluster:
    def test_a40_memory(self):
        assert A40.memory_bytes == 48 * GB

    def test_effective_flops_below_peak(self):
        assert A40.effective_flops < A40.peak_flops

    def test_gpu_validation(self):
        with pytest.raises(ValueError):
            GPUSpec(name="bad", memory_bytes=0, peak_flops=1, mem_bandwidth=1)

    def test_single_gpu_cluster_has_no_tp_penalty(self):
        one = ClusterSpec(A40, n_gpus=1)
        assert one.effective_flops == A40.effective_flops
        assert one.mem_bandwidth == A40.mem_bandwidth

    def test_two_gpu_cluster_scales_sublinearly(self):
        two = ClusterSpec(A40, n_gpus=2)
        assert A40.effective_flops < two.effective_flops < 2 * A40.effective_flops
        assert two.memory_bytes == 2 * A40.memory_bytes

    def test_dollar_per_second_scales_with_gpus(self):
        one = ClusterSpec(A40, n_gpus=1)
        two = ClusterSpec(A40, n_gpus=2)
        assert two.dollar_per_second() == pytest.approx(2 * one.dollar_per_second())

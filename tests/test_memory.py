"""Unit tests for the GPU memory partition model."""

import dataclasses

import pytest

from repro.llm import A40, ClusterSpec, LLAMA3_70B_AWQ, MISTRAL_7B_AWQ
from repro.llm.model import Quantization
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.memory import BLOCK_TOKENS, GPUMemoryModel
from repro.util.units import GB


class TestGPUMemoryModel:
    def test_partition_adds_up(self):
        mem = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        assert mem.kv_pool_bytes == pytest.approx(
            mem.usable_bytes - MISTRAL_7B_AWQ.weight_bytes - mem.activation_bytes
        )

    def test_pool_cap_applies(self):
        capped = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40),
                                kv_pool_cap_bytes=2 * GB)
        assert capped.kv_pool_bytes == 2 * GB

    def test_cap_larger_than_pool_is_noop(self):
        uncapped = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        capped = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40),
                                kv_pool_cap_bytes=500 * GB)
        assert capped.kv_pool_bytes == uncapped.kv_pool_bytes

    def test_pool_tokens_consistent(self):
        mem = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        assert mem.kv_pool_tokens == int(
            mem.kv_pool_bytes // MISTRAL_7B_AWQ.kv_bytes_per_token
        )

    def test_n_blocks(self):
        mem = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        assert mem.n_blocks == mem.kv_pool_tokens // BLOCK_TOKENS
        assert mem.n_blocks == 18_264  # 292,224 pool tokens / 16

    def test_tokens_to_bytes(self):
        mem = GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        assert mem.tokens_to_bytes(10) == 10 * MISTRAL_7B_AWQ.kv_bytes_per_token

    def test_model_too_big_rejected(self):
        # 70B in fp16 holds 141 GB of weights: no KV pool is left on one
        # 48 GB A40 at 90% utilisation.
        llama3_70b_fp16 = dataclasses.replace(
            LLAMA3_70B_AWQ, quantization=Quantization.FP16)
        with pytest.raises(ValueError, match="does not fit"):
            GPUMemoryModel(llama3_70b_fp16, ClusterSpec(A40))

    def test_70b_fits_two_gpus(self):
        mem = GPUMemoryModel(LLAMA3_70B_AWQ, ClusterSpec(A40, n_gpus=2))
        assert mem.kv_pool_bytes > 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            GPUMemoryModel(MISTRAL_7B_AWQ, ClusterSpec(A40),
                           kv_pool_cap_bytes=0)

    def test_bad_blocks_arg(self):
        """The block size is a constant now: a positive int the engine
        shares, so its block manager partitions exactly this pool."""
        assert isinstance(BLOCK_TOKENS, int) and BLOCK_TOKENS > 0
        engine = ServingEngine(EngineConfig(MISTRAL_7B_AWQ, ClusterSpec(A40)))
        assert engine.blocks.n_blocks == engine.memory.n_blocks
        assert engine.blocks.block_tokens == BLOCK_TOKENS

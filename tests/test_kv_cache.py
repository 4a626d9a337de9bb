"""Unit + property tests for the paged KV-cache block manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.kv_cache import BlockManager


class TestBlockManager:
    def test_initial_state(self):
        bm = BlockManager(n_blocks=100, block_tokens=16)
        assert bm.free_blocks == 100
        assert bm.used_blocks == 0
        assert bm.n_sequences == 0

    def test_blocks_needed_rounds_up(self):
        bm = BlockManager(100, 16)
        assert bm.blocks_needed(0) == 0
        assert bm.blocks_needed(1) == 1
        assert bm.blocks_needed(16) == 1
        assert bm.blocks_needed(17) == 2

    def test_allocate_free_roundtrip(self):
        bm = BlockManager(100, 16)
        bm.allocate(1, 100)  # 7 blocks
        assert bm.free_blocks == 93
        bm.free(1)
        assert bm.free_blocks == 100

    def test_double_allocate_rejected(self):
        bm = BlockManager(100, 16)
        bm.allocate(1, 10)
        with pytest.raises(ValueError, match="already"):
            bm.allocate(1, 10)

    def test_oom_raises(self):
        bm = BlockManager(4, 16)
        with pytest.raises(MemoryError):
            bm.allocate(1, 100)

    def test_free_unknown_raises(self):
        bm = BlockManager(4, 16)
        with pytest.raises(KeyError):
            bm.free(99)

    def test_watermark_blocks_reserved(self):
        bm = BlockManager(10, 16)
        assert bm.can_allocate(16 * 10, watermark_blocks=0)
        assert not bm.can_allocate(16 * 10, watermark_blocks=1)

    def test_utilization(self):
        bm = BlockManager(10, 16)
        bm.allocate(1, 16 * 5)
        assert bm.utilization() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockManager(0, 16)
        with pytest.raises(ValueError):
            BlockManager(10, 0)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=400),
                min_size=1, max_size=30))
def test_accounting_invariant_under_alloc_free(sizes):
    """Allocate everything that fits, free it all: blocks conserved."""
    bm = BlockManager(n_blocks=64, block_tokens=16)
    allocated: list[int] = []
    for seq_id, tokens in enumerate(sizes):
        if bm.can_allocate(tokens):
            bm.allocate(seq_id, tokens)
            allocated.append(seq_id)
        assert 0 <= bm.free_blocks <= bm.n_blocks
        assert bm.used_blocks + bm.free_blocks == bm.n_blocks
    for seq_id in allocated:
        bm.free(seq_id)
    assert bm.free_blocks == bm.n_blocks
    assert bm.n_sequences == 0

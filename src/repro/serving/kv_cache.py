"""Paged KV-cache block manager (PagedAttention-style).

GPU KV memory is carved into fixed-size blocks of ``block_tokens``
tokens. Sequences are allocated whole blocks; internal fragmentation is
bounded by one block per sequence, exactly as in vLLM. The engine
allocates a sequence's full footprint (prompt + output) at admission,
which makes admission conservative and removes the need to model
preemption/swapping (documented deviation from vLLM, which can preempt
on OOM).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive

__all__ = ["BlockManager", "Allocation"]


@dataclass(frozen=True)
class Allocation:
    """A sequence's block reservation."""

    seq_id: int
    n_blocks: int
    n_tokens: int


class BlockManager:
    """Tracks free/used KV blocks and per-sequence allocations."""

    def __init__(self, n_blocks: int, block_tokens: int) -> None:
        check_positive("n_blocks", n_blocks)
        check_positive("block_tokens", block_tokens)
        self.n_blocks = int(n_blocks)
        self.block_tokens = int(block_tokens)
        self._free_blocks = int(n_blocks)
        self._allocations: dict[int, Allocation] = {}

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return self._free_blocks

    @property
    def used_blocks(self) -> int:
        return self.n_blocks - self._free_blocks

    @property
    def n_sequences(self) -> int:
        return len(self._allocations)

    def blocks_needed(self, n_tokens: int) -> int:
        """Blocks required to hold ``n_tokens`` tokens (ceiling)."""
        if n_tokens <= 0:
            return 0
        return -(-n_tokens // self.block_tokens)

    def can_allocate(self, n_tokens: int, watermark_blocks: int = 0) -> bool:
        """True when ``n_tokens`` fit while keeping ``watermark_blocks`` free.

        The watermark mirrors vLLM's guard against admitting a request
        that would immediately starve running sequences.
        """
        return self.blocks_needed(n_tokens) <= self._free_blocks - watermark_blocks

    # ------------------------------------------------------------------
    def allocate(self, seq_id: int, n_tokens: int) -> Allocation:
        """Reserve blocks for a sequence; raises on double-alloc or OOM."""
        if seq_id in self._allocations:
            raise ValueError(f"sequence {seq_id} already has an allocation")
        needed = self.blocks_needed(n_tokens)
        if needed > self._free_blocks:
            raise MemoryError(
                f"KV OOM: need {needed} blocks for seq {seq_id}, "
                f"only {self._free_blocks} free"
            )
        self._free_blocks -= needed
        alloc = Allocation(seq_id=seq_id, n_blocks=needed, n_tokens=n_tokens)
        self._allocations[seq_id] = alloc
        return alloc

    def free(self, seq_id: int) -> None:
        """Release a sequence's blocks; raises if unknown."""
        alloc = self._allocations.pop(seq_id, None)
        if alloc is None:
            raise KeyError(f"no allocation for sequence {seq_id}")
        self._free_blocks += alloc.n_blocks
        assert self._free_blocks <= self.n_blocks, "block accounting corrupted"

    @property
    def seq_ids(self) -> frozenset[int]:
        """Sequence ids currently holding an allocation."""
        return frozenset(self._allocations)

    @property
    def allocated_blocks(self) -> int:
        """Blocks accounted to live allocations (invariant: == used)."""
        return sum(a.n_blocks for a in self._allocations.values())

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of blocks in use."""
        return self.used_blocks / self.n_blocks

"""GPU memory budget for serving: weights + activations + KV cache.

Mirrors vLLM's memory partitioning: a fraction
:data:`GPU_MEMORY_UTILIZATION` of HBM is claimed by the engine; weights
and an activation workspace (:data:`ACTIVATION_RESERVE_FRAC` of HBM)
are carved out first and the remainder becomes the paged KV-cache pool. This module also implements the paper's
``get_free_memory()`` (§6, via pynvml there): the instantaneous free KV
memory METIS' joint scheduler consults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.gpu import ClusterSpec
from repro.llm.model import ModelSpec

__all__ = ["GPUMemoryModel"]

#: Fraction of total HBM the engine may use (vLLM's default).
GPU_MEMORY_UTILIZATION = 0.90
#: Fraction of total HBM reserved for activations, CUDA graphs and
#: fragmentation slack.
ACTIVATION_RESERVE_FRAC = 0.08
#: Tokens per paged KV block (vLLM's default).
BLOCK_TOKENS = 16


@dataclass(frozen=True)
class GPUMemoryModel:
    """Static partition of cluster memory for one served model."""

    model: ModelSpec
    cluster: ClusterSpec
    #: Optional hard cap on the KV pool. Production deployments often
    #: reserve most of HBM for co-located models, CUDA graphs and burst
    #: headroom; the paper's testbed exhibits routinely-scarce free
    #: memory (its Fig 8 works with single-digit-GB free), which a cap
    #: reproduces.
    kv_pool_cap_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.kv_pool_cap_bytes is not None and self.kv_pool_cap_bytes <= 0:
            raise ValueError(
                f"kv_pool_cap_bytes must be positive, got {self.kv_pool_cap_bytes}"
            )
        if self.kv_pool_bytes <= 0:
            raise ValueError(
                f"model {self.model.name!r} does not fit on {self.cluster}: "
                "no memory left for KV cache"
            )

    @property
    def usable_bytes(self) -> float:
        return self.cluster.memory_bytes * GPU_MEMORY_UTILIZATION

    @property
    def activation_bytes(self) -> float:
        return self.cluster.memory_bytes * ACTIVATION_RESERVE_FRAC

    @property
    def kv_pool_bytes(self) -> float:
        """Bytes available for the paged KV cache."""
        pool = self.usable_bytes - self.model.weight_bytes - self.activation_bytes
        if self.kv_pool_cap_bytes is not None:
            pool = min(pool, self.kv_pool_cap_bytes)
        return pool

    @property
    def kv_bytes_per_token(self) -> float:
        return self.model.kv_bytes_per_token

    @property
    def kv_pool_tokens(self) -> int:
        """Total KV-cache capacity in tokens."""
        return int(self.kv_pool_bytes // self.kv_bytes_per_token)

    @property
    def n_blocks(self) -> int:
        """Number of :data:`BLOCK_TOKENS`-token KV blocks the pool holds."""
        return self.kv_pool_tokens // BLOCK_TOKENS

    def tokens_to_bytes(self, n_tokens: int) -> float:
        """KV bytes consumed by ``n_tokens`` context tokens."""
        return n_tokens * self.kv_bytes_per_token

"""Configuration spaces: the full combinatorial grid and pruned ranges.

The paper's point (§3) is that the full space is combinatorially large
(e.g. 30 ``num_chunks`` × 50 ``intermediate_length`` values = 1500
``map_reduce`` configs per query), while METIS' profiler+mapping step
cuts it by 50–100× to a small :class:`PrunedSpace` of ranges that the
joint scheduler can search exhaustively.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.config.knobs import (
    INTERMEDIATE_LENGTH_DOMAIN,
    NUM_CHUNKS_DOMAIN,
    RAGConfig,
    SynthesisMethod,
)

__all__ = ["ConfigurationSpace", "PrunedSpace", "full_grid"]


@dataclass(frozen=True)
class ConfigurationSpace:
    """An explicit, enumerable set of :class:`RAGConfig` points.

    Used for fixed-configuration baselines (grid search / Pareto
    frontiers) and as the materialised form of a pruned space.
    """

    configs: tuple[RAGConfig, ...]

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("ConfigurationSpace must contain at least one config")

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[RAGConfig]:
        return iter(self.configs)

    def __contains__(self, config: RAGConfig) -> bool:
        return config in set(self.configs)


def full_grid(
    num_chunks_values: Sequence[int] = NUM_CHUNKS_DOMAIN,
    intermediate_values: Sequence[int] = INTERMEDIATE_LENGTH_DOMAIN,
    methods: Sequence[SynthesisMethod] = tuple(SynthesisMethod),
) -> ConfigurationSpace:
    """The full knob grid a baseline would have to search per query.

    >>> len(full_grid())  # 11 rerank + 11 stuff + 11*6 map_reduce
    88
    """
    configs: list[RAGConfig] = []
    for method in methods:
        for k in num_chunks_values:
            if method.uses_intermediate_length:
                configs.extend(
                    RAGConfig(method, k, ilen) for ilen in intermediate_values
                )
            else:
                configs.append(RAGConfig(method, k))
    return ConfigurationSpace(tuple(configs))


@dataclass(frozen=True)
class PrunedSpace:
    """The narrowed, promising configuration ranges for one query.

    This is the output of the paper's Algorithm 1: a set of admissible
    synthesis methods, an inclusive ``num_chunks`` range, and an
    inclusive ``intermediate_length`` range (used by ``map_reduce``).

    Attributes:
        ilen_steps: how many evenly spaced ``intermediate_length``
            values to materialise when enumerating (keeps the joint
            scheduler's search cost bounded).
    """

    methods: tuple[SynthesisMethod, ...]
    num_chunks_range: tuple[int, int]
    intermediate_length_range: tuple[int, int] = (30, 200)
    ilen_steps: int = 4

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("PrunedSpace needs at least one synthesis method")
        lo, hi = self.num_chunks_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid num_chunks_range: {self.num_chunks_range}")
        ilo, ihi = self.intermediate_length_range
        if not 1 <= ilo <= ihi:
            raise ValueError(
                f"invalid intermediate_length_range: {self.intermediate_length_range}"
            )
        if self.ilen_steps < 1:
            raise ValueError(f"ilen_steps must be >= 1, got {self.ilen_steps}")

    # ------------------------------------------------------------------
    def _ilen_values(self) -> tuple[int, ...]:
        lo, hi = self.intermediate_length_range
        if self.ilen_steps == 1 or lo == hi:
            return ((lo + hi) // 2,)
        span = hi - lo
        values = {lo + round(i * span / (self.ilen_steps - 1))
                  for i in range(self.ilen_steps)}
        return tuple(sorted(values))

    def enumerate(self) -> ConfigurationSpace:
        """Materialise every config point in the pruned ranges."""
        lo, hi = self.num_chunks_range
        configs: list[RAGConfig] = []
        for method in self.methods:
            for k in range(lo, hi + 1):
                if method.uses_intermediate_length:
                    configs.extend(
                        RAGConfig(method, k, ilen) for ilen in self._ilen_values()
                    )
                else:
                    configs.append(RAGConfig(method, k))
        return ConfigurationSpace(tuple(configs))

    def contains(self, config: RAGConfig) -> bool:
        """Range membership (independent of ``ilen_steps`` granularity)."""
        if config.synthesis_method not in self.methods:
            return False
        lo, hi = self.num_chunks_range
        if not lo <= config.num_chunks <= hi:
            return False
        if config.synthesis_method.uses_intermediate_length:
            ilo, ihi = self.intermediate_length_range
            return ilo <= config.intermediate_length <= ihi
        return True

    def median_config(self) -> RAGConfig:
        """Midpoint config — the paper's "strawman" selection (§4.3).

        Picks the median ``num_chunks``/``intermediate_length`` and the
        most capable admissible method (quality must not depend on the
        strawman's value choice), ignoring system resources.
        """
        lo, hi = self.num_chunks_range
        k = (lo + hi) // 2
        method = self.methods[-1]
        if method.uses_intermediate_length:
            ilo, ihi = self.intermediate_length_range
            return RAGConfig(method, k, (ilo + ihi) // 2)
        return RAGConfig(method, k)

    def most_expensive_config(self) -> RAGConfig:
        """Upper-corner config (quality-maximising, resource-oblivious)."""
        method = self.methods[-1]
        _, hi = self.num_chunks_range
        if method.uses_intermediate_length:
            _, ihi = self.intermediate_length_range
            return RAGConfig(method, hi, ihi)
        return RAGConfig(method, hi)

    def reduction_factor(self, full: ConfigurationSpace | None = None) -> float:
        """How much smaller this space is than the full grid (§4: 50–100×)."""
        reference = full if full is not None else full_grid()
        return len(reference) / max(1, len(self.enumerate()))

    def merge(self, other: "PrunedSpace") -> "PrunedSpace":
        """Union-of-ranges merge, used by the low-confidence fallback
        (fall back to the pruned spaces of recent queries, §5)."""
        methods = tuple(dict.fromkeys(self.methods + other.methods))
        lo = min(self.num_chunks_range[0], other.num_chunks_range[0])
        hi = max(self.num_chunks_range[1], other.num_chunks_range[1])
        ilo = min(self.intermediate_length_range[0],
                  other.intermediate_length_range[0])
        ihi = max(self.intermediate_length_range[1],
                  other.intermediate_length_range[1])
        return PrunedSpace(methods, (lo, hi), (ilo, ihi), self.ilen_steps)


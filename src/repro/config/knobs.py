"""The three RAG configuration knobs the paper adapts (Fig 2).

* ``num_chunks`` — how many chunks to retrieve,
* ``synthesis_method`` — how the LLM consumes them
  (``map_rerank`` / ``stuff`` / ``map_reduce``, Fig 3),
* ``intermediate_length`` — per-chunk summary budget, meaningful only
  for ``map_reduce``.

A :class:`RAGConfig` is an immutable value object, slotted because a
serve keeps thousands alive; canonicalisation forces
``intermediate_length=0`` for non-``map_reduce`` methods so that
configs compare and hash sensibly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "SynthesisMethod",
    "RAGConfig",
    "NUM_CHUNKS_DOMAIN",
    "INTERMEDIATE_LENGTH_DOMAIN",
]


class SynthesisMethod(enum.Enum):
    """How retrieved chunks are fed to the serving LLM (paper Fig 3)."""

    MAP_RERANK = "map_rerank"
    STUFF = "stuff"
    MAP_REDUCE = "map_reduce"

    @property
    def uses_intermediate_length(self) -> bool:
        """True when the ``intermediate_length`` knob applies."""
        return self is SynthesisMethod.MAP_REDUCE

    def __str__(self) -> str:
        return self.value


#: Values of ``num_chunks`` explored by fixed-configuration baselines
#: (the paper sweeps 1–35; this grid covers that range).
NUM_CHUNKS_DOMAIN: tuple[int, ...] = (1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35)

#: Values of ``intermediate_length`` (tokens per mapper summary)
#: explored by fixed-configuration baselines (paper sweeps 1–100+; the
#: profiler emits 30–200).
INTERMEDIATE_LENGTH_DOMAIN: tuple[int, ...] = (30, 50, 75, 100, 150, 200)

_MAX_NUM_CHUNKS = 256
_MAX_INTERMEDIATE_LENGTH = 2_048


@dataclass(frozen=True, order=True, slots=True)
class RAGConfig:
    """One concrete assignment of the three knobs.

    >>> RAGConfig(SynthesisMethod.STUFF, num_chunks=5)
    RAGConfig(stuff, chunks=5)
    >>> RAGConfig(SynthesisMethod.MAP_REDUCE, 8, intermediate_length=100)
    RAGConfig(map_reduce, chunks=8, ilen=100)
    """

    synthesis_method: SynthesisMethod
    num_chunks: int
    intermediate_length: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.synthesis_method, SynthesisMethod):
            raise TypeError(
                f"synthesis_method must be a SynthesisMethod, "
                f"got {self.synthesis_method!r}"
            )
        if not 1 <= self.num_chunks <= _MAX_NUM_CHUNKS:
            raise ValueError(
                f"num_chunks must be in [1, {_MAX_NUM_CHUNKS}], "
                f"got {self.num_chunks}"
            )
        if self.synthesis_method.uses_intermediate_length:
            if not 1 <= self.intermediate_length <= _MAX_INTERMEDIATE_LENGTH:
                raise ValueError(
                    "map_reduce requires intermediate_length in "
                    f"[1, {_MAX_INTERMEDIATE_LENGTH}], got {self.intermediate_length}"
                )
        elif self.intermediate_length != 0:
            # Canonicalise: the knob is meaningless for other methods.
            object.__setattr__(self, "intermediate_length", 0)

    def label(self) -> str:
        """Short human-readable identifier for reports."""
        if self.synthesis_method.uses_intermediate_length:
            return (
                f"{self.synthesis_method.value}/k={self.num_chunks}"
                f"/l={self.intermediate_length}"
            )
        return f"{self.synthesis_method.value}/k={self.num_chunks}"

    def __repr__(self) -> str:
        if self.synthesis_method.uses_intermediate_length:
            return (
                f"RAGConfig({self.synthesis_method.value}, "
                f"chunks={self.num_chunks}, ilen={self.intermediate_length})"
            )
        return f"RAGConfig({self.synthesis_method.value}, chunks={self.num_chunks})"

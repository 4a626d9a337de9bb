"""Inference requests and their lifecycle inside the engine.

A request moves through ``WAITING → PREFILL → DECODE → FINISHED``.
Timestamps for each transition are recorded so the evaluation layer can
decompose end-to-end delay into queueing / prefill / decode parts.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.util.validation import check_non_negative, check_positive

__all__ = ["RequestPhase", "InferenceRequest"]

_request_counter = itertools.count()


class RequestPhase(enum.Enum):
    WAITING = "waiting"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"
    #: torn down by :meth:`ServingEngine.cancel` (speculation loser);
    #: terminal like FINISHED, but ``on_finish`` never fires.
    CANCELLED = "cancelled"


@dataclass(eq=False, slots=True)
class InferenceRequest:
    """One LLM call scheduled on the engine.

    Identity semantics (``eq=False``): two requests are never "equal by
    value" — ``request_id`` is unique per instance — so comparisons fall
    back to ``is``, which keeps the engine's queue ``list.remove`` calls
    O(n) pointer compares instead of field-by-field dataclass equality.
    ``slots=True`` because the engine's per-iteration loops touch every
    running request's counters — slot access skips the instance dict.

    Attributes:
        prompt_tokens: prompt length to prefill.
        output_tokens: exact number of tokens to decode (the synthesis
            planner decides answer lengths, so generation length is
            known, unlike a real engine's stop-token uncertainty).
        app_id: the RAG query this call belongs to (Parrot-style
            app-aware policies group by this).
        stage: position in the app's call DAG (0 = mappers, 1 = reduce),
            used by app-aware scheduling.
        on_finish: callback fired with (request, now) at completion.
    """

    prompt_tokens: int
    output_tokens: int
    arrival_time: float
    app_id: str = ""
    stage: int = 0
    on_finish: Optional[Callable[["InferenceRequest", float], None]] = None
    request_id: int = field(default_factory=lambda: next(_request_counter))

    # Lifecycle state (engine-managed).
    phase: RequestPhase = RequestPhase.WAITING
    prefilled_tokens: int = 0
    decoded_tokens: int = 0
    admitted_time: float | None = None
    prefill_done_time: float | None = None
    finish_time: float | None = None
    cancel_time: float | None = None

    def __post_init__(self) -> None:
        check_positive("prompt_tokens", self.prompt_tokens)
        check_positive("output_tokens", self.output_tokens)
        check_non_negative("arrival_time", self.arrival_time)

    # ------------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        """KV footprint at completion: prompt + generated tokens."""
        return self.prompt_tokens + self.output_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InferenceRequest(id={self.request_id}, app={self.app_id!r}, "
            f"phase={self.phase.value}, prompt={self.prompt_tokens}, "
            f"out={self.output_tokens})"
        )

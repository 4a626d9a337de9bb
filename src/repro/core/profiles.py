"""Query profiles: the four dimensions the LLM profiler estimates (§4.1).

* query complexity (binary high/low),
* joint reasoning requirement (binary yes/no),
* pieces of information required (1–10),
* summary length range (30–200 words).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.types import QueryTruth
from repro.util.validation import check_probability

__all__ = ["QueryProfile", "profile_is_good", "MAX_PIECES"]

MAX_PIECES = 10


@dataclass(frozen=True)
class QueryProfile:
    """One profiler output, with its confidence score.

    ``confidence`` is derived from the profiler LLM's output log-probs
    (§5); METIS thresholds it at 0.9 to decide whether to trust the
    profile.
    """

    complexity_high: bool
    joint_reasoning: bool
    pieces: int
    summary_range: tuple[int, int]
    confidence: float
    source: str = "oracle"

    def __post_init__(self) -> None:
        if not 1 <= self.pieces <= MAX_PIECES:
            raise ValueError(
                f"pieces must be in [1, {MAX_PIECES}], got {self.pieces}"
            )
        lo, hi = self.summary_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid summary_range: {self.summary_range}")
        check_probability("confidence", self.confidence)


def profile_is_good(profile: QueryProfile, truth: QueryTruth,
                    pieces_tolerance: int = 1) -> bool:
    """Whether a profile is *good* in the paper's sense (§5): it leads
    to configurations that preserve quality / reduce delay.

    Operationalised as: binary dimensions correct, pieces within
    ``pieces_tolerance``, and the summary ranges overlapping (so the
    mapped ``intermediate_length`` range contains workable values).
    """
    if profile.complexity_high != truth.complexity_high:
        return False
    if profile.joint_reasoning != truth.joint_reasoning:
        return False
    if abs(profile.pieces - min(MAX_PIECES, truth.pieces_of_information)) \
            > pieces_tolerance:
        return False
    lo, hi = profile.summary_range
    t_lo, t_hi = truth.summary_range
    return lo <= t_hi and t_lo <= hi

"""Fig 9: profiler confidence separates good from bad profiles.

Profiles every query of every dataset and reports, against the 90%
confidence threshold: the fraction of profiles above threshold, the
good-rate above threshold, and the bad-rate below threshold.

Paper numbers: >93% of profiles above threshold; 96–98% of those are
good; 85–90% of the below-threshold ones are bad.
"""

from __future__ import annotations

from repro.core.controller import CONFIDENCE_THRESHOLD
from repro.core.profiler import GPT4O_PROFILER, LLMProfiler
from repro.core.profiles import profile_is_good
from repro.data import DATASET_NAMES
from repro.experiments.common import (
    ExperimentReport,
    load_bundle,
    metadata_tokens,
)

__all__ = ["run", "confidence_stats"]


def confidence_stats(bundle, spec=GPT4O_PROFILER,
                     seed: int = 0) -> dict[str, float]:
    """Profile all queries; return the Fig 9 fractions against the
    controller's :data:`~repro.core.controller.CONFIDENCE_THRESHOLD`."""
    profiler = LLMProfiler(spec, metadata_tokens(bundle), seed=seed)
    above_good = above_bad = below_good = below_bad = 0
    for query in bundle.queries:
        result = profiler.profile(query)
        good = profile_is_good(result.profile, query.truth)
        high = result.profile.confidence >= CONFIDENCE_THRESHOLD
        if high and good:
            above_good += 1
        elif high:
            above_bad += 1
        elif good:
            below_good += 1
        else:
            below_bad += 1
    n = len(bundle.queries)
    above = above_good + above_bad
    below = below_good + below_bad
    return {
        "n": n,
        "frac_above": above / n,
        "good_given_above": above_good / above if above else 0.0,
        "bad_given_below": below_bad / below if below else 0.0,
    }


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 9: profiler confidence thresholding")
    for name in DATASET_NAMES:
        bundle = load_bundle(name, fast, seed)
        stats = confidence_stats(bundle, seed=seed)
        report.add_row(
            dataset=name,
            frac_above_threshold=stats["frac_above"],
            good_given_above=stats["good_given_above"],
            bad_given_below=stats["bad_given_below"],
        )
    report.add_note(
        "paper: >=93% above threshold, >=96% of those good, "
        "85-90% of below-threshold bad"
    )
    return report

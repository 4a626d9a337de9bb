"""The decision-plane fast path changes no decision.

``JointScheduler.choose`` scores memoized plan footprints with numpy;
``decide_reference.choose_reference`` recomputes each candidate's cost
and fit call by call with scalar loops. This suite races both on every
decision of a real METIS run (the same ``(pruned, view)`` pairs, at the
same instants, under load-driven memory pressure) and on synthetic
corner cases, pinning that ``(config, fell_back, n_candidates,
n_fitting)`` and the footprints agree everywhere.
"""

import pytest

from repro.config.knobs import SynthesisMethod
from repro.config.space import PrunedSpace
from repro.core.policy import SchedulingView
from repro.core.scheduler import JointScheduler
from repro.experiments.common import make_metis, run_policy

from decide_reference import choose_reference


def _decision_key(decision):
    return (decision.config, decision.fell_back, decision.n_candidates,
            decision.n_fitting)


class RecordingScheduler(JointScheduler):
    """Runs the fast path, replays the reference, records agreement."""

    def __init__(self) -> None:
        super().__init__()
        self.tape = []

    def choose(self, pruned, view):
        fast = super().choose(pruned, view)
        reference = choose_reference(self, pruned, view)
        self.tape.append((_decision_key(fast), _decision_key(reference),
                          fast.footprint, reference.footprint))
        return fast


class TestMetisRunEquivalence:
    def test_per_query_decisions_identical(self, finsec_bundle):
        """Every JointDecision of a METIS run matches the reference."""
        policy = make_metis(finsec_bundle)
        scheduler = RecordingScheduler()
        policy.scheduler = scheduler
        run_policy(finsec_bundle, policy, rate_qps=1.4, seed=0)
        assert len(scheduler.tape) >= len(finsec_bundle.queries)
        for fast_key, ref_key, fast_fp, ref_fp in scheduler.tape:
            assert fast_key == ref_key
            assert fast_fp == ref_fp
        # The run must exercise real adaptation, not one repeated pick.
        assert len({k[0] for k, _, _, _ in scheduler.tape}) > 1


def _view(available_kv_bytes: float) -> SchedulingView:
    return SchedulingView(
        now=0.0,
        free_kv_bytes=available_kv_bytes,
        available_kv_bytes=available_kv_bytes,
        kv_bytes_per_token=131_072.0,
        chunk_tokens=500,
        query_tokens=30,
        answer_tokens=20,
    )


SPACES = [
    PrunedSpace((SynthesisMethod.STUFF,), (2, 6)),
    PrunedSpace((SynthesisMethod.MAP_RERANK, SynthesisMethod.STUFF), (1, 8)),
    PrunedSpace((SynthesisMethod.STUFF, SynthesisMethod.MAP_REDUCE), (3, 10),
                (40, 180)),
    PrunedSpace(tuple(SynthesisMethod), (1, 12), (30, 200), ilen_steps=6),
]

# Memory ladder from "everything fits" through unit-fit to fallback.
MEMORY_LEVELS = [1e12, 5e9, 2e9, 1e9, 5e8, 2e8, 1e8, 5e7, 1e7, 1e6, 0.0]


class TestSyntheticGridEquivalence:
    @pytest.mark.parametrize("space_idx", range(len(SPACES)))
    def test_all_memory_regimes(self, space_idx):
        scheduler = JointScheduler()
        pruned = SPACES[space_idx]
        for available in MEMORY_LEVELS:
            view = _view(available)
            fast = scheduler.choose(pruned, view)
            reference = choose_reference(scheduler, pruned, view)
            assert _decision_key(fast) == _decision_key(reference), available
            assert fast.footprint == reference.footprint

    def test_fallback_footprint_matches_reference(self):
        scheduler = JointScheduler()
        pruned = PrunedSpace((SynthesisMethod.STUFF,), (2, 4))
        view = _view(0.0)
        fast = scheduler.choose(pruned, view)
        reference = choose_reference(scheduler, pruned, view)
        assert fast.fell_back and reference.fell_back
        assert fast.footprint == reference.footprint

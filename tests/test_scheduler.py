"""Unit tests for the joint configuration/scheduling best-fit (§4.3)."""

import dataclasses

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.config.space import PrunedSpace
from repro.core.policy import SchedulingView
from repro.core.scheduler import MEMORY_BUFFER_FRAC, JointScheduler

from decide_reference import choose_reference, estimate_plan

KV_BYTES = 131_072  # Mistral-7B per token
CHUNK_TOKENS = 500
QUERY_TOKENS = 30
ANSWER_TOKENS = 20


def make_view(available_tokens: float) -> SchedulingView:
    return SchedulingView(
        now=0.0,
        free_kv_bytes=available_tokens * KV_BYTES,
        available_kv_bytes=available_tokens * KV_BYTES,
        kv_bytes_per_token=KV_BYTES,
        chunk_tokens=CHUNK_TOKENS,
        query_tokens=QUERY_TOKENS,
        answer_tokens=ANSWER_TOKENS,
    )


def space(methods=(SynthesisMethod.STUFF,), chunks=(2, 6), ilen=(50, 150)):
    return PrunedSpace(methods=methods, num_chunks_range=chunks,
                       intermediate_length_range=ilen)


scheduler = JointScheduler()


class TestBestFit:
    def test_ample_memory_picks_most_expensive(self):
        decision = scheduler.choose(space(), make_view(1_000_000))
        assert decision.config.num_chunks == 6
        assert not decision.fell_back

    def test_scarce_memory_throttles_num_chunks(self):
        # ~2.1k tokens available: fits stuff k<=3 (3*500 + overhead).
        decision = scheduler.choose(space(), make_view(2_100))
        assert decision.config.num_chunks < 6
        assert not decision.fell_back

    def test_picks_highest_cost_fitting(self):
        ample_view, tight_view = make_view(1_000_000), make_view(2_100)
        ample = scheduler.choose(space(), ample_view)
        tight = scheduler.choose(space(), tight_view)
        assert (tight_view.footprint(tight.config).cost_tokens
                < ample_view.footprint(ample.config).cost_tokens)

    def test_fig8_unit_fit_prefers_map_reduce(self):
        """When no whole plan fits, map_reduce's small mappers still do."""
        both = space(methods=(SynthesisMethod.STUFF,
                              SynthesisMethod.MAP_REDUCE),
                     chunks=(4, 6))
        # ~900 tokens: no whole plan fits (stuff k=4 needs ~2.1k, and
        # map_reduce's total is larger); a single mapper (~700) does.
        decision = scheduler.choose(both, make_view(900))
        assert not decision.fell_back
        assert decision.config.synthesis_method is SynthesisMethod.MAP_REDUCE

    def test_diagnostics_counts(self):
        decision = scheduler.choose(space(), make_view(1_000_000))
        assert decision.n_candidates == 5  # k in 2..6
        assert decision.n_fitting == 5


class TestFallback:
    def test_no_memory_falls_back(self):
        decision = scheduler.choose(space(), make_view(0))
        assert decision.fell_back

    def test_fallback_without_rerank_uses_stuff(self):
        decision = scheduler.choose(
            space(methods=(SynthesisMethod.STUFF, SynthesisMethod.MAP_REDUCE)),
            make_view(0),
        )
        assert decision.config.synthesis_method is SynthesisMethod.STUFF

    def test_fallback_with_rerank_uses_rerank(self):
        decision = scheduler.choose(
            space(methods=(SynthesisMethod.MAP_RERANK,)), make_view(0)
        )
        assert decision.config.synthesis_method is SynthesisMethod.MAP_RERANK

    def test_fallback_meets_pieces_requirement(self):
        # Even with zero memory, the fallback keeps >= the range's
        # lower bound (the profile's pieces estimate).
        decision = scheduler.choose(space(chunks=(3, 9)), make_view(0))
        assert decision.config.num_chunks >= 3

    def test_fallback_respects_upper_bound(self):
        decision = scheduler.choose(space(chunks=(2, 4)),
                                    make_view(1_000_000))
        assert decision.config.num_chunks <= 4


class TestFallbackDiagnostics:
    def test_zero_fitting_candidates_reports_zero(self):
        decision = scheduler.choose(space(), make_view(0))
        assert decision.fell_back
        assert decision.n_fitting == 0
        assert decision.n_candidates == 5

    def test_fallback_plan_matches_fallback_config(self):
        view = make_view(0)
        decision = scheduler.choose(space(), view)
        estimated = estimate_plan(decision.config, view)
        assert view.footprint(decision.config).cost_tokens \
            == estimated.cost_tokens

    def test_unit_fit_counts_toward_fitting(self):
        """The Fig 8 pass is not a fallback and reports its fits."""
        both = space(methods=(SynthesisMethod.STUFF,
                              SynthesisMethod.MAP_REDUCE),
                     chunks=(4, 6))
        decision = scheduler.choose(both, make_view(900))
        assert not decision.fell_back
        assert decision.n_fitting >= 1

    def test_fallback_keeps_both_bounds(self):
        decision = scheduler.choose(space(chunks=(3, 9)), make_view(0))
        assert 3 <= decision.config.num_chunks <= 9


def cluster_view(per_replica_tokens, routed: int) -> SchedulingView:
    avail = tuple(t * KV_BYTES for t in per_replica_tokens)
    return dataclasses.replace(
        make_view(per_replica_tokens[routed]),
        replica_id=routed,
        replica_free_kv_bytes=avail,
        replica_available_kv_bytes=avail,
    )


class TestPerReplicaPruning:
    def test_prunes_against_routed_replica_not_cluster_total(self):
        """A starved routed replica throttles num_chunks even when a
        sibling replica (and thus the cluster aggregate) has plenty."""
        view = cluster_view((2_100, 1_000_000), routed=0)
        clustered = scheduler.choose(space(), view)
        plain = scheduler.choose(space(), make_view(2_100))
        assert clustered.config == plain.config
        assert clustered.config.num_chunks < 6

    def test_routed_replica_with_memory_is_unthrottled(self):
        view = cluster_view((1_000_000, 2_100), routed=0)
        decision = scheduler.choose(space(), view)
        assert decision.config.num_chunks == 6
        assert not decision.fell_back


class TestBuffer:
    def test_buffer_tightens_fit(self):
        """A plan whose KV footprint fills available memory exactly
        fits only without the MEMORY_BUFFER_FRAC head-room: the
        scheduler takes the next cheaper one."""
        ample = make_view(1_000_000)
        richest = scheduler.choose(space(), ample)
        richest_cost = ample.footprint(richest.config).cost_tokens
        exact = make_view(richest_cost)
        tight = scheduler.choose(space(), exact)
        assert MEMORY_BUFFER_FRAC == 0.02
        assert not tight.fell_back
        assert tight.config.num_chunks < richest.config.num_chunks
        roomy = make_view(richest_cost * (1.0 + MEMORY_BUFFER_FRAC))
        assert scheduler.choose(space(), roomy).config == richest.config

    def test_invalid_buffer_rejected(self):
        """The constant stays in the range the constructor once
        enforced: head-room, never more than half the memory."""
        assert 0.0 <= MEMORY_BUFFER_FRAC <= 0.5


class TestIlenSteps:
    """``ilen_steps`` reaches the best-fit pick only under memory
    pressure: every grid holds both ends of the ``intermediate_length``
    range, and best-fit takes the top end whenever it fits."""

    @staticmethod
    def mapreduce(steps: int) -> PrunedSpace:
        return PrunedSpace(methods=(SynthesisMethod.MAP_REDUCE,),
                           num_chunks_range=(4, 4),
                           intermediate_length_range=(50, 200),
                           ilen_steps=steps)

    def test_ample_memory_picks_the_top_at_any_granularity(self):
        for steps in (2, 4):
            decision = scheduler.choose(self.mapreduce(steps),
                                        make_view(1_000_000))
            assert decision.config.intermediate_length == 200

    def test_tight_memory_separates_the_grids(self):
        """With room for ilen 150 but not 200, the 4-step grid
        (50/100/150/200) takes 150; the 2-step grid (50/200) has
        nothing between its ends and drops to 50."""
        ample = make_view(1_000_000)
        cost = {ilen: ample.footprint(
                    RAGConfig(SynthesisMethod.MAP_REDUCE, 4, ilen)
                ).cost_tokens for ilen in (150, 200)}
        assert cost[150] < cost[200]
        tight = make_view((cost[150] + cost[200]) / 2
                          * (1.0 + MEMORY_BUFFER_FRAC))
        coarse = scheduler.choose(self.mapreduce(2), tight)
        fine = scheduler.choose(self.mapreduce(4), tight)
        assert not coarse.fell_back and not fine.fell_back
        assert fine.config.intermediate_length == 150
        assert coarse.config.intermediate_length == 50


class TestQualitySLOGate:
    """Threshold-gated min-cost selection (docs/EVALUATION.md): the SLO
    threshold maps linearly onto the pruned num_chunks range as a
    floor, and the scheduler spends the minimum at or above it."""

    def test_constructor_parses_spec_string(self):
        from repro.evaluation.metrics import QualitySLO

        sched = JointScheduler(quality_slo="context_recall>=0.7")
        assert sched.quality_slo == QualitySLO("context_recall", 0.7)

    def test_zero_threshold_picks_cheapest(self):
        sched = JointScheduler(quality_slo="faithfulness>=0.0")
        decision = sched.choose(space(), make_view(1_000_000))
        assert decision.config.num_chunks == 2  # range floor
        assert not decision.fell_back

    def test_full_threshold_recovers_quality_ceiling(self):
        sched = JointScheduler(quality_slo="faithfulness>=1.0")
        gated = sched.choose(space(), make_view(1_000_000))
        default = scheduler.choose(space(), make_view(1_000_000))
        assert gated.config == default.config  # floor == range top

    def test_mid_threshold_gates_the_floor(self):
        # chunks range (2, 6), threshold 0.5 -> floor 2 + ceil(2) = 4:
        # cheapest candidate at or above four chunks.
        sched = JointScheduler(quality_slo="context_recall>=0.5")
        decision = sched.choose(space(), make_view(1_000_000))
        assert decision.config.num_chunks == 4

    def test_memory_pressure_degrades_to_min_cost(self):
        # Only k<=3 fits in ~2.1k tokens; the k>=6 gate is empty, so
        # the pick degrades to the cheapest fitting candidate rather
        # than queueing or falling back.
        sched = JointScheduler(quality_slo="faithfulness>=1.0")
        decision = sched.choose(space(), make_view(2_100))
        assert not decision.fell_back
        assert decision.config.num_chunks == 2

    @pytest.mark.parametrize("tokens", [1_000_000, 2_700, 2_100, 900])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.7, 1.0])
    def test_fast_path_matches_reference(self, tokens, threshold):
        sched = JointScheduler(quality_slo=f"faithfulness>={threshold}")
        view = make_view(tokens)
        fast = sched.choose(space(), view)
        ref = choose_reference(sched, space(), view)
        assert fast.config == ref.config
        assert fast.fell_back == ref.fell_back
        assert fast.n_fitting == ref.n_fitting

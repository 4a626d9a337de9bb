"""Unit tests for the continuous-batching serving engine."""

import dataclasses

import pytest

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving.engine import (
    MAX_BATCHED_PREFILL_TOKENS,
    EngineConfig,
    ServingEngine,
)
from repro.serving.request import InferenceRequest, RequestPhase
from repro.util.units import GB

from stepping import drain


def make_engine(**overrides) -> ServingEngine:
    config = EngineConfig(model=MISTRAL_7B_AWQ, cluster=ClusterSpec(A40),
                          kv_pool_cap_bytes=2 * GB)
    return ServingEngine(dataclasses.replace(config, **overrides))


def req(prompt=1000, out=10, app="q", stage=0, t=0.0, cb=None):
    return InferenceRequest(prompt_tokens=prompt, output_tokens=out,
                            arrival_time=t, app_id=app, stage=stage,
                            on_finish=cb)


class TestSubmission:
    def test_submit_queues(self):
        eng = make_engine()
        r = eng.submit(req())
        assert r in eng.waiting
        assert eng.has_work()

    def test_rejects_over_context(self):
        eng = make_engine()
        with pytest.raises(ValueError, match="supports"):
            eng.submit(req(prompt=40_000))

    def test_rejects_over_pool(self):
        eng = make_engine(kv_pool_cap_bytes=int(0.2 * GB))  # ~1.6k tokens
        with pytest.raises(ValueError, match="KV pool"):
            eng.submit(req(prompt=10_000))

    def test_rejects_resubmission(self):
        eng = make_engine()
        r = eng.submit(req())
        drain(eng)
        with pytest.raises(ValueError, match="already"):
            eng.submit(r)


class TestExecution:
    def test_single_request_lifecycle(self):
        done = []
        eng = make_engine()
        eng.submit(req(prompt=3000, out=5, cb=lambda r, t: done.append(t)))
        n = drain(eng)
        assert n >= 2  # chunked prefill (2048 budget) + decode steps
        assert len(done) == 1
        assert done[0] == eng.now
        assert not eng.has_work()

    def test_time_advances_monotonically(self):
        eng = make_engine()
        for i in range(4):
            eng.submit(req(prompt=2000, out=8, app=f"q{i}"))
        last = 0.0
        while eng.has_work():
            eng.step()
            assert eng.now >= last
            last = eng.now
        assert last > 0.0

    def test_decode_takes_one_step_per_token(self):
        eng = make_engine()
        eng.submit(req(prompt=100, out=5))
        # Prefill (1 step, also yields token 1) + 4 decode steps.
        assert drain(eng) == 5

    def test_request_timestamps_recorded(self):
        eng = make_engine()
        r = eng.submit(req(prompt=3000, out=3))
        drain(eng)
        assert r.phase is RequestPhase.FINISHED
        assert r.admitted_time is not None
        assert r.prefill_done_time is not None
        assert r.finish_time is not None
        assert (r.admitted_time <= r.prefill_done_time <= r.finish_time)

    def test_blocks_freed_after_completion(self):
        eng = make_engine()
        eng.submit(req())
        drain(eng)
        assert eng.blocks.free_blocks == eng.blocks.n_blocks

    def test_step_on_idle_engine_raises(self):
        eng = make_engine()
        with pytest.raises(RuntimeError, match="idle"):
            eng.step()

    def test_advance_to_moves_clock_forward_only(self):
        eng = make_engine()
        eng.advance_to(5.0)
        assert eng.now == 5.0
        eng.advance_to(2.0)
        assert eng.now == 5.0


class TestContinuousBatching:
    def test_later_arrivals_join_running_batch(self):
        eng = make_engine()
        eng.submit(req(prompt=8000, out=30, app="big"))
        eng.step()  # big request admitted, prefilling
        joined_at = eng.now
        small = eng.submit(req(prompt=500, out=3, app="small"))
        eng.step()
        assert [r.app_id for r in eng.running] == ["big", "small"]
        assert small.admitted_time == joined_at

    def test_memory_admission_blocks_head_of_line(self):
        # Pool is ~16k tokens; first request takes most of it, second
        # cannot be admitted until the first finishes.
        eng = make_engine()
        eng.submit(req(prompt=14_000, out=4, app="hog"))
        eng.step()
        blocked = eng.submit(req(prompt=14_000, out=4, app="blocked"))
        eng.step()
        assert blocked.phase is RequestPhase.WAITING
        assert eng.stats.admission_stalls > 0
        drain(eng)
        assert blocked.phase is RequestPhase.FINISHED

    def test_available_kv_accounts_for_waiting(self):
        eng = make_engine()
        free_before = eng.available_kv_bytes()
        eng.submit(req(prompt=10_000, out=10))
        assert eng.available_kv_bytes() < free_before


class TestChunkedPrefill:
    def test_chunked_splits_long_prompt(self):
        eng = make_engine()
        r = eng.submit(req(prompt=8192, out=1))
        eng.step()
        assert r.prefilled_tokens == MAX_BATCHED_PREFILL_TOKENS == 2048
        assert eng.stats.prefill_tokens == 2048


class TestStats:
    def test_busy_time_equals_now_when_saturated(self):
        eng = make_engine()
        eng.submit(req(prompt=5000, out=10))
        drain(eng)
        assert eng.stats.busy_seconds == pytest.approx(eng.now)

    def test_token_counters(self):
        eng = make_engine()
        eng.submit(req(prompt=1000, out=10))
        drain(eng)
        assert eng.stats.prefill_tokens == 1000
        assert eng.stats.decode_tokens == 9  # first token from prefill step
        assert eng.stats.requests_finished == 1

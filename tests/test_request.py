"""Unit tests for inference requests and scheduling policies."""

import pytest

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.policies import AppAwarePolicy, FCFSPolicy, make_policy
from repro.serving.request import InferenceRequest, RequestPhase

from stepping import drain


def req(prompt=100, out=10, t=0.0, app="a", stage=0):
    return InferenceRequest(prompt_tokens=prompt, output_tokens=out,
                            arrival_time=t, app_id=app, stage=stage)


class TestInferenceRequest:
    def test_initial_phase(self):
        r = req()
        assert r.phase is RequestPhase.WAITING
        assert r.total_tokens == 110
        assert (r.prefilled_tokens, r.decoded_tokens) == (0, 0)
        assert (r.admitted_time, r.prefill_done_time, r.finish_time) == \
            (None, None, None)

    def test_kv_tokens_track_progress(self):
        r = req()
        r.prefilled_tokens = 60
        r.decoded_tokens = 3
        # The footprint at completion does not move with progress.
        assert r.total_tokens == 110

    def test_delays(self):
        """A served request's timestamps give its queueing and
        end-to-end delays."""
        engine = ServingEngine(EngineConfig(
            model=MISTRAL_7B_AWQ, cluster=ClusterSpec(A40)))
        engine.advance_to(5.0)
        r = engine.submit(req(t=5.0))
        drain(engine)
        assert r.phase is RequestPhase.FINISHED
        queueing = r.admitted_time - r.arrival_time
        e2e = r.finish_time - r.arrival_time
        assert queueing == 0.0  # an idle engine admits at once
        assert r.finish_time == engine.now
        assert e2e >= r.prefill_done_time - r.arrival_time > 0.0

    def test_unique_ids(self):
        assert req().request_id != req().request_id

    def test_validation(self):
        with pytest.raises(ValueError):
            req(prompt=0)
        with pytest.raises(ValueError):
            req(out=0)
        with pytest.raises(ValueError):
            req(t=-1.0)


class TestFCFSPolicy:
    def test_orders_by_arrival(self):
        a, b, c = req(t=3), req(t=1), req(t=2)
        assert FCFSPolicy().order([a, b, c], []) == [b, c, a]

    def test_does_not_mutate(self):
        waiting = [req(t=2), req(t=1)]
        FCFSPolicy().order(waiting, [])
        assert waiting[0].arrival_time == 2


class TestAppAwarePolicy:
    def test_least_remaining_work_first(self):
        small = req(prompt=100, app="small", t=1.0)
        big = req(prompt=10_000, app="big", t=0.0)
        ordered = AppAwarePolicy().order([big, small], [])
        assert ordered[0] is small

    def test_running_work_counts_toward_app(self):
        # app "x" has a huge call running, so its waiting call ranks
        # behind app "y" despite arriving earlier.
        running = req(prompt=50_000, app="x", t=0.0)
        waiting_x = req(prompt=100, app="x", t=0.0)
        waiting_y = req(prompt=100, app="y", t=1.0)
        ordered = AppAwarePolicy().order([waiting_x, waiting_y], [running])
        assert ordered[0] is waiting_y

    def test_same_app_calls_stay_contiguous(self):
        a1 = req(prompt=100, app="a", t=0.0, stage=0)
        a2 = req(prompt=100, app="a", t=0.0, stage=1)
        b = req(prompt=150, app="b", t=0.5)
        ordered = AppAwarePolicy().order([a1, b, a2], [])
        positions = {id(r): i for i, r in enumerate(ordered)}
        assert abs(positions[id(a1)] - positions[id(a2)]) == 1


class TestMakePolicy:
    def test_known_names(self):
        assert isinstance(make_policy("fcfs"), FCFSPolicy)
        assert isinstance(make_policy("app-aware"), AppAwarePolicy)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="app-aware"):
            make_policy("lifo")

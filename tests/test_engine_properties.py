"""Property-based tests of engine invariants under random workloads.

Every drain goes through ``stepping.record_steps``, which recounts the
engine's prefill count and decode KV total from its running batch after
each step.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.request import InferenceRequest, RequestPhase
from repro.util.units import GB

from stepping import drain, record_steps

request_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6_000),   # prompt tokens
        st.integers(min_value=1, max_value=40),      # output tokens
        st.sampled_from(["a", "b", "c"]),            # app id
    ),
    min_size=1,
    max_size=20,
)


def build_engine(policy: str) -> ServingEngine:
    return ServingEngine(
        EngineConfig(
            model=MISTRAL_7B_AWQ,
            cluster=ClusterSpec(A40),
            kv_pool_cap_bytes=1 * GB,  # ~8k tokens: real contention
            policy=policy,
        )
    )


def record(engine: ServingEngine) -> None:
    """Check the batch counters after every later step of ``engine``;
    call once everything is submitted."""
    record_steps(engine, {r.request_id: i
                          for i, r in enumerate(engine.waiting)})


@settings(deadline=None, max_examples=40)
@given(request_specs, st.sampled_from(["fcfs", "app-aware"]))
def test_every_request_completes_exactly_once(specs, policy):
    """Work conservation: all submitted requests finish, once each."""
    engine = build_engine(policy)
    finished: list[int] = []
    requests = []
    for prompt, out, app in specs:
        # Clamp to pool so submission is legal.
        prompt = min(prompt, engine.memory.kv_pool_tokens - out - 1)
        r = InferenceRequest(
            prompt_tokens=max(1, prompt), output_tokens=out,
            arrival_time=0.0, app_id=app,
            on_finish=lambda req, t: finished.append(req.request_id),
        )
        requests.append(engine.submit(r))
    record(engine)
    drain(engine)
    assert sorted(finished) == sorted(r.request_id for r in requests)
    assert all(r.phase is RequestPhase.FINISHED for r in requests)


@settings(deadline=None, max_examples=40)
@given(request_specs, st.sampled_from(["fcfs", "app-aware"]))
def test_blocks_conserved_and_clock_monotone(specs, policy):
    engine = build_engine(policy)
    for prompt, out, app in specs:
        prompt = min(prompt, engine.memory.kv_pool_tokens - out - 1)
        engine.submit(InferenceRequest(
            prompt_tokens=max(1, prompt), output_tokens=out,
            arrival_time=0.0, app_id=app,
        ))
    record(engine)
    last_t = 0.0
    while engine.has_work():
        engine.step()
        assert engine.now >= last_t
        last_t = engine.now
        used = engine.blocks.used_blocks + engine.blocks.free_blocks
        assert used == engine.blocks.n_blocks
    assert engine.blocks.free_blocks == engine.blocks.n_blocks


@settings(deadline=None, max_examples=30)
@given(request_specs)
def test_exact_token_accounting(specs):
    engine = build_engine("fcfs")
    total_prompt = 0
    total_out = 0
    for prompt, out, app in specs:
        prompt = max(1, min(prompt, engine.memory.kv_pool_tokens - out - 1))
        engine.submit(InferenceRequest(
            prompt_tokens=prompt, output_tokens=out,
            arrival_time=0.0, app_id=app,
        ))
        total_prompt += prompt
        total_out += out
    record(engine)
    drain(engine)
    assert engine.stats.prefill_tokens == total_prompt
    # One output token per request is produced by its final prefill chunk.
    n = len(specs)
    assert engine.stats.decode_tokens == total_out - n


@settings(deadline=None, max_examples=20)
@given(request_specs)
def test_fcfs_and_app_aware_complete_same_work(specs):
    """Scheduling policy changes order/latency, never the work done."""
    results = {}
    for policy in ("fcfs", "app-aware"):
        engine = build_engine(policy)
        for prompt, out, app in specs:
            prompt = max(1, min(prompt, engine.memory.kv_pool_tokens - out - 1))
            engine.submit(InferenceRequest(
                prompt_tokens=prompt, output_tokens=out,
                arrival_time=0.0, app_id=app,
            ))
        record(engine)
        drain(engine)
        results[policy] = (engine.stats.prefill_tokens,
                           engine.stats.requests_finished)
    assert results["fcfs"] == results["app-aware"]

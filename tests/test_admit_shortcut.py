"""``ServingEngine._admit``'s early returns admit and stall exactly as
the full admission loop does.

``_admit`` returns before ordering the queue when the batch already
holds ``MAX_NUM_SEQS`` sequences (no stall) and when the smallest
waiting request cannot be allocated (one stall), under either policy.
``admit_reference.admit_reference`` is the loop without those
shortcuts. Each schedule below drives two engines through the same
submits, cancels and steps, one admitting with ``_admit`` and one with
the reference, and compares after every step the running batch in
admission order, the finished requests, every request's admitted,
prefill-done and finish instants, the clock and ``admission_stalls``.
"""

import random
import types

import pytest

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving.engine import MAX_NUM_SEQS, EngineConfig, ServingEngine
from repro.serving.request import InferenceRequest
from repro.util.units import GB

from admit_reference import admit_reference
from stepping import request_times

N_SCHEDULES = 12
N_ROUNDS = 160


def build_engine(policy: str) -> ServingEngine:
    return ServingEngine(EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=1 * GB,  # 8,192 tokens: real contention
        policy=policy,
    ))


def request_spec(rng: random.Random, kind: str, pool_tokens: int) -> dict:
    """Tiny requests fill the batch to ``MAX_NUM_SEQS``; pool-sized ones
    fit only an empty engine."""
    if kind == "tiny":
        prompt, output = rng.randint(4, 60), rng.randint(1, 40)
    elif kind == "medium":
        prompt, output = rng.randint(200, 3_000), rng.randint(1, 30)
    else:
        output = rng.randint(1, 10)
        prompt = pool_tokens - output - rng.randint(0, 40)
    return dict(prompt_tokens=prompt, output_tokens=output,
                app_id=f"app{rng.randint(0, 5)}", stage=rng.randint(0, 1))


#: Burst shapes: ``(kind, how many)``.
BURSTS = (("tiny", 1), ("tiny", 60), ("medium", 1), ("medium", 4),
          ("pool", 1), ("tiny", 3))


def race(policy: str, seed: int) -> dict[str, int]:
    """Drive both engines through one random schedule; returns how often
    each early return was due, measured before the step."""
    rng = random.Random(f"admit-race-{policy}-{seed}")
    fast = build_engine(policy)
    slow = build_engine(policy)
    slow._admit = types.MethodType(admit_reference, slow)
    pool = fast.memory.kv_pool_tokens
    index: dict[int, int] = {}  # request_id -> submission index
    pairs: list[tuple[InferenceRequest, InferenceRequest]] = []
    due = {"full": 0, "smallest_misfit": 0}
    for _ in range(N_ROUNDS):
        if rng.random() < 0.5:
            kind, n = rng.choice(BURSTS)
            for _ in range(n):
                spec = request_spec(rng, kind, pool)
                arrival = fast.now
                pair = (InferenceRequest(arrival_time=arrival, **spec),
                        InferenceRequest(arrival_time=arrival, **spec))
                for request in pair:
                    index[request.request_id] = len(pairs)
                pairs.append(pair)
                fast.submit(pair[0])
                slow.submit(pair[1])
        if pairs and rng.random() < 0.1:
            a, b = pairs[rng.randrange(len(pairs))]
            assert fast.cancel(a) == slow.cancel(b)
        if not fast.has_work():
            assert not slow.has_work()
            continue
        if fast._waiting:
            if len(fast._running) >= MAX_NUM_SEQS:
                due["full"] += 1
            else:
                smallest = min(r.prompt_tokens + r.output_tokens
                               for r in fast._waiting)
                watermark = fast._watermark_blocks if fast._running else 0
                due["smallest_misfit"] += not fast.blocks.can_allocate(
                    smallest, watermark)
        got, want = fast.step(), slow.step()
        assert [index[r.request_id] for r in fast._running] \
            == [index[r.request_id] for r in slow._running]
        assert [index[r.request_id] for r in got] \
            == [index[r.request_id] for r in want]
        assert request_times(p[0] for p in pairs) \
            == request_times(p[1] for p in pairs)
        assert fast.now == slow.now
        assert fast.stats.admission_stalls == slow.stats.admission_stalls
    assert fast.stats == slow.stats
    return due


@pytest.mark.parametrize("policy", ["app-aware", "fcfs"])
def test_early_returns_match_full_loop(policy):
    due = {"full": 0, "smallest_misfit": 0}
    for seed in range(N_SCHEDULES):
        for name, n in race(policy, seed).items():
            due[name] += n
    # The schedules must reach both shortcuts, not only the plain loop.
    assert due["full"] > 0
    assert due["smallest_misfit"] > 0

"""Test-side stepping helpers: drain an engine, record its iterations,
and drive it through the manual lockstep interleave.

``ServingEngine.step`` trusts two incremental counters instead of
walking the running batch: ``_n_prefill_phase`` (running requests still
prefilling; the batch walk for prefill chunks runs only while it is
nonzero) and ``_decode_kv_tokens`` (the decode-phase KV total the
roofline prices). :func:`record_steps` recounts both from ``_running``
after every recorded step, so every test that records a trace also
checks the counters.

Not a ``test_*`` module, so pytest imports it only where a test asks
for it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.serving import InferenceRequest
from repro.serving.request import RequestPhase

__all__ = [
    "Step",
    "drain",
    "drive_lockstep",
    "record_steps",
    "request_times",
]

#: A drain that needs more steps than this is stuck.
MAX_STEPS = 1_000_000


def drain(engine) -> int:
    """Step a :class:`ServingEngine` or :class:`ClusterEngine` until it
    is idle; returns the number of steps."""
    step = getattr(engine, "step_and_frontier", None) or engine.step
    n = 0
    while engine.has_work():
        step()
        n += 1
        if n >= MAX_STEPS:
            raise RuntimeError(f"engine did not drain within {MAX_STEPS} steps")
    return n


class Step(NamedTuple):
    """One recorded engine iteration; requests as submission indices."""

    replica: int
    #: the stepped replica's clock after the iteration
    now: float
    #: the running batch after the iteration, in admission order
    running: tuple[int, ...]
    finished: tuple[int, ...]


def check_batch_counters(engine) -> None:
    """``engine``'s prefill count and decode KV total equal a recount
    of its running batch, whose members are all PREFILL or DECODE."""
    phases = [r.phase for r in engine._running]
    assert set(phases) <= {RequestPhase.PREFILL, RequestPhase.DECODE}
    assert engine._n_prefill_phase == phases.count(RequestPhase.PREFILL)
    assert engine._decode_kv_tokens == sum(
        r.prefilled_tokens + r.decoded_tokens for r in engine._running
        if r.phase is RequestPhase.DECODE)


def record_steps(engine, index: dict[int, int]) -> list[Step]:
    """Record every iteration of ``engine`` (a :class:`ServingEngine`,
    or each replica of a :class:`ClusterEngine`) into the returned list.

    Wraps each replica's ``step`` on the instance and checks
    :func:`check_batch_counters` after each one. ``index`` maps
    request ids to submission indices; the caller fills it as it
    submits, so traces of two runs compare equal.
    """
    trace: list[Step] = []
    replicas = getattr(engine, "replicas", [engine])
    for rid, replica in enumerate(replicas):
        def step(rid=rid, replica=replica, inner=replica.step):
            finished = inner()
            check_batch_counters(replica)
            trace.append(Step(
                rid, replica.now,
                tuple(index[r.request_id] for r in replica._running),
                tuple(index[r.request_id] for r in finished)))
            return finished
        replica.step = step
    return trace


def request_times(requests: list[InferenceRequest]) -> list[tuple]:
    """Each request's ``(admitted, prefill done, finished)`` instants."""
    return [(r.admitted_time, r.prefill_done_time, r.finish_time)
            for r in requests]


def drive_lockstep(engine, specs: list[dict]
                   ) -> tuple[list[Step], list[tuple]]:
    """The manual interleave: step while the clock trails the next
    arrival (strict ``<``), else advance and submit.

    ``engine`` is a :class:`ServingEngine` (``step`` / ``advance_to``)
    or a :class:`ClusterEngine` (``step_and_frontier`` /
    ``advance_and_observe``). Returns the step trace and the
    :func:`request_times` in spec order.
    """
    index: dict[int, int] = {}
    trace = record_steps(engine, index)
    step = getattr(engine, "step_and_frontier", None) or engine.step
    advance = (getattr(engine, "advance_and_observe", None)
               or engine.advance_to)
    requests: list[InferenceRequest] = []
    i = 0
    while i < len(specs) or engine.has_work():
        next_t = specs[i]["arrival_time"] if i < len(specs) else float("inf")
        if engine.has_work() and engine.now < next_t:
            step()
            continue
        if i >= len(specs):
            break
        advance(next_t)
        request = InferenceRequest(**specs[i])
        index[request.request_id] = i
        engine.submit(request)
        requests.append(request)
        i += 1
    return trace, request_times(requests)

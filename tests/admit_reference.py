"""Reference for ``ServingEngine._admit``: the plain admission loop.

It orders the whole waiting queue with the engine's policy and walks it
until a request does not fit or the batch is full, with no early return
and no memo. ``_admit`` returns early when the batch is already full and
when the smallest waiting request cannot be allocated;
``tests/test_admit_shortcut.py`` races the two over random schedules,
under both policies.

Not a ``test_*`` module, so pytest imports it only where a test asks
for it.
"""

from __future__ import annotations

from repro.serving.engine import MAX_NUM_SEQS, ServingEngine
from repro.serving.request import InferenceRequest, RequestPhase

__all__ = ["admit_reference"]


def admit_reference(engine: ServingEngine) -> list[InferenceRequest]:
    """What ``engine._admit()`` must admit and count, the slow way."""
    admitted: list[InferenceRequest] = []
    waiting = engine._waiting
    running = engine._running
    blocks = engine.blocks
    for request in engine.policy.order(waiting, running):
        if len(running) >= MAX_NUM_SEQS:
            break
        watermark = engine._watermark_blocks if running else 0
        total_tokens = request.prompt_tokens + request.output_tokens
        if not blocks.can_allocate(total_tokens, watermark):
            engine._admission_stalls += 1
            break
        blocks.allocate(request.request_id, total_tokens)
        request.phase = RequestPhase.PREFILL
        request.admitted_time = engine.now
        waiting.remove(request)
        running.append(request)
        admitted.append(request)
    engine._n_prefill_phase += len(admitted)
    return admitted

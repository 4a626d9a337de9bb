"""Reference for ``ServingEngine._admit``: the admission loop without
its early returns.

It orders the whole waiting queue with the engine's policy and walks it
until a request does not fit, exactly as ``_admit`` did before it
learned to return early when the batch is full or when the smallest
waiting request cannot be allocated. ``tests/test_admit_shortcut.py``
races the two over random schedules.

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
    if not waiting:
        return admitted
    running = engine._running
    blocks = engine.blocks
    if engine.policy.waiting_only:
        key = (engine._waiting_version, blocks.free_blocks, len(running))
        if key == engine._stall_key:
            engine._admission_stalls += 1
            return admitted
        if engine._ordered_version != engine._waiting_version:
            engine._ordered_cache = engine.policy.order(waiting, running)
            engine._ordered_version = engine._waiting_version
        ordered = engine._ordered_cache
    else:
        key = None
        ordered = engine.policy.order(waiting, running)
    for request in ordered:
        if len(running) >= MAX_NUM_SEQS:
            break
        watermark = engine._watermark_blocks if running else 0
        total_tokens = request.prompt_tokens + request.output_tokens
        if not blocks.can_allocate(total_tokens, watermark):
            engine._admission_stalls += 1
            if key is not None and not admitted:
                engine._stall_key = key
            break
        blocks.allocate(request.request_id, total_tokens)
        request.phase = RequestPhase.PREFILL
        request.admitted_time = engine.now
        waiting.remove(request)
        running.append(request)
        admitted.append(request)
    if admitted:
        engine._waiting_version += 1
        engine._n_prefill_phase += len(admitted)
    return admitted

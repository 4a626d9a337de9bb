"""Run invariants shared by the property suites.

* :func:`check_invariants` — the KV-memory invariants of a cluster,
  checked after every iteration by ``tests/test_cluster_properties.py``.
* :func:`assert_drained_clean` — a drained pipeline leaks nothing: no
  live event, no held resource slot, no KV block
  (``tests/test_speculation_properties.py``).
* :func:`assert_caches_within_capacity` — no cache tier of a pipeline,
  the profile tier included, holds more entries than its capacity
  (``tests/test_cache_pipeline.py``).

Not a ``test_*`` module, so pytest imports it only where a test asks
for it.
"""

from __future__ import annotations

from repro.serving import ClusterEngine

__all__ = [
    "assert_caches_within_capacity",
    "assert_drained_clean",
    "check_invariants",
]


def check_invariants(engine: ClusterEngine) -> None:
    """Block-manager and memory-model invariants of every replica."""
    seen_on: dict[int, int] = {}
    for i, replica in enumerate(engine.replicas):
        blocks = replica.blocks
        # Conservation: free + used always equals the pool, and the
        # per-sequence ledger explains every used block.
        assert blocks.free_blocks + blocks.used_blocks == blocks.n_blocks
        assert blocks.allocated_blocks == blocks.used_blocks
        assert 0 <= blocks.free_blocks <= blocks.n_blocks
        # Occupancy cap: resident tokens never exceed the KV pool.
        assert (blocks.used_blocks * blocks.block_tokens
                <= replica.memory.kv_pool_tokens)
        assert blocks.utilization() <= 1.0
        # Allocations mirror the running set exactly.
        assert blocks.seq_ids == {r.request_id for r in replica.running}
        # No sequence holds blocks on two replicas.
        for seq_id in blocks.seq_ids:
            owner = seen_on.setdefault(seq_id, i)
            assert owner == i, (
                f"request {seq_id} allocated on replicas {owner} and {i}"
            )


def assert_drained_clean(pipeline) -> None:
    """Nothing of a finished :class:`QueryPipeline` run is left held."""
    loop = pipeline.loop
    assert len(loop) == 0, "live events left after drain"
    # Every cancelled event died as a tombstone: the dispatch ledger
    # balances exactly, and whatever the queue still holds is
    # tombstoned (lazy deletion never let it fire).
    assert loop.n_scheduled == loop.n_dispatched + loop.n_cancelled
    for entry in loop.queued_entries():
        assert not loop.is_pending(entry[3])

    resources = [pipeline.profiler, *pipeline.shard_resources]
    if pipeline.rerank_resource is not None:
        resources.append(pipeline.rerank_resource)
    for resource in resources:
        assert resource.in_service == 0, \
            f"{resource.name} has a stranded holder"
        assert resource.queue_len == 0, f"{resource.name} queue not empty"

    engine = pipeline.engine
    assert not engine.has_work()
    for replica in engine.replicas:
        assert len(replica.waiting) == 0
        assert len(replica.running) == 0
        assert replica.blocks.used_blocks == 0, "KV occupancy not zero"
        assert replica.blocks.n_sequences == 0


def assert_caches_within_capacity(pipeline) -> None:
    """Every cache tier the pipeline built holds at most its capacity."""
    tiers = {"profile": pipeline.profile_cache,
             "result": pipeline.result_cache,
             "retrieval": pipeline.retrieval_cache}
    for name, tier in tiers.items():
        if tier is not None:
            assert len(tier) <= tier.capacity, (
                f"{name} tier holds {len(tier)} entries, "
                f"capacity {tier.capacity}")

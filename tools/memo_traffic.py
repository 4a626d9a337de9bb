#!/usr/bin/env python3
"""Count the lookups and hits of every serve-path memo.

Serves each end-to-end benchmark workload once (``benchmarks/e2e/run.py``'s
``serve`` at arrival seed 0, on a freshly built corpus) with counting
wrappers around the memoized entry points, then prints one row per
memo and workload. A *lookup* is a call that consults the memo; a
*hit* is one whose key the memo already held.

Memos this tree no longer has are counted as the keys they were keyed
on: each row replays the deleted memo's key over the same calls, so
its hits are the work the memo would have saved. The SLO window's
start index saved no call, so its row counts the autoscaler ticks
(lookups) and the records those ticks read (hits column left empty).

The wrappers only read state: each workload is also served once
without them, and the script fails unless both serves have the same
records. Run from the repository root::

    PYTHONPATH=src python tools/memo_traffic.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

import run as e2e  # noqa: E402  (the benchmark's workloads and serve)

from repro.config.space import PrunedSpace  # noqa: E402
from repro.core import scheduler  # noqa: E402
from repro.core.policy import SchedulingView  # noqa: E402
from repro.data import build_dataset  # noqa: E402
from repro.data.types import DatasetBundle  # noqa: E402
from repro.evaluation.metrics import MetricHarness  # noqa: E402
from repro.llm import tokenizer  # noqa: E402
from repro.retrieval import embedding  # noqa: E402
from repro.retrieval.rerank import ExactReranker  # noqa: E402
from repro.retrieval.sharded import ShardedVectorStore  # noqa: E402
from repro.serving.engine import MAX_NUM_SEQS, ServingEngine  # noqa: E402
from repro.util.ids import canonical_query_id  # noqa: E402
from repro.workload.autoscaler import Autoscaler  # noqa: E402

#: Memo name -> whether this tree still has it.
MEMOS = {
    "store.embed_query": True,
    "store.search_shard": True,
    "MetricHarness.score": True,
    "DatasetBundle.chunk_token_set": True,
    "scheduler._scored_grid": True,
    "tokenizer word memo": True,
    "embedder token coordinates": True,
    "embedder IDF weights": True,
    "embedder tf weights": True,
    "synthesis.estimate_footprint": False,
    "engine FCFS stall memo": False,
    "engine FCFS order cache": False,
    "ExactReranker memo": False,
    "MetricHarness._query_vec": False,
    "PrunedSpace.enumerate cache": False,
    "autoscaler window start": False,
}


class Counts:
    """Lookups and hits per memo, and the keys each replayed memo saw."""

    def __init__(self) -> None:
        self.lookups: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.seen: dict[str, set] = {}

    def add(self, memo: str, hit: bool) -> None:
        self.lookups[memo] += 1
        self.hits[memo] += hit

    def replay(self, memo: str, key) -> None:
        """Count a lookup of ``key`` in a memo that keeps every key."""
        seen = self.seen.setdefault(memo, set())
        self.add(memo, key in seen)
        seen.add(key)


def _wrap(owner, name: str, before):
    """Replace ``owner.name`` with a call that runs ``before(*args)``
    first; returns an undo."""
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        before(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(owner, name, wrapped)
    return lambda: setattr(owner, name, original)


class _CountingWordMemo(tokenizer._WordMemo):
    counts: Counts

    def __getitem__(self, word):
        self.counts.add("tokenizer word memo", word in self)
        return super().__getitem__(word)


def install(counts: Counts) -> list:
    """Wrap every counted entry point; returns the undos."""
    undo = []

    def embed_query(store, text):
        counts.add("store.embed_query", text in store._query_vecs)

    def search_shard(store, sid, vec, k):
        memo = store._topk.get(id(vec))
        if memo is not None and not vec.flags.writeable \
                and store._shards[sid].global_pos:
            counts.add("store.search_shard", (sid, k) in memo)

    def score(harness, query, answer_tokens, chunk_ids):
        key = (canonical_query_id(query.query_id), tuple(answer_tokens),
               tuple(chunk_ids))
        counts.add("MetricHarness.score", key in harness._scores)

    def answer_relevancy(harness, query, answer_tokens):
        if answer_tokens:
            counts.replay("MetricHarness._query_vec",
                          (id(harness), canonical_query_id(query.query_id)))

    def chunk_token_set(bundle, chunk_id):
        counts.add("DatasetBundle.chunk_token_set",
                   chunk_id in bundle._chunk_token_sets)

    def token_coord(embedder, token):
        counts.add("embedder token coordinates",
                   token in embedder._token_cache)

    def idf_weight(idf, token):
        counts.add("embedder IDF weights", token in idf._weight_cache)

    def footprint(view, config):
        counts.replay("synthesis.estimate_footprint",
                      (config, view.query_tokens, view.chunk_tokens,
                       view.answer_tokens))

    def rerank(reranker, store, vec, candidates, k):
        if candidates and id(vec) in store._topk \
                and not vec.flags.writeable:
            counts.replay("ExactReranker memo", (
                id(store), id(vec),
                tuple(hit.chunk.chunk_id for hit in candidates), k))

    def enumerate_space(pruned):
        counts.replay("PrunedSpace.enumerate cache", pruned)

    def signals(autoscaler, t):
        counts.add("autoscaler window start", False)
        counts.lookups["autoscaler records read"] += len(autoscaler._records)

    undo += [
        _wrap(ShardedVectorStore, "embed_query", embed_query),
        _wrap(ShardedVectorStore, "search_shard", search_shard),
        _wrap(MetricHarness, "score", score),
        _wrap(MetricHarness, "answer_relevancy", answer_relevancy),
        _wrap(DatasetBundle, "chunk_token_set", chunk_token_set),
        _wrap(embedding.HashedEmbedding, "_token_coord", token_coord),
        _wrap(embedding.IdfWeights, "weight", idf_weight),
        _wrap(SchedulingView, "footprint", footprint),
        _wrap(ExactReranker, "rerank", rerank),
        _wrap(PrunedSpace, "enumerate", enumerate_space),
        _wrap(Autoscaler, "signals", signals),
    ]
    undo.append(_wrap_admit(counts))

    word_memo = _CountingWordMemo(tokenizer._word_memo)
    word_memo.counts = counts
    original_memo = tokenizer._word_memo
    tokenizer._word_memo = word_memo
    undo.append(lambda: setattr(tokenizer, "_word_memo", original_memo))
    return undo


def _wrap_admit(counts: Counts):
    """Replay the deleted FCFS admission memos around ``_admit``.

    They were keyed on the waiting queue's contents: the order cache on
    the queue alone, the stall memo on the queue, the free blocks and
    the batch size of the last admission that stalled at its first
    request.
    """
    original = ServingEngine._admit
    last: dict[int, dict] = {}

    def admit(engine):
        waiting, running = engine._waiting, engine._running
        if engine.policy.name != "fcfs" or not waiting \
                or len(running) >= MAX_NUM_SEQS:
            return original(engine)
        state = last.setdefault(id(engine), {})
        queue = tuple(r.request_id for r in waiting)
        key = (queue, engine.blocks.free_blocks, len(running))
        stalled = key == state.get("stall")
        counts.add("engine FCFS stall memo", stalled)
        if not stalled:
            counts.add("engine FCFS order cache",
                       queue == state.get("ordered"))
            state["ordered"] = queue
        stalls = engine._admission_stalls
        admitted = original(engine)
        if not admitted and engine._admission_stalls > stalls:
            state["stall"] = key
        return admitted

    ServingEngine._admit = admit
    return lambda: setattr(ServingEngine, "_admit", original)


def count_workload(name: str) -> Counts:
    """Serve ``name`` once at arrival seed 0 under the counters, then
    once more without them, each on a fresh corpus."""
    spec = e2e.WORKLOADS[name]
    bundle = build_dataset(spec.dataset, seed=e2e.SHAPE_SEED, cache=False)
    counts = Counts()
    grid = scheduler._scored_grid
    grid.cache_clear()
    tf = embedding._tf_weight.cache_info()
    undo = install(counts)
    try:
        _, result = e2e.serve(spec, bundle, spec.trace(), 0)
    finally:
        for step in reversed(undo):
            step()
    info = grid.cache_info()
    counts.lookups["scheduler._scored_grid"] = info.hits + info.misses
    counts.hits["scheduler._scored_grid"] = info.hits
    after = embedding._tf_weight.cache_info()
    counts.hits["embedder tf weights"] = after.hits - tf.hits
    counts.lookups["embedder tf weights"] = (
        after.hits + after.misses - tf.hits - tf.misses)
    _, plain = e2e.serve(
        spec, build_dataset(spec.dataset, seed=e2e.SHAPE_SEED, cache=False),
        spec.trace(), 0)
    if e2e.records_digest(result.records) != \
            e2e.records_digest(plain.records):
        raise SystemExit(f"error: the counters changed {name}'s records")
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(e2e.WORKLOADS),
                        action="append",
                        help="workload to count (repeatable; default all)")
    args = parser.parse_args(argv)
    names = args.workload or list(e2e.WORKLOADS)
    results = {}
    for name in names:
        results[name] = count_workload(name)
    print("| memo | kept | " + " | ".join(
        f"`{name}` lookups / hits" for name in names) + " |")
    print("|---|---|" + "---|" * len(names))
    for memo, kept in MEMOS.items():
        cells = []
        for name in names:
            counts = results[name]
            lookups = counts.lookups[memo]
            if memo == "autoscaler window start":
                cells.append(f"{lookups:,} ticks / "
                             f"{counts.lookups['autoscaler records read']:,}"
                             " records read" if lookups else "0")
            elif lookups:
                cells.append(f"{lookups:,} / {counts.hits[memo]:,} "
                             f"({counts.hits[memo] / lookups:.0%})")
            else:
                cells.append("0")
        print(f"| {memo} | {'yes' if kept else 'no'} | "
              + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""What a serve retains matches what its readers use.

* The joint scheduler's grid memo holds scores, not plans: after a
  METIS run no :class:`~repro.synthesis.SynthesisPlan` is reachable
  from any ``_scored_grid`` entry.
* The per-arrival value types are slotted: ``QueryRecord``, ``Query``,
  ``Arrival`` and ``RAGConfig`` instances carry no ``__dict__``, and
  still pickle, ``dataclasses.replace`` and ``repr`` as plain frozen
  dataclasses.
"""

import dataclasses
import gc
import pickle

import numpy as np
import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core.scheduler import _scored_grid
from repro.data import build_dataset
from repro.data.types import Query
from repro.data.workload import Arrival
from repro.evaluation.pipeline import QueryRecord
from repro.experiments.common import make_metis, run_policy
from repro.synthesis import SynthesisPlan


@pytest.fixture(scope="module")
def finsec_150():
    return build_dataset("finsec", n_queries=150)


def _memo_contents(memo) -> list:
    """Every container and dataclass value reachable from ``memo``'s
    entries. The walk descends only into tuples, lists, dicts and
    dataclass instances, so it never leaves the entries through a
    function's globals or a class."""
    seen: set[int] = set()
    found = []
    stack = list(gc.get_referents(memo))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (tuple, list, dict)) or (
                dataclasses.is_dataclass(obj) and not isinstance(obj, type)):
            stack.extend(gc.get_referents(obj))
    return found


class TestDecisionMemos:
    def test_grid_entries_hold_no_plans(self, finsec_150):
        _scored_grid.cache_clear()
        run_policy(finsec_150, make_metis(finsec_150), rate_qps=1.4, seed=0)
        assert _scored_grid.cache_info().currsize > 0
        contents = _memo_contents(_scored_grid)
        # The walk reaches the entries: their configs and score arrays.
        assert any(isinstance(obj, RAGConfig) for obj in contents)
        assert any(isinstance(obj, np.ndarray) for obj in contents)
        assert not [obj for obj in contents
                    if isinstance(obj, SynthesisPlan)]


QUERY = Query(query_id="q-7", text="what was revenue", n_tokens=12,
              truth=None, answer_tokens_estimate=20)

RECORD = QueryRecord(
    query_id="q-7", policy="metis", dataset="finsec", arrival_time=1.5,
    decision_time=1.75, finish_time=4.0,
    config=RAGConfig(SynthesisMethod.MAP_REDUCE, 6, 100), f1=0.5,
    expected_f1=0.625, coverage=1.0, profiler_seconds=0.25,
    profiler_dollars=0.001, n_chunks_retrieved=6, chunks_clipped=False,
    fell_back=True, used_recent_spaces=False, confidence=0.875,
    queueing_delay=0.125, prefill_tokens=3000, output_tokens=40,
    replica=1, deadline=6.5, cache_tier="retrieval", faithfulness=0.75,
)

RECORD_REPR = (
    "QueryRecord(query_id='q-7', policy='metis', dataset='finsec', "
    "arrival_time=1.5, decision_time=1.75, finish_time=4.0, "
    "config=RAGConfig(map_reduce, chunks=6, ilen=100), f1=0.5, "
    "expected_f1=0.625, coverage=1.0, profiler_seconds=0.25, "
    "profiler_dollars=0.001, n_chunks_retrieved=6, chunks_clipped=False, "
    "fell_back=True, used_recent_spaces=False, confidence=0.875, "
    "queueing_delay=0.125, prefill_tokens=3000, output_tokens=40, "
    "replica=1, profiler_queue_delay=0.0, retrieval_queue_delay=0.0, "
    "retrieval_seconds=0.0, gather_seconds=0.0, rerank_seconds=0.0, "
    "rerank_queue_delay=0.0, deadline=6.5, hedged=False, hedge_time=None, "
    "hedge_won=False, wasted_prefill_tokens=0, wasted_decode_tokens=0, "
    "speculation_seconds=0.0, cache_hit=False, cache_tier='retrieval', "
    "cache_stale=False, cache_age_s=0.0, cache_lookup_seconds=0.0, "
    "faithfulness=0.75, answer_relevancy=None, context_precision=None, "
    "context_recall=None)"
)


class TestSlottedRecords:
    @pytest.mark.parametrize("value", [
        RECORD, QUERY, Arrival(query=QUERY, time=2.5),
        Arrival(query=QUERY, time=None), RAGConfig(SynthesisMethod.STUFF, 4),
    ], ids=["record", "query", "arrival", "closed-loop-arrival", "config"])
    def test_no_dict_and_round_trips(self, value):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        assert dataclasses.replace(value) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.__setattr__(dataclasses.fields(value)[0].name, None)

    def test_record_repr(self):
        assert repr(RECORD) == RECORD_REPR

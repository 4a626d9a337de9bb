"""Decision-plane decisions/sec micro-benchmark.

Replays a deterministic tape of ``(pruned space, scheduling view)``
pairs — the candidate grids a METIS trace actually presents, with
query shapes that cluster and recur, and a memory ladder spanning
whole-fit, unit-fit (Fig 8) and fallback regimes — through two
choosers:

* the **fast path**: ``JointScheduler.choose`` scoring memoized
  uniform-chunk ``SynthesisPlan`` grids with numpy;
* the **reference**: ``choose_reference`` from
  ``tests/decide_reference.py``, which builds each candidate's plan
  and sums its cost and fit call by call in scalar loops.

Both must return identical decisions (asserted here per tape entry;
``tests/test_decide_fastpath.py`` pins the same on a live run). The
artifact gates ``decisions_per_sec`` and ``speedup_vs_plans`` as
wall-clock floors in ``check_regression.py``.
"""

from __future__ import annotations

import sys
import time
from functools import partial
from pathlib import Path

from repro.config.knobs import SynthesisMethod
from repro.config.space import PrunedSpace
from repro.core.policy import SchedulingView
from repro.core.scheduler import JointScheduler
from repro.util.rng import RngStreams

from conftest import FAST, write_artifact

# The reference chooser is a test oracle and lives with the tests.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from decide_reference import choose_reference  # noqa: E402

N_DECISIONS = 2_000 if FAST else 10_000
ROUNDS = 3 if FAST else 5

#: Pruned-space shapes of the kind Algorithm 1 emits (method subsets,
#: narrow num_chunks windows, map_reduce ilen ranges).
SPACES = (
    PrunedSpace((SynthesisMethod.STUFF,), (2, 6)),
    PrunedSpace((SynthesisMethod.MAP_RERANK, SynthesisMethod.STUFF), (1, 8)),
    PrunedSpace((SynthesisMethod.STUFF, SynthesisMethod.MAP_REDUCE),
                (3, 10), (40, 180)),
    PrunedSpace(tuple(SynthesisMethod), (2, 9), (30, 200)),
    PrunedSpace((SynthesisMethod.MAP_REDUCE,), (4, 12), (50, 150)),
)

#: Query shapes cluster across a trace (datasets have typical query /
#: answer lengths); a handful of recurring shapes matches what the
#: memoized grids see in production.
SHAPES = ((30, 500, 20), (45, 500, 24), (30, 500, 32), (60, 400, 20),
          (22, 650, 28), (45, 500, 20))


def build_tape() -> list[tuple[PrunedSpace, SchedulingView]]:
    """Deterministic (pruned, view) tape spanning all fit regimes."""
    rng = RngStreams(17).get("bench", "decide-micro")
    tape = []
    for _ in range(N_DECISIONS):
        pruned = SPACES[int(rng.integers(len(SPACES)))]
        q, c, a = SHAPES[int(rng.integers(len(SHAPES)))]
        # Log-uniform memory from "nothing fits" to "everything fits".
        available = float(10.0 ** rng.uniform(5.5, 11.0))
        tape.append((pruned, SchedulingView(
            now=0.0,
            free_kv_bytes=available,
            available_kv_bytes=available,
            kv_bytes_per_token=131_072.0,
            chunk_tokens=c,
            query_tokens=q,
            answer_tokens=a,
        )))
    return tape


def drive(scheduler: JointScheduler, tape, chooser) -> list:
    return [chooser(pruned, view) for pruned, view in tape]


def _best_seconds(scheduler, tape, chooser, rounds: int) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        drive(scheduler, tape, chooser)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_decide_micro_throughput():
    scheduler = JointScheduler()
    tape = build_tape()

    # Warm-up (fills the footprint/grid memo caches, exactly as a
    # trace's first queries do) + decision-equivalence check.
    fast_decisions = drive(scheduler, tape, scheduler.choose)
    reference = partial(choose_reference, scheduler)
    ref_decisions = drive(scheduler, tape, reference)
    fell_back = 0
    for fast, ref in zip(fast_decisions, ref_decisions):
        assert (fast.config, fast.fell_back, fast.n_candidates,
                fast.n_fitting) == (ref.config, ref.fell_back,
                                    ref.n_candidates, ref.n_fitting)
        fell_back += fast.fell_back
    # The memory ladder must exercise fallback and non-fallback paths.
    assert 0 < fell_back < len(tape)

    best_fast = _best_seconds(scheduler, tape, scheduler.choose, ROUNDS)
    # The reference is ~order-of-magnitude slower; one timed round
    # keeps the benchmark quick without blurring the ratio much.
    best_ref = _best_seconds(scheduler, tape, reference,
                             max(1, ROUNDS - 2))

    decisions_per_sec = len(tape) / best_fast if best_fast > 0 else 0.0
    ref_per_sec = len(tape) / best_ref if best_ref > 0 else 0.0
    speedup = decisions_per_sec / ref_per_sec if ref_per_sec > 0 else 0.0
    assert speedup >= 5.0, (
        f"fast path only {speedup:.1f}x over the scalar reference")

    artifact = write_artifact("decide_micro.json", {
        "benchmark": "decide_micro_throughput",
        "n_decisions": len(tape),
        "n_fell_back": fell_back,
        "best_seconds": best_fast,
        "reference_best_seconds": best_ref,
        "decisions_per_sec": decisions_per_sec,
        "reference_decisions_per_sec": ref_per_sec,
        "speedup_vs_plans": speedup,
        "fast_mode": FAST,
    })
    print(f"\ndecide micro: {decisions_per_sec:,.0f} decisions/sec "
          f"(fast) vs {ref_per_sec:,.0f} (scalar reference) = "
          f"{speedup:.1f}x -> {artifact}")

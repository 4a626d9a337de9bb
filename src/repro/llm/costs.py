"""Roofline latency model and remote-API latency model.

The serving engine charges time per *iteration* (one continuous-batching
step) from two regimes:

* **Prefill is compute-bound**: processing ``t`` prompt tokens costs
  ``t * flops_per_token / effective_flops`` seconds (AWQ kernels get a
  speedup factor).
* **Decode is bandwidth-bound**: one decode step must stream the full
  weights once plus the KV cache of every running sequence, so it costs
  ``(weight_bytes + sum(kv_bytes)) / mem_bandwidth`` plus a small
  per-sequence kernel-launch overhead.

These two regimes are exactly what makes the paper's tradeoffs real:
``stuff`` with many chunks pays a long compute-bound prefill, while
``map_reduce`` pays several shorter prefills plus an extra decode phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.gpu import ClusterSpec
from repro.llm.model import ModelSpec
from repro.util.validation import check_non_negative

__all__ = ["RooflineCostModel", "ApiLatencyModel"]


@dataclass(frozen=True)
class RooflineCostModel:
    """Analytic per-iteration latency for a model on a GPU cluster.

    Attributes:
        model: the serving model spec.
        cluster: the tensor-parallel GPU group.
        step_overhead_s: fixed per-iteration scheduler/kernel overhead.
        per_seq_overhead_s: per-running-sequence overhead per decode step
            (attention kernel launches, sampler).
    """

    model: ModelSpec
    cluster: ClusterSpec
    step_overhead_s: float = 0.002
    per_seq_overhead_s: float = 0.0002

    def prefill_seconds(self, n_tokens: int) -> float:
        """Time to prefill ``n_tokens`` prompt tokens (compute-bound)."""
        check_non_negative("n_tokens", n_tokens)
        if n_tokens == 0:
            return 0.0
        flops = n_tokens * self.model.flops_per_token
        flops /= self.model.quantization.compute_speedup
        return flops / self.cluster.effective_flops

    def decode_step_seconds(self, kv_tokens_in_batch: int, n_seqs: int) -> float:
        """Time for one decode iteration over ``n_seqs`` running sequences.

        ``kv_tokens_in_batch`` is the total number of cached context
        tokens attended to across all running sequences.
        """
        check_non_negative("kv_tokens_in_batch", kv_tokens_in_batch)
        check_non_negative("n_seqs", n_seqs)
        if n_seqs == 0:
            return 0.0
        bytes_read = (
            self.model.weight_bytes
            + kv_tokens_in_batch * self.model.kv_bytes_per_token
        )
        return bytes_read / self.cluster.mem_bandwidth + n_seqs * self.per_seq_overhead_s

    def request_seconds(self, prompt_tokens: int,
                        output_tokens: int) -> float:
        """Uncontended service time of one whole request: prefill the
        prompt, then one solo decode step per output token.

        The single pricing rule for work charged outside a live batch —
        golden-configuration feedback runs and speculation wasted-work
        attribution both use it, and the deadline-risk policy's plan
        estimates must agree with what losers are later billed.
        """
        seconds = self.prefill_seconds(prompt_tokens)
        seconds += output_tokens * self.decode_step_seconds(prompt_tokens, 1)
        return seconds


@dataclass(frozen=True)
class ApiLatencyModel:
    """Latency of a hosted-API call (used for the LLM query profiler).

    Modeled as network round-trip + input ingestion at a high prompt
    rate + output generation at a per-token decode rate.  Defaults are
    tuned to a GPT-4o-class endpoint emitting short structured outputs,
    which keeps the profiler at ~0.1–0.3 s per query: the paper reports
    the profiler adds at most 1/10 of end-to-end delay (Fig 18).
    """

    base_latency_s: float = 0.05
    input_tokens_per_s: float = 9_000.0
    output_tokens_per_s: float = 160.0

    def call_seconds(self, input_tokens: int, output_tokens: int) -> float:
        """Latency of one API call."""
        check_non_negative("input_tokens", input_tokens)
        check_non_negative("output_tokens", output_tokens)
        return (
            self.base_latency_s
            + input_tokens / self.input_tokens_per_s
            + output_tokens / self.output_tokens_per_s
        )

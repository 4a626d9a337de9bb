"""Model specifications for the serving and profiler LLMs.

A :class:`ModelSpec` captures everything the simulator needs to price a
model: parameter count and transformer geometry (for FLOPs and KV-cache
bytes), quantization (weight bytes and a compute speedup), context
limit, and API dollar rates for hosted models.

The built-in specs mirror the models the paper evaluates:

* ``MISTRAL_7B_AWQ`` — the default serving model (1× A40),
* ``LLAMA3_70B_AWQ`` — the larger serving model (2× A40, §7.4),
* ``GPT_4O`` — the hosted profiler / expensive-inference comparator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.validation import check_positive

__all__ = [
    "Quantization",
    "ModelSpec",
    "MISTRAL_7B_AWQ",
    "LLAMA3_70B_AWQ",
    "GPT_4O",
]


class Quantization(enum.Enum):
    """Weight quantization scheme.

    ``bytes_per_param`` covers weight storage; ``compute_speedup`` is the
    effective prefill/decode FLOP advantage of low-bit kernels (AWQ int4
    kernels run meaningfully faster than fp16 GEMMs at small batch).
    """

    FP16 = ("fp16", 2.0, 1.0)
    AWQ_INT4 = ("awq-int4", 0.55, 2.5)  # 0.05 overhead for scales/zeros

    def __init__(self, label: str, bytes_per_param: float, compute_speedup: float):
        self.label = label
        self.bytes_per_param = bytes_per_param
        self.compute_speedup = compute_speedup


@dataclass(frozen=True)
class ModelSpec:
    """Static description of an LLM for the cost and memory models.

    Attributes:
        name: registry key, e.g. ``"mistral-7b-awq"``.
        n_params: total parameter count.
        n_layers / n_kv_heads / head_dim: transformer geometry used for
            the KV-cache-per-token computation (GQA aware).
        max_context: maximum supported context length in tokens.
        quantization: weight quantization scheme.
        hosted: True for API-only models (no local GPU memory modelling).
        dollar_per_1m_input / dollar_per_1m_output: API prices; for
            self-hosted models these are the amortised GPU-time prices
            used by the Fig 13 cost analysis.
    """

    name: str
    n_params: float
    n_layers: int
    n_kv_heads: int
    head_dim: int
    max_context: int
    quantization: Quantization = Quantization.FP16
    hosted: bool = False
    dollar_per_1m_input: float = 0.0
    dollar_per_1m_output: float = 0.0

    def __post_init__(self) -> None:
        check_positive("n_params", self.n_params)
        check_positive("n_layers", self.n_layers)
        check_positive("n_kv_heads", self.n_kv_heads)
        check_positive("head_dim", self.head_dim)
        check_positive("max_context", self.max_context)

    @property
    def weight_bytes(self) -> float:
        """Bytes of GPU memory holding the (quantized) weights."""
        return self.n_params * self.quantization.bytes_per_param

    @property
    def kv_bytes_per_token(self) -> float:
        """KV-cache bytes stored per context token (KV kept in fp16)."""
        return 2.0 * self.n_layers * self.n_kv_heads * self.head_dim * 2.0

    @property
    def flops_per_token(self) -> float:
        """Approximate forward-pass FLOPs per token (2 * params)."""
        return 2.0 * self.n_params

    def dollar_cost(self, input_tokens: float, output_tokens: float) -> float:
        """Dollar cost of one call at this model's token rates."""
        return (
            input_tokens * self.dollar_per_1m_input
            + output_tokens * self.dollar_per_1m_output
        ) / 1e6


MISTRAL_7B_AWQ = ModelSpec(
    name="mistral-7b-awq",
    n_params=7.2e9,
    n_layers=32,
    n_kv_heads=8,
    head_dim=128,
    max_context=32_768,
    quantization=Quantization.AWQ_INT4,
    dollar_per_1m_input=0.15,
    dollar_per_1m_output=0.45,
)

LLAMA3_70B_AWQ = ModelSpec(
    name="llama3-70b-awq",
    n_params=70.6e9,
    n_layers=80,
    n_kv_heads=8,
    head_dim=128,
    max_context=131_072,
    quantization=Quantization.AWQ_INT4,
    dollar_per_1m_input=0.90,
    dollar_per_1m_output=2.70,
)

GPT_4O = ModelSpec(
    name="gpt-4o",
    n_params=200e9,  # undisclosed; only used for relative API pricing
    n_layers=96,
    n_kv_heads=8,
    head_dim=128,
    max_context=128_000,
    hosted=True,
    dollar_per_1m_input=2.50,
    dollar_per_1m_output=10.00,
)

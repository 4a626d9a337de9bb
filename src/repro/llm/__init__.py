"""Simulated LLM substrate.

This package provides everything the rest of the system needs from an
LLM without running one: a deterministic tokenizer, model and GPU
hardware specifications, a roofline latency/cost model, a behavioural
generation-quality model (how answer quality responds to context
composition and synthesis method), and a remote-API model for
profiler-style calls.
"""

from repro.llm.costs import ApiLatencyModel, RooflineCostModel
from repro.llm.generation import GeneratedAnswer, SimulatedGenerator
from repro.llm.gpu import A40, ClusterSpec, GPUSpec
from repro.llm.model import (
    GPT_4O,
    LLAMA3_70B_AWQ,
    MISTRAL_7B_AWQ,
    ModelSpec,
    Quantization,
)
from repro.llm.quality import QualityModel, QualityParams, SynthesisContext
from repro.llm.tokenizer import SimTokenizer

__all__ = [
    "A40",
    "ApiLatencyModel",
    "ClusterSpec",
    "GPT_4O",
    "GPUSpec",
    "GeneratedAnswer",
    "LLAMA3_70B_AWQ",
    "MISTRAL_7B_AWQ",
    "ModelSpec",
    "QualityModel",
    "QualityParams",
    "Quantization",
    "RooflineCostModel",
    "SimTokenizer",
    "SimulatedGenerator",
    "SynthesisContext",
]

"""Shared utilities: seeded RNG streams, unit constants, validation."""

from repro.util.ids import canonical_query_id
from repro.util.rng import RngStreams, derive_seed, stream
from repro.util.units import GB, KB, MB
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "GB",
    "KB",
    "MB",
    "RngStreams",
    "canonical_query_id",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "derive_seed",
    "stream",
]

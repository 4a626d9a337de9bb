"""Tiny argument-validation helpers used across the package.

These raise ``ValueError`` with a uniform message format so failures in
deeply nested simulator code point directly at the offending parameter.
"""

from __future__ import annotations

import math

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_speed",
    "check_replica_speeds",
    "check_shard_concurrency",
    "check_count",
    "check_non_empty",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``; return it for chaining."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def check_speed(name: str, value: float) -> float:
    """Require a finite hardware-speed multiplier > 0; return it as
    ``float``.

    A replica at infinite speed would finish every iteration in zero
    seconds and bill zero GPU time, so ``inf`` is rejected with the
    non-positive values and NaN.
    """
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_replica_speeds(speeds, n_replicas: int) -> tuple[float, ...]:
    """Normalise a per-replica speed list to a float tuple.

    ``None`` is a homogeneous fleet (every replica at 1.0). Otherwise
    the length must equal ``n_replicas`` — a mismatch fails fast with
    both counts — and each entry must pass :func:`check_speed`.
    """
    n_replicas = int(n_replicas)
    if speeds is None:
        return (1.0,) * n_replicas
    speeds = [float(s) for s in speeds]
    if len(speeds) != n_replicas:
        raise ValueError(
            f"replica_speeds has {len(speeds)} entries but "
            f"n_replicas is {n_replicas}; pass exactly one "
            "speed per replica (e.g. --replica-speeds 1.0,0.5 "
            "with --replicas 2)"
        )
    return tuple(check_speed(f"replica_speeds[{i}]", s)
                 for i, s in enumerate(speeds))


def check_count(name: str, value, minimum: int = 0) -> int:
    """Require an integral count >= ``minimum``; return it as ``int``.

    Used for shard counts, arrival and period counts, and fleet-size
    bounds.
    """
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        ) from None
    if as_int != value or as_int < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return as_int


def check_non_empty(name: str, value):
    """Require a non-empty sequence; return it for chaining.

    A zero-length workload (no periods, no arrivals) would otherwise
    hang a closed loop or silently produce an empty run; failing fast
    with the parameter name keeps the error at the call site.
    """
    if len(value) == 0:
        raise ValueError(f"{name} must be non-empty, got 0 entries")
    return value


def check_shard_concurrency(name: str, value, n_shards: int):
    """Normalise a shard-concurrency spec to one entry per shard.

    Accepts ``None`` (unbounded everywhere, returned as ``None``), a
    single positive int (broadcast to every shard), or a sequence of
    per-shard entries (each a positive int, or ``None`` for an
    unbounded shard) whose length must equal ``n_shards`` — a mismatch
    fails fast with both counts, mirroring the ``replica_speeds``
    length check, rather than silently recycling or truncating.
    """
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        check_positive(name, value)
        return [int(value)] * int(n_shards)
    entries = list(value)
    if len(entries) != int(n_shards):
        raise ValueError(
            f"{name} has {len(entries)} entries but retrieval_shards is "
            f"{int(n_shards)}; pass exactly one concurrency per shard "
            "(e.g. --shard-concurrency 2,2 with --retrieval-shards 2)"
        )
    out = []
    for i, entry in enumerate(entries):
        if entry is None:
            out.append(None)
            continue
        check_positive(f"{name}[{i}]", entry)
        out.append(int(entry))
    return out

"""Pareto-frontier utilities for quality-delay tradeoff analysis (Fig 5).

A point is (delay, quality); lower delay and higher quality are better.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

__all__ = ["ParetoPoint", "pareto_frontier"]


@dataclass(frozen=True)
class ParetoPoint:
    """A labelled point in (delay, quality) space."""

    delay: float
    quality: float
    label: Any = None


def pareto_frontier(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset, sorted by increasing delay.

    >>> pts = [ParetoPoint(1, 0.5), ParetoPoint(2, 0.4), ParetoPoint(3, 0.9)]
    >>> [p.delay for p in pareto_frontier(pts)]
    [1, 3]
    """
    ordered = sorted(points, key=lambda p: (p.delay, -p.quality))
    frontier: list[ParetoPoint] = []
    best_quality = float("-inf")
    for point in ordered:
        if point.quality > best_quality:
            frontier.append(point)
            best_quality = point.quality
    return frontier

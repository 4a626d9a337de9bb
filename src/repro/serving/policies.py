"""Scheduling policies: who gets admitted/prefilled first.

* :class:`FCFSPolicy` — vLLM's default first-come-first-served order.
* :class:`AppAwarePolicy` — Parrot-style application-aware scheduling:
  the engine knows which RAG query (app) each LLM call belongs to, keeps
  a query's calls together (mappers batch with mappers), and favours
  apps with the least remaining work, which cuts average end-to-end
  delay versus interleaving all apps FCFS.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from operator import attrgetter

from repro.serving.request import InferenceRequest

__all__ = ["SchedulingPolicy", "FCFSPolicy", "AppAwarePolicy", "make_policy"]


class SchedulingPolicy(ABC):
    """Orders the waiting queue before each admission/prefill round."""

    name: str = "base"

    @abstractmethod
    def order(self, waiting: list[InferenceRequest],
              running: list[InferenceRequest]) -> list[InferenceRequest]:
        """Return ``waiting`` in scheduling order (no mutation)."""


class FCFSPolicy(SchedulingPolicy):
    """First come, first served (ties broken by submit order)."""

    name = "fcfs"

    _key = attrgetter("arrival_time", "request_id")

    def order(self, waiting: list[InferenceRequest],
              running: list[InferenceRequest]) -> list[InferenceRequest]:
        if len(waiting) < 2:
            return list(waiting)
        return sorted(waiting, key=self._key)


class AppAwarePolicy(SchedulingPolicy):
    """Parrot-style app-aware ordering.

    Sort key per request, most significant first:

    1. remaining work of its app (sum over that app's outstanding calls,
       waiting *and* running) — favour apps closest to completion,
    2. app arrival time — keeps one app's calls contiguous,
    3. stage — mappers before their reduce (the reduce is only submitted
       after mappers finish, but late-submitted retries keep order),
    4. request id.
    """

    name = "app-aware"

    @staticmethod
    def _app_stats(
        requests: Iterable[InferenceRequest],
    ) -> tuple[dict[str, int], dict[str, float]]:
        remaining: dict[str, int] = {}
        first_arrival: dict[str, float] = {}
        for req in requests:
            # The prefill and decode tokens still to process.
            remaining[req.app_id] = remaining.get(req.app_id, 0) + (
                req.prompt_tokens - req.prefilled_tokens
                + req.output_tokens - req.decoded_tokens
            )
            prev = first_arrival.get(req.app_id)
            if prev is None or req.arrival_time < prev:
                first_arrival[req.app_id] = req.arrival_time
        return remaining, first_arrival

    def order(self, waiting: list[InferenceRequest],
              running: list[InferenceRequest]) -> list[InferenceRequest]:
        remaining, first_arrival = self._app_stats([*waiting, *running])
        return sorted(
            waiting,
            key=lambda r: (
                remaining[r.app_id],
                first_arrival[r.app_id],
                r.stage,
                r.request_id,
            ),
        )


_POLICIES = {
    FCFSPolicy.name: FCFSPolicy,
    AppAwarePolicy.name: AppAwarePolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by name (``"fcfs"`` or ``"app-aware"``)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown policy {name!r}; known: {known}") from None

"""``repro.sim``: the deterministic discrete-event simulation kernel.

Extracted from the experiment runner so every workload driver (the
query pipeline, the cluster harness, future async/sharded engines)
shares one clock, one event-ordering rule, and one resource-contention
model. See ``docs/ARCHITECTURE.md``.
"""

from repro.sim.driver import StepDriver
from repro.sim.kernel import Event, EventLoop, Steppable
from repro.sim.resource import Lease, Resource, ResourceStats

__all__ = [
    "Event",
    "EventLoop",
    "Lease",
    "Resource",
    "ResourceStats",
    "StepDriver",
    "Steppable",
]

"""Deterministic discrete-event simulation substrate.

This package stands in for the paper's Azure testbed (8 VMs, accelerated
networking, local and Premium SSDs).  All distributed experiments in the
repository run on this kernel so that results are reproducible from a seed
and a 45-second recovery timeline takes well under a minute of wall-clock
time.
"""

from repro.sim.kernel import Environment, Event
from repro.sim.queues import Queue
from repro.sim.faults import (
    FaultPlan,
    LinkFault,
    MetadataOutage,
    Partition,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.storage import StorageDevice, StorageKind

__all__ = [
    "Environment",
    "Event",
    "Queue",
    "FaultPlan",
    "LinkFault",
    "MetadataOutage",
    "Partition",
    "Network",
    "NetworkConfig",
    "StorageDevice",
    "StorageKind",
]

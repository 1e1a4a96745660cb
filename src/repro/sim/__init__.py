"""Deterministic discrete-event simulation substrate.

This package stands in for the paper's Azure testbed (8 VMs, accelerated
networking, local and Premium SSDs).  All distributed experiments in the
repository run on this kernel so that results are reproducible from a seed
and a 45-second recovery timeline takes well under a minute of wall-clock
time.
"""

from repro.sim.kernel import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.queues import Queue, QueueClosed
from repro.sim.faults import (
    FaultPlan,
    LinkFault,
    MetadataOutage,
    MetadataSpike,
    Partition,
)
from repro.sim.network import Network, NetworkConfig, Endpoint, Message
from repro.sim.storage import (
    StorageDevice,
    StorageKind,
    null_device,
    local_ssd,
    cloud_ssd,
)

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Queue",
    "QueueClosed",
    "FaultPlan",
    "LinkFault",
    "MetadataOutage",
    "MetadataSpike",
    "Partition",
    "Network",
    "NetworkConfig",
    "Endpoint",
    "Message",
    "StorageDevice",
    "StorageKind",
    "null_device",
    "local_ssd",
    "cloud_ssd",
]

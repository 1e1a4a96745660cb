"""Storage-device latency models.

The paper evaluates three backends (§7.2):

- **null** — completes every I/O instantaneously but still exercises the
  whole checkpointing/DPR code path; the theoretical upper bound.
- **local SSD** — the VM's temporary disk.
- **cloud SSD** — Azure Premium SSD; checkpoints there took 2–3x longer
  than on local SSD (the paper reports ~50 ms per DPR checkpoint).

A write's latency is ``fixed + per_byte * size`` plus lognormal-ish
jitter; devices can be crashed, after which writes fail until repaired.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from repro.sim.kernel import Environment, Event
from repro.sim.rand import make_rng


class StorageKind(enum.Enum):
    """The three backends from the paper's evaluation."""

    NULL = "null"
    LOCAL_SSD = "local_ssd"
    CLOUD_SSD = "cloud_ssd"


class DeviceFailed(IOError):
    """Raised when an I/O is issued to (or in flight on) a crashed device."""


@dataclass
class StorageProfile:
    """Latency parameters for a device, in seconds and bytes."""

    fixed: float
    per_byte: float
    jitter_frac: float = 0.1


_PROFILES = {
    # Instantaneous I/O: all the software overhead, none of the waiting.
    StorageKind.NULL: StorageProfile(fixed=0.0, per_byte=0.0, jitter_frac=0.0),
    # NVMe-class local disk: ~80 us setup, ~1.4 GB/s sequential.
    StorageKind.LOCAL_SSD: StorageProfile(fixed=80e-6, per_byte=0.7e-9),
    # Replicated Premium SSD: a substantial fixed round trip through the
    # replication protocol plus ~350 MB/s effective bandwidth.  The paper
    # observed DPR checkpoints averaging ~50 ms on cloud storage; the
    # fixed component dominates small (Zipfian) checkpoints, which is
    # what makes frequent checkpoints thrash there (Figure 14).
    StorageKind.CLOUD_SSD: StorageProfile(fixed=18e-3, per_byte=2.2e-9),
}


class StorageDevice:
    """A durable device with modelled write/read latency.

    Durability semantics: data passed to :meth:`write` is durable once the
    returned event fires.  A crash before that point loses the write.
    """

    def __init__(
        self,
        env: Environment,
        kind: StorageKind = StorageKind.LOCAL_SSD,
        rng: Optional[random.Random] = None,
        profile: Optional[StorageProfile] = None,
    ):
        self.env = env
        self.kind = kind
        self.profile = profile or _PROFILES[kind]
        self._rng = make_rng(rng)
        self._failed = False
        #: Total bytes durably written (observability).
        self.bytes_written = 0
        self.writes_completed = 0

    def fail(self) -> None:
        """Crash the device; in-flight and future writes fail."""
        self._failed = True

    def repair(self) -> None:
        self._failed = False

    def write_latency(self, size_bytes: int) -> float:
        profile = self.profile
        latency = profile.fixed + profile.per_byte * size_bytes
        if profile.jitter_frac > 0 and latency > 0:
            latency *= 1.0 + abs(self._rng.gauss(0.0, profile.jitter_frac))
        return latency

    def write(self, size_bytes: int) -> Event:
        """Return an event that fires when ``size_bytes`` are durable."""
        event = self.env.event(name=f"write:{self.kind.value}")
        if self._failed:
            event.fail(DeviceFailed(f"{self.kind.value} device is down"))
            return event
        delay = self.write_latency(size_bytes)

        def complete(_arg):
            if self._failed:
                event.fail(DeviceFailed(f"{self.kind.value} device crashed mid-write"))
                return
            self.bytes_written += size_bytes
            self.writes_completed += 1
            event.succeed(size_bytes)

        self.env.call_later(delay, complete)
        return event

    def read(self, size_bytes: int) -> Event:
        """Return an event that fires when a read of ``size_bytes`` completes."""
        event = self.env.event(name=f"read:{self.kind.value}")
        if self._failed:
            event.fail(DeviceFailed(f"{self.kind.value} device is down"))
            return event
        # Reads are modelled at the same cost as writes; good enough for
        # recovery timing, which is dominated by the checkpoint size.
        self.env.call_later(self.write_latency(size_bytes),
                            lambda _arg: event.succeed(size_bytes))
        return event

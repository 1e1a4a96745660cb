"""Key ownership: virtual partitions and leases (§5.3).

Per-key ownership tracking is unrealistic, so keys group into *virtual
partitions* through a stable hash.  Workers validate ownership against
a local lease-guarded view and reject requests that fail; transfers
(:meth:`repro.cluster.elastic.ElasticCoordinator.migrate`) renounce
ownership locally *before* updating the metadata store, leaving the
partition briefly unowned (clients retry), and are deferred to
checkpoint boundaries so ownership is static within a version — the
property DPR correctness needs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple


def _canonical_bytes(key: Hashable) -> bytes:
    """A stable byte encoding of a key, independent of the interpreter.

    The builtin ``hash()`` is salted by PYTHONHASHSEED for ``str`` and
    ``bytes``, so partition placement would differ between interpreter
    runs — dprlint DPR-D04 bans it on protocol paths.  Distinct types
    get distinct prefixes so ``1`` and ``"1"`` cannot collide into the
    same encoding by accident.
    """
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, int):
        return b"i:%d" % key
    return b"r:" + repr(key).encode("utf-8")


@dataclass(frozen=True)
class HashPartitioner:
    """Hash keys into ``partition_count`` virtual partitions.

    Uses a *stable* hash (CRC-32 over a canonical byte encoding), never
    the builtin ``hash()``: placement is part of the protocol state and
    must be byte-identical across PYTHONHASHSEED values.
    """

    partition_count: int

    def partition_of(self, key: Hashable) -> int:
        return zlib.crc32(_canonical_bytes(key)) % self.partition_count


class StaleLeaseError(RuntimeError):
    """A worker served a request on an expired ownership lease."""


@dataclass
class Lease:
    """A time-bounded claim on a virtual partition."""

    partition: int
    worker_id: str
    expires_at: float

    def valid_at(self, now: float) -> bool:
        return now < self.expires_at


class OwnershipView:
    """A worker's locally cached, lease-guarded ownership map.

    Workers validate requests against this view rather than the remote
    metadata store (§5.3, "Ownership Validation and Transfer").
    """

    def __init__(self, worker_id: str, lease_duration: float = 10.0,
                 clock: Optional[Callable[[], float]] = None):
        self.worker_id = worker_id
        self.lease_duration = lease_duration
        self._clock = clock or (lambda: 0.0)
        self._leases: Dict[int, Lease] = {}

    def grant(self, partition: int) -> Lease:
        """Record (or renew) ownership of a partition."""
        lease = Lease(
            partition=partition,
            worker_id=self.worker_id,
            expires_at=self._clock() + self.lease_duration,
        )
        self._leases[partition] = lease
        return lease

    def renew(self, partition: int) -> None:
        """Extend a *currently valid* lease (renew-on-serve).

        An owner actively serving a partition keeps its lease alive
        without a metadata round trip.  Expired or renounced leases are
        deliberately not resurrected here — regaining ownership goes
        through :meth:`grant` (coordinator) or :meth:`refresh_against`
        (metadata-validated renewal), never through the serve path.
        """
        lease = self._leases.get(partition)
        if lease is not None and lease.valid_at(self._clock()):
            lease.expires_at = self._clock() + self.lease_duration

    def refresh_against(self, owner_of: Callable[[int], Optional[str]],
                        ) -> Tuple[int, int]:
        """Metadata-validated renewal sweep (§5.3).

        For every locally known lease, re-grant it if the metadata
        store still assigns the partition to this worker, else drop it.
        ``owner_of`` is the metadata lookup — the caller pays the timed
        store access *before* invoking this.  Returns
        ``(renewed, revoked)`` counts.
        """
        renewed = revoked = 0
        for partition in sorted(self._leases):
            if owner_of(partition) == self.worker_id:
                self.grant(partition)
                renewed += 1
            else:
                self._leases.pop(partition)
                revoked += 1
        return renewed, revoked

    def renounce(self, partition: int) -> None:
        """Drop ownership locally (step 1 of a transfer)."""
        self._leases.pop(partition, None)

    def owns(self, partition: int) -> bool:
        lease = self._leases.get(partition)
        return lease is not None and lease.valid_at(self._clock())

    def validate(self, partition: int) -> None:
        if not self.owns(partition):
            raise StaleLeaseError(
                f"worker {self.worker_id} does not hold a valid lease on "
                f"partition {partition}"
            )

    def owned_partitions(self):
        now = self._clock()
        return [p for p, l in self._leases.items() if l.valid_at(now)]


class LeaseHolder:
    """Mixin for servers that validate requests against a lease view.

    The host class provides ``env``, ``address``, ``running`` and
    ``crashed`` and initialises ``ownership`` / ``_lease_metadata`` to
    None; D-FASTER workers and D-Redis proxies both do.
    """

    def attach_ownership(self, view: OwnershipView, metadata=None) -> None:
        """Install a lease-guarded ownership view on this server.

        When a metadata store is given, a renewal loop also starts:
        every third of the lease duration the server pays one timed
        metadata access and re-grants (or drops) each lease the store
        still (or no longer) assigns to it.  Only elastic deployments
        call this, so non-elastic runs carry no renewal traffic.
        """
        self.ownership = view
        self._lease_metadata = metadata
        if metadata is not None:
            self.env.process(self._lease_renewal_loop(view),
                             name=f"lease-renew:{self.address}")

    def _lease_renewal_loop(self, view: OwnershipView):
        period = view.lease_duration / 3.0
        while self.running and self.ownership is view:
            yield period
            if self.crashed or self.ownership is not view:
                continue
            metadata = self._lease_metadata
            yield metadata.access()
            # Re-validate after the timed access: the server may have
            # crashed, stopped, or been re-homed while the metadata
            # read was in flight — renewing then would refresh a lease
            # it no longer holds.
            if (self.crashed or not self.running
                    or self.ownership is not view
                    or metadata is not self._lease_metadata):
                continue
            view.refresh_against(metadata.owner_of)

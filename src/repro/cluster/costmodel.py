"""The calibrated cost model behind the performance experiments.

The simulator does not execute 60 M real operations per simulated
second; instead each worker thread charges simulated CPU time per batch
from this model.  The constants are calibrated so the *structural*
effects the paper measures emerge from the same causes:

- base per-op service cost (sets the per-vCPU ceiling; Figures 10/11);
- a per-message fixed cost that batching amortizes (Figures 13/15/17);
- the **RCU effect**: a fold-over checkpoint makes the whole in-memory
  log read-only, so the first post-checkpoint update to each key must
  append a fresh record.  Under uniform access almost every update
  re-copies (expensive); under Zipfian the hot set is re-copied quickly
  and later updates go back in place — which is exactly why the paper
  sees ~20% higher Zipfian throughput (§7.2);
- a short *transition window* after each checkpoint starts (epoch
  refreshes plus allocator churn) during which every operation is
  slower;
- a flush-contention multiplier while the checkpoint write is on
  storage, stronger for replicated cloud SSD — at small checkpoint
  intervals the device never drains and the system thrashes (Figure 14).
"""

from __future__ import annotations

import math

from repro.sim.storage import StorageKind


class CostModel:
    """All tunables, in seconds unless noted.

    The numbers are the calibration every figure runs with, so they are
    class constants, not fields: a variant is a subclass.
    """

    # -- per-operation CPU ------------------------------------------------
    #: In-memory read or in-place update on a server thread.
    OP_BASE = 0.9e-6
    #: Extra cost of an RCU append (allocate + copy + index CAS).
    RCU_EXTRA = 1.1e-6
    #: Server-side per-message fixed cost (parse + syscalls).
    MESSAGE_FIXED = 18e-6
    #: Per-op cost of the remote execution path on top of OP_BASE
    #: (enqueue/dequeue, serialization).
    REMOTE_OP_EXTRA = 0.35e-6
    #: Per-op cost on a co-located thread running against local memory
    #: (cheaper than the full server path, §5.2).
    COLOCATED_LOCAL_OP = 0.55e-6
    #: Client-side per-op cost of the remote path on a co-located thread
    #: (serialize, window bookkeeping, reply handling) — work a
    #: dedicated client VM does for free from the servers' viewpoint;
    #: here it competes with serving (§7.3's first explanation).
    COLOCATED_REMOTE_CLIENT_OP = 0.9e-6
    #: DPR bookkeeping per batch (header checks, version logic) — tiny,
    #: which is why DPR ~= uncoordinated checkpoints in Figure 11.
    DPR_BATCH_OVERHEAD = 1.5e-6

    # -- checkpoint machinery ------------------------------------------------
    #: Transition window after a checkpoint begins: epoch refreshes and
    #: allocator churn slow everything down.
    TRANSITION_WINDOW = 8e-3
    #: Operation-cost multiplier during the transition window.
    TRANSITION_SLOWDOWN = 2.2
    #: Multiplier while a flush is outstanding, per backend.
    FLUSH_SLOWDOWN = {
        StorageKind.NULL: 1.0,
        StorageKind.LOCAL_SSD: 1.12,
        StorageKind.CLOUD_SSD: 1.55,
    }
    #: Extra multiplier when checkpoints are requested faster than the
    #: device drains them (the Figure 14 thrash regime).
    THRASH_SLOWDOWN = 2.0

    # -- recovery ----------------------------------------------------------------
    #: Fixed rollback cost at a worker (THROW convergence; the PURGE
    #: scan runs in the background and does not block).
    ROLLBACK_WINDOW = 60e-3

    # -- Redis path (single-threaded, §7.5) ------------------------------------
    REDIS_OP = 1.4e-6
    REDIS_MESSAGE_FIXED = 14e-6
    #: Proxy forwarding cost per message and per op — re-framing plus an
    #: extra pair of socket traversals on the shard VM; this is what
    #: makes D-Redis latency ~30% higher unsaturated (§7.5).
    PROXY_MESSAGE_FIXED = 40e-6
    PROXY_OP = 0.25e-6
    #: BGSAVE snapshot pause (fork + latch) per key-byte is negligible at
    #: our scale; charge a fixed latch window.
    BGSAVE_PAUSE = 4e-3
    #: AOF fsync cost per operation when appendfsync=always (amortized
    #: NVMe fsync under pipelined load).
    AOF_FSYNC = 20e-6
    #: Eventual-durability background append per op (amortized).
    AOF_BACKGROUND = 0.15e-6

    # -- RCU re-copy model -----------------------------------------------------------

    def rcu_probability(self, writes_since_checkpoint: float,
                        effective_keys: float,
                        checkpointing: bool) -> float:
        """Probability the next update needs an RCU append.

        Under uniform access over ``effective_keys`` keys, a key is
        already re-copied with probability ``1 - exp(-w/K)`` after ``w``
        post-checkpoint writes; Zipfian passes a much smaller effective
        keyspace, capturing its concentrated hot set.  Without
        checkpoints the log stays mutable and updates are in place.
        """
        if not checkpointing:
            return 0.0
        if effective_keys <= 0:
            return 0.0
        return math.exp(-writes_since_checkpoint / effective_keys)

    # -- aggregate batch costs -----------------------------------------------------------

    def server_batch_time(self, ops: int, write_fraction: float,
                          rcu_probability: float, slowdown: float,
                          dpr: bool = True) -> float:
        """Simulated service time of one batch on a server thread."""
        per_op = self.OP_BASE + self.REMOTE_OP_EXTRA
        per_op += write_fraction * rcu_probability * self.RCU_EXTRA
        total = self.MESSAGE_FIXED + ops * per_op
        if dpr:
            total += self.DPR_BATCH_OVERHEAD
        return total * slowdown

    def colocated_local_time(self, ops: int, write_fraction: float,
                             rcu_probability: float,
                             slowdown: float) -> float:
        """Service time of ``ops`` local operations on a co-located thread."""
        per_op = self.COLOCATED_LOCAL_OP
        per_op += write_fraction * rcu_probability * self.RCU_EXTRA
        return ops * per_op * slowdown

    def colocated_remote_send(self, ops: int) -> float:
        """Client-side cost of building and handling one remote batch."""
        return self.MESSAGE_FIXED + ops * self.COLOCATED_REMOTE_CLIENT_OP

    def redis_batch_time(self, ops: int, aof_always: bool = False,
                         aof_eventual: bool = False) -> float:
        """Service time of one batch on the single Redis thread."""
        per_op = self.REDIS_OP
        if aof_always:
            per_op += self.AOF_FSYNC
        elif aof_eventual:
            per_op += self.AOF_BACKGROUND
        return self.REDIS_MESSAGE_FIXED + ops * per_op

    def proxy_time(self, ops: int, dpr: bool = True) -> float:
        """Per-direction forwarding cost at the D-Redis proxy."""
        value = self.PROXY_MESSAGE_FIXED + ops * self.PROXY_OP
        if dpr:
            value += self.DPR_BATCH_OVERHEAD
        return value

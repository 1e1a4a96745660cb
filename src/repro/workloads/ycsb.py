"""YCSB workload specifications (§7.1).

The paper runs YCSB-A (50% reads, 50% blind updates) over 250 M 8-byte
keys with uniform or Zipfian(theta=0.99) access, hash-sharded equally
across workers.  A :class:`WorkloadSpec` provides both:

- *sampling* helpers for functional runs that touch real stores
  (``sample_key`` / ``sample_op``), and
- *aggregate* helpers for the large-scale simulation (per-batch write
  counts, per-shard effective keyspace for the RCU re-copy model).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.sim.rand import make_rng
from repro.workloads.zipfian import ZipfianGenerator


class Distribution(enum.Enum):
    UNIFORM = "uniform"
    ZIPFIAN = "zipfian"


#: Memo for the Zipfian effective (perplexity) keyspace, keyed on the
#: exact ``(item_count, theta)`` pair.  The computation walks a 100k-term
#: entropy sum and is a pure function of its arguments, so caching the
#: float reproduces it bit-for-bit; every experiment in a figure sweep
#: shares the same handful of workload specs.
_EFFECTIVE_KEYSPACE_CACHE: dict = {}


def _effective_keyspace(item_count: int, theta: float) -> float:
    key = (item_count, theta)
    value = _EFFECTIVE_KEYSPACE_CACHE.get(key)
    if value is None:
        generator = ZipfianGenerator(item_count, theta=theta,
                                     rng=random.Random(0))
        value = _EFFECTIVE_KEYSPACE_CACHE[key] = generator.effective_keyspace()
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """An R:BU single-key workload (the paper's notation, §7.1)."""

    name: str
    read_fraction: float
    keyspace: int = 250_000_000
    distribution: Distribution = Distribution.UNIFORM
    theta: float = 0.99

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction

    # -- aggregate-model helpers -----------------------------------------

    def shard_keys(self, shard_count: int) -> float:
        """Keys per shard under equal hash sharding."""
        return self.keyspace / max(1, shard_count)

    def effective_shard_keys(self, shard_count: int) -> float:
        """Skew-adjusted per-shard keyspace for the RCU re-copy model.

        Uniform: the full shard.  Zipfian: the per-shard share of the
        distribution's effective (perplexity) keyspace — hash sharding
        spreads the hot head across shards.
        """
        per_shard = self.shard_keys(shard_count)
        if self.distribution is Distribution.UNIFORM:
            return per_shard
        effective = _effective_keyspace(max(2, int(self.keyspace)), self.theta)
        return max(1.0, effective / max(1, shard_count))

    def batch_write_count(self, batch_size: int,
                          rng: random.Random) -> int:
        """Writes in a batch of ``batch_size`` ops (binomial sample).

        Uses the normal approximation above 64 ops — indistinguishable
        at those sizes and O(1) instead of O(batch).
        """
        wf = self.write_fraction
        if wf <= 0.0:
            return 0
        if wf >= 1.0:
            return batch_size
        if batch_size <= 64:
            rand = rng.random
            return len([1 for _ in range(batch_size) if rand() < wf])
        mean = batch_size * wf
        std = (batch_size * wf * (1 - wf)) ** 0.5
        return max(0, min(batch_size, round(rng.gauss(mean, std))))

    # -- sampling helpers (functional runs) -------------------------------------

    def key_sampler(self, rng: Optional[random.Random] = None):
        """A zero-arg callable producing keys per the distribution."""
        rng = make_rng(rng)
        if self.distribution is Distribution.UNIFORM:
            keyspace = self.keyspace
            return lambda: rng.randrange(keyspace)
        generator = ZipfianGenerator(self.keyspace, theta=self.theta,
                                     rng=rng, scramble=True)
        return generator.sample

    def op_sampler(self, rng: Optional[random.Random] = None):
        """A zero-arg callable producing ``(kind, key)`` tuples."""
        rng = make_rng(rng)
        keys = self.key_sampler(rng)
        read_fraction = self.read_fraction

        def sample() -> Tuple[str, int]:
            kind = "read" if rng.random() < read_fraction else "upsert"
            return kind, keys()

        return sample


#: The paper's main workload: YCSB-A, 50:50 read/blind-update.
YCSB_A = WorkloadSpec(name="ycsb-a", read_fraction=0.5)
YCSB_A_ZIPFIAN = WorkloadSpec(name="ycsb-a-zipf", read_fraction=0.5,
                              distribution=Distribution.ZIPFIAN)
#: Read-mostly and read-only variants (§7.2 mentions read-mostly runs).
YCSB_B = WorkloadSpec(name="ycsb-b", read_fraction=0.95)
YCSB_C = WorkloadSpec(name="ycsb-c", read_fraction=1.0)


def ycsb(name: str, *, zipfian: bool = False,
         keyspace: int = 250_000_000) -> WorkloadSpec:
    """Build a YCSB spec by letter (``"a"``, ``"b"``, ``"c"``)."""
    fractions = {"a": 0.5, "b": 0.95, "c": 1.0}
    letter = name.lower()
    if letter.startswith("ycsb-"):
        letter = letter[len("ycsb-"):]
    if letter not in fractions:
        raise ValueError(f"unknown YCSB workload {name!r}")
    return WorkloadSpec(
        name=f"ycsb-{letter}" + ("-zipf" if zipfian else ""),
        read_fraction=fractions[letter],
        keyspace=keyspace,
        distribution=Distribution.ZIPFIAN if zipfian else Distribution.UNIFORM,
    )

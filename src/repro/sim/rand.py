"""Seeded randomness helpers.

Every stochastic component takes an explicit :class:`random.Random` (or a
seed) so whole experiments are reproducible.  ``spawn`` derives stream-
independent child generators from a parent, mirroring numpy's SeedSequence
idea without requiring numpy in the core library.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Seedable = Union[int, random.Random, None]


def make_rng(seed: Seedable = None) -> random.Random:
    """Return a :class:`random.Random` from a seed, rng, or None."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def spawn(parent: random.Random, label: str) -> random.Random:
    """Derive a child generator whose stream is independent of siblings.

    The child is seeded from the parent's stream combined with ``label``
    so that adding a new consumer does not perturb existing ones as long
    as labels are drawn in a fixed order.  A stable (non-salted) hash is
    used so whole experiments reproduce bit-for-bit across processes.
    """
    base = parent.getrandbits(64)
    digest = hashlib.blake2b(f"{base}:{label}".encode(),
                             digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))

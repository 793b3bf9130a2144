"""Legacy sharding schemes used as baselines (§2.2.1)."""

from .consistent_hashing import ConsistentHashRing
from .pinned import PinnedAllocator, modulo_placement, ring_placement

__all__ = [
    "ConsistentHashRing",
    "PinnedAllocator",
    "modulo_placement",
    "ring_placement",
]

"""Counter-based shared randomness.

Every random draw is keyed by (master seed, string label): protocols and the
harness name each draw, so results are reproducible no matter how trials are
scheduled or parallelized, and any stream can be re-derived independently
(players re-derive the same shared values from the same labels).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_U64 = (1 << 64) - 1


@lru_cache(maxsize=64)
def _keyed(seed: int, size: int):
    """blake2b keyed by the seed, before any data: absorbing the key costs a
    compression, so each draw copies this state instead of keying anew. The
    cached object is only ever copied, never updated. A trial draws from a
    few (seed, size) pairs, its own tape's and its parent's, so 64 states
    hold what is in use."""
    return hashlib.blake2b(digest_size=size, key=seed.to_bytes(8, "little"))


def _digest(seed: int, label: str, size: int = 32) -> bytes:
    h = _keyed(seed, size).copy()
    h.update(label.encode())
    return h.digest()


@dataclass(frozen=True)
class RandomTape:
    """Shared random tape; identical (seed, label) always yields identical draws."""

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed <= _U64:
            raise ValueError("master_seed must fit in 64 bits")

    def sub(self, label: str) -> "RandomTape":
        """Derived tape for an independent run (e.g. one per trial)."""
        child = int.from_bytes(_digest(self.master_seed, "sub:" + label, 8), "little")
        return RandomTape(master_seed=child)

    def randbelow(self, label: str, bound: int) -> int:
        """Uniform integer in [0, bound).

        The 32-byte digests of ``label#0``, ``label#1``, ... are chained, as
        many as give at least 192 bits more than the bound has, and reduced
        mod bound, so the bias is below 2**-192. A bound below 2**64 takes
        exactly one digest.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        count = (bound.bit_length() + 192 + 255) // 256
        if count == 1:
            acc = _digest(self.master_seed, label + "#0")
        else:
            acc = b"".join(_digest(self.master_seed, f"{label}#{c}") for c in range(count))
        return int.from_bytes(acc, "little") % bound

    def bitvector(self, label: str, count: int) -> tuple[int, ...]:
        """``count`` independent fair bits."""
        need = (count + 7) // 8
        out = b""
        counter = 0
        while len(out) < need:
            out += _digest(self.master_seed, f"{label}@{counter}", size=min(64, need - len(out) + 8))
            counter += 1
        bits = []
        for i in range(count):
            bits.append((out[i // 8] >> (i % 8)) & 1)
        return tuple(bits)

    def stream(self, label: str) -> np.random.Generator:
        """A numpy Generator keyed by (seed, label), for bulk sampling."""
        key = int.from_bytes(_digest(self.master_seed, "stream:" + label, 16), "little")
        return np.random.Generator(np.random.Philox(key=key))

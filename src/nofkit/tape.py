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
from typing import Sequence

import numpy as np

_U64 = (1 << 64) - 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a bit string's characters to its bits


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


def _below_each(seed: int, labels: Sequence[str], bound: int) -> list[int]:
    """``randbelow``'s draw of each label, the one implementation behind it
    and ``randbelow_each``: the keyed state is looked up once, and every
    digest copies it."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound == 1:
        return [0] * len(labels)
    count = (bound.bit_length() + 192 + 255) // 256
    keyed = _keyed(seed, 32)
    out = []
    for label in labels:
        if count == 1:
            h = keyed.copy()
            h.update(f"{label}#0".encode())
            acc = h.digest()
        else:
            acc = b""
            for c in range(count):
                h = keyed.copy()
                h.update(f"{label}#{c}".encode())
                acc += h.digest()
        out.append(int.from_bytes(acc, "little") % bound)
    return out


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
        return _below_each(self.master_seed, (label,), bound)[0]

    def randbelow_each(self, labels: Sequence[str], bound: int) -> list[int]:
        """``[self.randbelow(label, bound) for label in labels]``, drawn with
        one lookup of the keyed state for the whole batch."""
        return _below_each(self.master_seed, labels, bound)

    def bitvector(self, label: str, count: int) -> tuple[int, ...]:
        """``count`` independent fair bits: bit i is bit i % 8 of byte i // 8
        of the chained digests of ``label@0``, ``label@1``, ..., that is bit
        i of the little-endian integer they spell."""
        need = (count + 7) // 8
        out = b""
        counter = 0
        while len(out) < need:
            out += _digest(self.master_seed, f"{label}@{counter}", size=min(64, need - len(out) + 8))
            counter += 1
        # a marker bit above the count keeps bin()'s leading zeros
        word = int.from_bytes(out, "little") & ((1 << count) - 1) | 1 << count
        return tuple(bin(word)[:2:-1].encode().translate(_BITS))

    def stream(self, label: str) -> np.random.Generator:
        """A numpy Generator keyed by (seed, label), for bulk sampling."""
        key = int.from_bytes(_digest(self.master_seed, "stream:" + label, 16), "little")
        return np.random.Generator(np.random.Philox(key=key))

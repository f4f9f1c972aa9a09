"""Input distributions for the protocol and discrepancy experiments.

Names (CLI spelling in parentheses):

- uniform          all n x k matrices equally likely
- upsilon          rows iid uniform over rows with at most ``ell`` zeros
- mu               uniform over matrices where exactly one row has its first
                   k-1 entries all ones
- sigma0 / sigma1  uniform over matrices with no / exactly one all-ones row
- sigma            the even mixture of sigma0 and sigma1
- sigma0_ell / sigma1_ell / sigma_ell
                   same trio, but non-special rows are uniform over rows with
                   1..ell zeros (sigma*_ell at ell=k equals sigma*)
- nu               every input where MOD3_XOR is 1 carries twice the weight
                   of an input where it is 0

All but mu and nu are one banded law, read from the ``_BANDED`` table: free
rows iid uniform over a zero-count band lo..hi (hi is ell, or k for the
names that take no ell), and with probability ``plant`` (0, 1 or 1/2) one
row at a uniform position replaced by the all-ones row. pmf() is one formula
over that table and sample() one loop. pmf() is an exact Fraction at every
shape; samplers draw through a numpy Generator so the harness can key them
off the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .combinatorics import band_size, unrank_band_row, unrank_combination
from .functions import eval_mod3xor
from .matrices import InputMatrix

# The banded families: name -> (fewest zeros a free row may have, probability
# of one planted all-ones row, free rows drawn as one int below 2^k - 1
# rather than by band rank). The most zeros is ell, or k for names without ell.
# Every family that may plant a row has lo = 1, so a planted row lies outside
# the band, which is how pmf() tells it apart.
_BANDED = {
    "uniform": (0, 0, False),
    "upsilon": (0, 0, False),
    "sigma0": (1, 0, True),
    "sigma1": (1, 1, True),
    "sigma": (1, Fraction(1, 2), True),
    "sigma0_ell": (1, 0, False),
    "sigma1_ell": (1, 1, False),
    "sigma_ell": (1, Fraction(1, 2), False),
}
_NAMES = (*_BANDED, "mu", "nu")


def nu_counts(n: int, k: int) -> tuple[int, int]:
    """(#inputs with MOD3_XOR = 1, #inputs with MOD3_XOR = 0).

    A row XORs to 1 in exactly 2^(k-1) ways, so the count of 1-inputs is
    2^((k-1)n) times the number of ways to pick a multiple-of-3 set of rows.
    """
    ones_patterns = sum(comb(n, j) for j in range(0, n + 1) if j % 3 == 0)
    ones = (1 << ((k - 1) * n)) * ones_patterns
    return ones, (1 << (n * k)) - ones


def _randbelow(rng: np.random.Generator, bound: int) -> int:
    """Uniform int in [0, bound) from a Generator; exact for 63-bit bounds,
    otherwise 64 slack bits make the modulo bias < 2^-64."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound == 1:
        return 0
    if bound <= 1 << 63:
        return int(rng.integers(bound))
    nbytes = (bound.bit_length() + 64 + 7) // 8
    return int.from_bytes(rng.bytes(nbytes), "little") % bound


def _randbelow_each(rng: np.random.Generator, bound: int, count: int) -> list[int]:
    """``count`` successive ``_randbelow(rng, bound)`` draws from one
    Generator call, with the values and the generator's state after the
    per-draw ones: a bounded ``integers`` call fills its array one draw after
    another, and ``rng.bytes(m)`` takes the next ceil(m / 4) words of the
    32-bit stream and keeps m bytes."""
    if bound == 1:
        return [0] * count
    if bound <= 1 << 63:
        return rng.integers(bound, size=count).tolist()
    nbytes = (bound.bit_length() + 64 + 7) // 8
    words = (nbytes + 3) // 4
    raw = rng.integers(0, 1 << 32, size=words * count, dtype=np.uint32).astype("<u4").tobytes()
    step = 4 * words
    return [int.from_bytes(raw[j : j + nbytes], "little") % bound for j in range(0, step * count, step)]


def _row_with_parity(rng, k: int, parity: int) -> int:
    if k == 1:
        return parity
    head = _randbelow(rng, 1 << (k - 1))
    fix = (head.bit_count() + parity) & 1
    return head | (fix << (k - 1))


@dataclass(frozen=True)
class DistributionSpec:
    """One of the named families, pinned to a shape (and ell where used)."""

    name: str
    n: int
    k: int
    ell: Optional[int] = None

    def __post_init__(self):
        if self.name not in _NAMES:
            raise ValueError(f"unknown distribution {self.name!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("need n, k >= 1")
        needs_ell = self.name == "upsilon" or self.name.endswith("_ell")
        if needs_ell:
            if self.ell is None:
                raise ValueError(f"{self.name} needs ell")
            lo = _BANDED[self.name][0]
            if not lo <= self.ell <= self.k:
                raise ValueError(f"need {lo} <= ell <= k")
        elif self.ell is not None:
            raise ValueError(f"{self.name} takes no ell")
        if self.name == "mu" and self.k == 1 and self.n > 1:
            # the k-1 prefix is empty, so every row is special
            raise ValueError("mu has empty support for k=1, n>1")

    # -- exact pmf ---------------------------------------------------------

    def pmf(self, x: InputMatrix) -> Fraction:
        if (x.n, x.k) != (self.n, self.k):
            raise ValueError("matrix shape does not match distribution")
        n, k = self.n, self.k
        full = (1 << k) - 1

        if self.name == "mu":
            prefix = (1 << (k - 1)) - 1
            special = sum(1 for r in x.rows if (r & prefix) == prefix)
            return Fraction(1, 2 * n * (full - 1) ** (n - 1)) if special == 1 else Fraction(0)

        if self.name == "nu":
            c1, c0 = nu_counts(n, k)
            w = Fraction(1, 2 * c1 + c0)
            return 2 * w if eval_mod3xor(x) == 1 else w

        lo, plant, _ = _BANDED[self.name]
        hi = k if self.ell is None else self.ell
        size = band_size(k, lo, hi)
        outside = [r for r in x.rows if not lo <= k - r.bit_count() <= hi]
        if not outside:  # every row drawn from the band
            return Fraction(1 - plant, size**n)
        if outside == [full]:  # the planted row and n - 1 band rows
            return Fraction(plant, n * size ** (n - 1))
        return Fraction(0)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> InputMatrix:
        n, k = self.n, self.k
        full = (1 << k) - 1

        if self.name == "mu":
            if k == 1:
                # vacuous prefix: only n=1 has support, the row is free
                rows = [_randbelow(rng, 2)]
            else:
                prefix = (1 << (k - 1)) - 1
                special = _randbelow(rng, n)
                rows = []
                for i in range(n):
                    last = _randbelow(rng, 2) << (k - 1)
                    head = prefix if i == special else _randbelow(rng, prefix)
                    rows.append(head | last)
        elif self.name == "nu":
            rows = self._sample_nu_rows(rng)
        else:
            lo, plant, plain = _BANDED[self.name]
            hi = k if self.ell is None else self.ell
            # the mixture's coin comes before the planted position
            planted = plant == 1 or (plant > 0 and _randbelow(rng, 2) == 1)
            special = _randbelow(rng, n) if planted else -1
            # a free row is one int below 2^k - 1, or a band rank unranked by
            # the shared ``combinatorics.unrank_band_row``
            draws = iter(_randbelow_each(rng, full if plain else band_size(k, lo, hi), n - planted))
            rows = [
                full if i == special
                else next(draws) if plain
                else unrank_band_row(k, lo, hi, next(draws))
                for i in range(n)
            ]
        return InputMatrix(k=k, rows=tuple(rows))

    def _sample_nu_rows(self, rng) -> list[int]:
        n, k = self.n, self.k
        c1, c0 = nu_counts(n, k)
        target = 1 if _randbelow(rng, 2 * c1 + c0) < 2 * c1 else 0
        want_mod = (0,) if target == 1 else (1, 2)
        counts = [comb(n, j) for j in range(n + 1)]
        total = sum(counts[j] for j in range(n + 1) if j % 3 in want_mod)
        r = _randbelow(rng, total)
        for j in range(n + 1):
            if j % 3 not in want_mod:
                continue
            if r < counts[j]:
                odd_rows = unrank_combination(_randbelow(rng, counts[j]), n, j) if j else ()
                break
            r -= counts[j]
        odd = set(odd_rows)
        return [_row_with_parity(rng, k, 1 if i + 1 in odd else 0) for i in range(n)]


def make_dist(name: str, n: int, k: int, ell: Optional[int] = None) -> DistributionSpec:
    return DistributionSpec(name=name, n=n, k=k, ell=ell)


def parse_dist_string(spec: str, n: int, k: int) -> DistributionSpec:
    """Parse "NAME[:ell=N]" at the caller's n x k shape, e.g. "sigma" or
    "upsilon:ell=2". The only key is ell; unknown or repeated keys and
    non-integer values are refused.
    """
    name, colon, args = spec.partition(":")
    ell = None
    for part in args.split(",") if colon else ():
        key, _, val = part.partition("=")
        if key != "ell" or ell is not None:
            why = "given twice" if key == "ell" else "not one of ell"
            raise ValueError(f"distribution {spec!r}: key {key!r} {why}")
        try:
            ell = int(val)
        except ValueError:
            raise ValueError(f"distribution {spec!r}: {key}={val!r} is not an integer") from None
    return make_dist(name.strip(), n, k, ell)

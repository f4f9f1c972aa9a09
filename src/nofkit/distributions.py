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

pmf() is exact rational for n*k <= 24 and double precision above; samplers
draw through a numpy Generator so the harness can key them off the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Union

import numpy as np

from .combinatorics import band_size, binom_leq, unrank_band_row, unrank_combination
from .functions import eval_mod3xor
from .matrices import InputMatrix

EXACT_PMF_CELLS = 24

Prob = Union[Fraction, float]

_NAMES = (
    "uniform",
    "upsilon",
    "mu",
    "sigma0",
    "sigma1",
    "sigma",
    "sigma0_ell",
    "sigma1_ell",
    "sigma_ell",
    "nu",
)


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


def _row_with_zero_count_range(rng, k: int, jmin: int, jmax: int) -> int:
    """Uniform row with between jmin and jmax zero entries: one uniform rank
    over the band, unranked by the shared ``combinatorics.unrank_band_row``."""
    return unrank_band_row(k, jmin, jmax, _randbelow(rng, band_size(k, jmin, jmax)))


def _row_with_parity(rng, k: int, parity: int) -> int:
    if k == 1:
        return parity
    head = _randbelow(rng, 1 << (k - 1))
    fix = (bin(head).count("1") + parity) & 1
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
            lo = 0 if self.name == "upsilon" else 1
            if not lo <= self.ell <= self.k:
                raise ValueError(f"need {lo} <= ell <= k")
        elif self.ell is not None:
            raise ValueError(f"{self.name} takes no ell")
        if self.name == "mu" and self.k == 1 and self.n > 1:
            # the k-1 prefix is empty, so every row is special
            raise ValueError("mu has empty support for k=1, n>1")

    # -- exact pmf ---------------------------------------------------------

    def pmf(self, x: InputMatrix) -> Prob:
        if (x.n, x.k) != (self.n, self.k):
            raise ValueError("matrix shape does not match distribution")
        value = self._pmf_fraction(x)
        if self.n * self.k <= EXACT_PMF_CELLS:
            return value
        return float(value)

    def _pmf_fraction(self, x: InputMatrix) -> Fraction:
        n, k = self.n, self.k
        full = (1 << k) - 1
        name = self.name

        if name == "uniform":
            return Fraction(1, 1 << (n * k))

        if name == "upsilon":
            cnt = binom_leq(k, self.ell)
            ok = all(k - bin(r).count("1") <= self.ell for r in x.rows)
            return Fraction(1, cnt**n) if ok else Fraction(0)

        if name == "mu":
            prefix = (1 << (k - 1)) - 1
            special = sum(1 for r in x.rows if (r & prefix) == prefix)
            if special != 1:
                return Fraction(0)
            denom = n * 2 * (full - 1) ** (n - 1)
            return Fraction(1, denom) if denom else Fraction(0)

        if name in ("sigma0", "sigma1", "sigma"):
            ones = sum(1 for r in x.rows if r == full)
            p0 = Fraction(1, full**n) if ones == 0 else Fraction(0)
            p1 = Fraction(1, n * full ** (n - 1)) if ones == 1 else Fraction(0)
            if name == "sigma0":
                return p0
            if name == "sigma1":
                return p1
            return (p0 + p1) / 2

        if name in ("sigma0_ell", "sigma1_ell", "sigma_ell"):
            cnt = binom_leq(k, self.ell) - 1  # rows with 1..ell zeros
            in_band = [1 <= k - bin(r).count("1") <= self.ell for r in x.rows]
            ones = sum(1 for r in x.rows if r == full)
            p0 = Fraction(1, cnt**n) if all(in_band) else Fraction(0)
            p1 = Fraction(0)
            if ones == 1:
                rest_ok = all(b for r, b in zip(x.rows, in_band) if r != full)
                if rest_ok:
                    p1 = Fraction(1, n * cnt ** (n - 1))
            if name == "sigma0_ell":
                return p0
            if name == "sigma1_ell":
                return p1
            return (p0 + p1) / 2

        if name == "nu":
            c1, c0 = nu_counts(n, k)
            w = Fraction(1, 2 * c1 + c0)
            return 2 * w if eval_mod3xor(x) == 1 else w

        raise AssertionError("unreachable")

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> InputMatrix:
        n, k = self.n, self.k
        full = (1 << k) - 1
        name = self.name

        if name == "sigma":
            pick = "sigma1" if _randbelow(rng, 2) else "sigma0"
            return DistributionSpec(pick, n, k).sample(rng)
        if name == "sigma_ell":
            pick = "sigma1_ell" if _randbelow(rng, 2) else "sigma0_ell"
            return DistributionSpec(pick, n, k, self.ell).sample(rng)

        if name == "uniform":
            rows = [_randbelow(rng, 1 << k) for _ in range(n)]
        elif name == "upsilon":
            rows = [_row_with_zero_count_range(rng, k, 0, self.ell) for _ in range(n)]
        elif name == "mu":
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
        elif name == "sigma0":
            rows = [_randbelow(rng, full) for _ in range(n)]
        elif name == "sigma1":
            special = _randbelow(rng, n)
            rows = [full if i == special else _randbelow(rng, full) for i in range(n)]
        elif name == "sigma0_ell":
            rows = [_row_with_zero_count_range(rng, k, 1, self.ell) for _ in range(n)]
        elif name == "sigma1_ell":
            special = _randbelow(rng, n)
            rows = [
                full if i == special else _row_with_zero_count_range(rng, k, 1, self.ell)
                for i in range(n)
            ]
        elif name == "nu":
            rows = self._sample_nu_rows(rng)
        else:
            raise AssertionError("unreachable")
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


def parse_dist_string(spec: str) -> DistributionSpec:
    """Parse CLI strings like "sigma:n=4,k=3" or "upsilon:n=4,k=6,ell=2"."""
    name, _, args = spec.partition(":")
    if not args:
        raise ValueError("expected NAME:n=...,k=...[,ell=...]")
    kv = {}
    for part in args.split(","):
        key, _, val = part.partition("=")
        if key not in ("n", "k", "ell") or not val:
            raise ValueError(f"bad distribution parameter {part!r}")
        kv[key] = int(val)
    if "n" not in kv or "k" not in kv:
        raise ValueError("distribution string needs n= and k=")
    return make_dist(name.strip(), kv["n"], kv["k"], kv.get("ell"))

"""Binomial helpers shared across the package.

Everything here is exact big-integer or rational arithmetic; the only floats
are the square roots inside the moment inequalities, where the comparison
carries an explicit tolerance.

``unrank_band_row`` is the one rank -> row kernel: the shared mask of the
parity protocol (``MaskVector.from_rank``) and the row law of the hard
distributions (``distributions._row_with_zero_count_range``) both draw a
rank and unrank it here. It walks the binomial counts with in-place
multiply/divide steps, O(k) exact-integer operations per row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt
from typing import Union

Rational = Union[int, Fraction]

# strict rational lower bound on e, enough digits that the sandwich check is
# conservative (proving c <= (e_lo*n/k)^k implies c <= (e*n/k)^k)
E_LOWER = Fraction("2.718281828459045")


def binom_leq(n: int, k: int) -> int:
    """Sum of C(n, i) for 0 <= i <= k; k past n just counts all subsets."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    return band_size(n, 0, min(n, k))


@lru_cache(maxsize=1024)
def band_size(k: int, jmin: int, jmax: int) -> int:
    """Number of rows of {0,1}^k with between jmin and jmax zeros."""
    if not 0 <= jmin <= jmax <= k:
        raise ValueError("need 0 <= jmin <= jmax <= k")
    return sum(comb(k, j) for j in range(jmin, jmax + 1))


def binom_sandwich_ok(n: int, k: int) -> bool:
    """(n/k)^k <= binom_leq(n,k) <= (e*n/k)^k, checked exactly.

    Both sides are cleared of denominators, k^k and (den*k)^k where
    E_LOWER = num/den, so the comparison is between integers.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    c = binom_leq(n, k)
    num, den = E_LOWER.as_integer_ratio()
    return n**k <= c * k**k and c * (den * k) ** k <= (num * n) ** k


def majority_tail(t: int, p: Rational) -> Fraction:
    """P[Bin(t, p) >= ceil(t/2)], the chance a majority vote goes bad.

    Exact; this is the per-protocol amplification error for odd t when each
    repetition fails independently with probability p.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    p = Fraction(p)
    need = (t + 1) // 2
    return sum(Fraction(comb(t, s)) * p**s * (1 - p) ** (t - s) for s in range(need, t + 1))


@lru_cache(maxsize=4096)
def _smallest_odd_majority_cached(p: Fraction, target: Fraction) -> int:
    t = 1
    while majority_tail(t, p) > target:
        t += 2
        if t > 100_001:
            raise RuntimeError("amplification did not converge")
    return t


def smallest_odd_majority(p: Rational, target: Rational) -> int:
    """Smallest odd t with majority_tail(t, p) <= target. Requires p < 1/2."""
    p = Fraction(p)
    target = Fraction(target)
    if not 0 <= p < Fraction(1, 2):
        raise ValueError("per-repetition error must be below 1/2")
    if target <= 0:
        raise ValueError("target must be positive")
    return _smallest_odd_majority_cached(p, target)


def fact21_check(n: int, p: float, tol: float = 1e-12) -> dict:
    """Check the three binomial moment inequalities at (n, p).

    1. E_{s~B(n-1,p)} [1/sqrt(n-s)]   <= 1/sqrt((1-p) n)
    2. E_{s~B(n-1,p)} [1/sqrt(s+1)]   <= 1/sqrt(p n)
    3. E_{s~B(n,p)}   [|s - p n|]     <= sqrt(p (1-p) n)

    Expectations are complete sums over the support (exact summation, float
    values). Degenerate right-hand sides at p in {0, 1} are +inf, i.e. the
    inequality holds vacuously.
    """
    if not 1 <= n:
        raise ValueError("need n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("need 0 <= p <= 1")

    q = 1.0 - p

    def pmf(m: int, s: int) -> float:
        return comb(m, s) * p**s * q ** (m - s)

    # B(n-1, p) feeds the first two sums; one row serves both
    row = [pmf(n - 1, s) for s in range(n)]
    lhs1 = sum(w / sqrt(n - s) for s, w in enumerate(row))
    rhs1 = 1.0 / sqrt(q * n) if p < 1.0 else float("inf")

    lhs2 = sum(w / sqrt(s + 1) for s, w in enumerate(row))
    rhs2 = 1.0 / sqrt(p * n) if p > 0.0 else float("inf")

    mean = p * n
    lhs3 = sum(pmf(n, s) * abs(s - mean) for s in range(n + 1))
    rhs3 = sqrt(p * q * n)

    rows = [
        ("inv_sqrt_remaining", lhs1, rhs1),
        ("inv_sqrt_count", lhs2, rhs2),
        ("mean_abs_dev", lhs3, rhs3),
    ]
    return {
        "n": n,
        "p": p,
        "checks": [
            {"name": name, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + tol}
            for name, lhs, rhs in rows
        ],
        "ok": all(lhs <= rhs + tol for _, lhs, rhs in rows),
    }


def _lex_positions(rank: int, n: int, r: int, block: int):
    """Yield the rank-th r-subset of {1..n} in lexicographic order.

    ``block`` must be C(n-1, r-1), the number of subsets that take position
    1. At each position c, with m = n - c positions after it, the block is
    C(m, r-1); moving on it becomes C(m-1, r-1) = C(m, r-1)(m-r+1)/m when c
    is skipped and C(m-1, r-2) = C(m, r-1)(r-1)/m when c is taken. Both
    divisions are exact.
    """
    for c in range(1, n + 1):
        m = n - c
        if rank < block:
            yield c
            r -= 1
            if not r:
                return
            block = block * r // m
        else:
            rank -= block
            block = block * (m - r + 1) // m


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The ``rank``-th k-subset of {1..n} in lexicographic order (0-based)."""
    if not 0 <= rank < comb(n, k):
        raise ValueError("rank out of range")
    if k == 0:
        return ()
    return tuple(_lex_positions(rank, n, k, comb(n - 1, k - 1)))


def unrank_band_row(k: int, jmin: int, jmax: int, rank: int) -> int:
    """The ``rank``-th row of {0,1}^k with jmin..jmax zeros (0-based).

    Rows are ordered by zero count, then by the lexicographic order of their
    zero positions; entry j of the row is bit j-1. The zero count is found
    by stepping C(k, j+1) = C(k, j)(k-j)/(j+1), and the positions by
    ``_lex_positions``, so a row costs O(k) exact-integer steps.
    """
    if not 0 <= rank < band_size(k, jmin, jmax):
        raise ValueError("rank out of range")
    j = jmin
    count = comb(k, j)
    while rank >= count:
        rank -= count
        count = count * (k - j) // (j + 1)
        j += 1
    row = (1 << k) - 1
    if j:
        for z in _lex_positions(rank, k, j, count * j // k):
            row ^= 1 << (z - 1)
    return row

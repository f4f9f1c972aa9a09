"""Binomial helpers shared across the package.

Everything here is exact big-integer or rational arithmetic; the only floats
are the square roots inside the moment inequalities, where the comparison
carries an explicit tolerance.

``unrank_band_row`` is the one rank -> row kernel: the shared mask of the
parity protocol (``MaskVector.from_rank``) and the row law of the hard
distributions (``DistributionSpec.sample``) both draw a
rank and unrank it here, and ``unrank_combination`` shares its walk. The
zero count is one bisection over cumulative counts; the positions are read
off a Pascal table (at most 256 rows by 128 columns, grown by additions up
to the widest row seen so far), one read, one compare and at most one
subtract per position. Positions before the last 256 of a wider row take
an in-place multiply/divide step instead.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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


def _tail_numerator(t: int, a: int, c: int) -> int:
    """Sum of C(t, s) a^s c^(t-s) over s >= ceil(t/2): with p = a/b and
    c = b - a, the majority tail times b^t. The terms are built from s = t
    down, each the one above times s*c / ((t-s+1)*a), an exact division."""
    if a == 0:
        return 0
    term = total = a**t
    for s in range(t, (t + 1) // 2, -1):
        term = term * s * c // ((t - s + 1) * a)
        total += term
    return total


def majority_tail(t: int, p: Rational) -> Fraction:
    """P[Bin(t, p) >= ceil(t/2)], the chance a majority vote goes bad.

    Exact: ``_tail_numerator`` over b^t for p = a/b, the one tail kernel,
    which ``smallest_odd_majority``'s search also reads. This is the
    amplification error for odd t when each repetition fails independently
    with probability p.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    return Fraction(_tail_numerator(t, a, b - a), b**t)


MAX_REPS = 100_001  # the most repetitions smallest_odd_majority will return


def _tail_exceeds(t: int, p: Fraction, target: Fraction) -> bool:
    """majority_tail(t, p) > target, compared on integers. The central term
    alone is tried first: C(t, s) >= 2^t / (t+1) at s = ceil(t/2) bounds the
    tail from below, and settles a target far below it without the sum."""
    a, b = p.numerator, p.denominator
    c = b - a
    s = (t + 1) // 2
    scale = target.numerator * b**t
    if (a**s * c ** (t - s) << t) * target.denominator > scale * (t + 1):
        return True
    return _tail_numerator(t, a, c) * target.denominator > scale


@lru_cache(maxsize=4096)
def _smallest_odd_majority_cached(p: Fraction, target: Fraction) -> int:
    # the tail falls as odd t grows (p < 1/2): double t = 2i + 1 past the
    # target, then bisect on i between the last miss and the first hit
    if not _tail_exceeds(1, p, target):
        return 1
    top = (MAX_REPS - 1) // 2
    lo, hi = 0, 1
    while _tail_exceeds(2 * hi + 1, p, target):
        if hi == top:
            raise ValueError(f"amplification needs more than {MAX_REPS} repetitions")
        lo, hi = hi, min(2 * hi, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_exceeds(2 * mid + 1, p, target):
            lo = mid
        else:
            hi = mid
    return 2 * hi + 1


def smallest_odd_majority(p: Rational, target: Rational) -> int:
    """Smallest odd t with majority_tail(t, p) <= target. Requires p < 1/2;
    refuses a target that needs more than MAX_REPS repetitions."""
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


_TABLE_WIDTH = 256  # rows of up to this many positions walk by table lookups
_TABLE_COLUMNS = _TABLE_WIDTH // 2  # a table walk takes at most half its positions

# _PASCAL[r][m] = C(m, r) for r < _TABLE_COLUMNS and m below the height
# reached so far; grown by _pascal, never shrunk
_PASCAL: list[list[int]] = []


def _pascal(height: int) -> list[list[int]]:
    """The Pascal table, first grown by additions to rows m < height."""
    cols = _PASCAL
    for m in range(len(cols[0]) if cols else 0, height):
        if m < _TABLE_COLUMNS:
            cols.append([0] * m)  # C(i, m) = 0 for i < m
        cols[0].append(1)
        for r in range(1, min(m + 1, _TABLE_COLUMNS)):
            cols[r].append(cols[r - 1][m - 1] + cols[r][m - 1])
    return cols


def _table_bits(rank: int, n: int, r: int) -> int:
    """Bit c-1 set for each c of the rank-th r-subset of {1..n} in
    lexicographic order; needs n <= _TABLE_WIDTH and 2r <= n.

    At a position with m positions after it, C(m, r-1) of the subsets left
    take it: the rank is below that count, or skips past it.
    """
    if not r:
        return 0
    cols = _pascal(n)
    col = cols[r - 1]
    bits = 0
    for m in range(n - 1, -1, -1):
        block = col[m]
        if rank < block:
            bits |= 1 << (n - 1 - m)
            r -= 1
            if not r:
                return bits
            col = cols[r - 1]
        else:
            rank -= block
    raise AssertionError("rank out of range")


def _lex_bits(rank: int, n: int, r: int, total: int) -> int:
    """Bit c-1 set for each c of the rank-th r-subset of {1..n} in
    lexicographic order; ``total`` must be C(n, r).

    Positions before the last _TABLE_WIDTH take an in-place step: C(n-1, r-1)
    = C(n, r) r / n subsets take the next one, an exact division. The rest
    walk the table, on the complement when more than half of them are taken:
    complementing reverses lexicographic order, so the n - r positions left
    out sit at rank C(n, r) - 1 - rank.
    """
    bits = shift = 0
    while n > _TABLE_WIDTH and r:
        block = total * r // n
        if rank < block:
            bits |= 1 << shift
            r -= 1
            total = block
        else:
            rank -= block
            total -= block
        n -= 1
        shift += 1
    if 2 * r > n:
        rest = ((1 << n) - 1) ^ _table_bits(total - 1 - rank, n, n - r)
    else:
        rest = _table_bits(rank, n, r)
    return bits | rest << shift


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The ``rank``-th k-subset of {1..n} in lexicographic order (0-based)."""
    total = comb(n, k)
    if not 0 <= rank < total:
        raise ValueError("rank out of range")
    bits = _lex_bits(rank, n, k, total)
    return tuple(c for c in range(1, n + 1) if bits >> (c - 1) & 1)


@lru_cache(maxsize=64)
def _zero_count_starts(k: int) -> list[int]:
    """Entry j is the number of rows of {0,1}^k with fewer than j zeros,
    for j = 0..k+1."""
    return list(accumulate((comb(k, j) for j in range(k + 1)), initial=0))


def unrank_band_row(k: int, jmin: int, jmax: int, rank: int) -> int:
    """The ``rank``-th row of {0,1}^k with jmin..jmax zeros (0-based).

    Rows are ordered by zero count, then by the lexicographic order of their
    zero positions; entry j of the row is bit j-1. The zero count is one
    bisection over the cumulative counts of rows by zero count, and the
    positions come from the table walk of ``_lex_bits``.
    """
    if not 0 <= rank < band_size(k, jmin, jmax):
        raise ValueError("rank out of range")
    starts = _zero_count_starts(k)
    rank += starts[jmin]
    j = bisect_right(starts, rank) - 1
    zeros = _lex_bits(rank - starts[j], k, j, starts[j + 1] - starts[j])
    return ((1 << k) - 1) ^ zeros

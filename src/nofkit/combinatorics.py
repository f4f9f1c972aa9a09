"""Binomial helpers shared across the package.

Every answer here is exact big-integer or rational arithmetic, apart from
the square roots inside the moment inequalities, where the comparison
carries an explicit tolerance.

``_tail_numerator`` is the one binomial tail kernel: P[Bin(t, p) >= start]
at rational p, any start, summed on integers over the shorter side.
``majority_tail`` and ``smallest_odd_majority`` read it, and so does
``tail_root``, which gives the Clopper-Pearson ends: the float nearest the
root of tail = target, ties to even. Floats only guide that search; every
comparison it makes is exact, either on the kernel's integers or, for a
long tail, by a ``decimal`` enclosure with directed rounding that falls
back on the integers when it holds the target.

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

import struct
from bisect import bisect_right
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, exp, expm1, log, log1p, sqrt
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


def _top_terms(t: int, a: int, c: int, start: int) -> int:
    """Sum of C(t, s) a^s c^(t-s) over start <= s <= t, for a > 0 and
    start >= 1.

    With j = t - s, term j is term j-1 times (t-j+1) c / (j a), so the sum
    is a^t times a series of ratio products, summed by binary splitting. A
    range [l, r) of terms returns P, the product of its ratios' numerators
    (t-i) c; Q, that of their counts i+1; A = a^(r-l); and T, the sum of
    its partial ratio products times Q A, an integer. Joining two ranges
    takes four products, so
    the work goes into a few large multiplications rather than t - start
    big-by-small steps; the closing division by Q = (t-start+1)! is exact.
    """

    def split(lo: int, hi: int) -> tuple[int, int, int, int]:
        if hi - lo == 1:
            return (t - lo) * c, lo + 1, a, (lo + 1) * a
        mid = (lo + hi) // 2
        p1, q1, a1, t1 = split(lo, mid)
        p2, q2, a2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, a1 * a2, t1 * q2 * a2 + p1 * t2

    _, q, _, total = split(0, t - start + 1)
    return a ** (start - 1) * total // q


def _tail_numerator(t: int, a: int, c: int, start: int) -> int:
    """Sum of C(t, s) a^s c^(t-s) over s >= start: with p = a/b and
    c = b - a, P[Bin(t, p) >= start] times b^t. The one tail kernel.

    It sums the shorter side: the terms s >= start when they are at most
    half, else the terms s < start (the top terms of the mirrored sum, with
    a and c swapped), subtracted from b^t.
    """
    if start > t or (a == 0 and start > 0):
        return 0
    if start <= 0 or c == 0:
        return (a + c) ** t
    if 2 * start > t:
        return _top_terms(t, a, c, start)
    return (a + c) ** t - _top_terms(t, c, a, t - start + 1)


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
    return Fraction(_tail_numerator(t, a, b - a, (t + 1) // 2), b**t)


# Directed-rounding contexts for the tail enclosure: 40 digits, and an
# exponent range wide enough that no term of a practical tail underflows.
_DOWN = Context(prec=40, rounding=ROUND_FLOOR, Emin=MIN_EMIN, Emax=MAX_EMAX)
_UP = Context(prec=40, rounding=ROUND_CEILING, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _power(x: Decimal, n: int, ctx: Context) -> Decimal:
    """x^n by repeated squaring, every product rounded by ``ctx``."""
    result = Decimal(1)
    while n:
        if n & 1:
            result = ctx.multiply(result, x)
        n >>= 1
        if n:
            x = ctx.multiply(x, x)
    return result


def _top_bounds(t: int, a: int, c: int, start: int) -> tuple[Decimal, Decimal]:
    """``_top_terms`` over (a + c)^t, enclosed: the terms from s = t down,
    each the one above times s*c / ((t-s+1)*a), walked twice, rounding every
    step down and then up. All values are positive, so each rounded step
    keeps its bound."""
    lo = total_lo = _power(_DOWN.divide(a, a + c), t, _DOWN)
    hi = total_hi = _power(_UP.divide(a, a + c), t, _UP)
    for s in range(t, start, -1):
        up, down = s * c, (t - s + 1) * a
        lo = _DOWN.divide(_DOWN.multiply(lo, up), down)
        hi = _UP.divide(_UP.multiply(hi, up), down)
        total_lo = _DOWN.add(total_lo, lo)
        total_hi = _UP.add(total_hi, hi)
    return total_lo, total_hi


def _tail_bounds(t: int, a: int, c: int, start: int) -> tuple[Decimal, Decimal]:
    """Decimal bounds lo <= P[Bin(t, p) >= start] <= hi, p = a/(a+c), for
    0 < start <= t and a, c > 0: ``_tail_numerator``'s shorter side with
    directed rounding."""
    if 2 * start > t:
        return _top_bounds(t, a, c, start)
    lo, hi = _top_bounds(t, c, a, t - start + 1)
    return _DOWN.subtract(1, hi), _UP.subtract(1, lo)


# past this many bits in b^t the integers mostly cost more than the
# enclosure (2-vCPU host, 54-bit b: 25 against 46 us at t = 40 and start 20,
# 45 against 14 us at t = 120 and start 3, 1.6 ms against 14 us at t = 2000)
_EXACT_BITS = 1 << 12


def _tail_gap(t: int, a: int, c: int, start: int, target: Fraction) -> tuple[int, float]:
    """(sign, size) of P[Bin(t, p) >= start] - target at p = a/(a+c): the
    sign exact (0 only on equality), the size a float near the difference.

    Where b^t is short the integers of ``_tail_numerator`` decide. A longer
    tail is first enclosed by ``_tail_bounds``, and the integers are summed
    only when the enclosure holds the target.
    """
    b = a + c
    if 0 < start <= t and a and c and t * b.bit_length() > _EXACT_BITS:
        lo, hi = _tail_bounds(t, a, c, start)
        if lo > target or hi < target:
            goal = _DOWN.divide(target.numerator, target.denominator)
            return (1 if lo > target else -1), float(_DOWN.subtract(lo, goal))
    scale = target.denominator * b**t
    diff = _tail_numerator(t, a, c, start) * target.denominator - target.numerator * b**t
    return (diff > 0) - (diff < 0), diff / scale


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def _midpoint(i: int) -> tuple[int, int]:
    """(a, c) with a/(a+c) the midpoint of the non-negative floats with bit
    patterns i and i+1."""
    n1, d1 = _bits_float(i).as_integer_ratio()
    n2, d2 = _bits_float(i + 1).as_integer_ratio()
    d = max(d1, d2)
    a = n1 * (d // d1) + n2 * (d // d2)
    return a, 2 * d - a


def _root_guess(t: int, start: int, target: float, failures: bool) -> tuple[float, float]:
    """A float near the root p of T(p) = target, with T(p) the chance of at
    least ``start`` successes (of failures, when ``failures``) in t trials of
    success probability p, and T's slope there.

    Newton's method in u = log p. log T is concave in u on both sides, so
    from a start where T <= target (C(t, start) q^start bounds T from above,
    q the counted outcome's probability) the steps approach the root from
    that side. T = pmf(start) * S, where S sums the pmf ratios from start
    outward; below the target the counted outcome is under its mean, so the
    ratios fall from the first.
    """
    log_c = log(comb(t, start))
    step = (log(target) - log_c) / start
    p = -expm1(step) if failures else exp(step)
    for _ in range(100):
        lp, lq = log(p), log1p(-p)
        if failures:
            lp, lq = lq, lp  # the counted outcome's log probability first
        ratio = exp(lp - lq)
        term = total = 1.0
        for s in range(start, t):
            term *= (t - s) / (s + 1) * ratio
            total += term
            if term < total * 1e-17:
                break
        log_tail = log_c + start * lp + (t - start) * lq + log(total)
        rate = start / total * (p / (p - 1) if failures else 1.0)  # d log T / du
        du = (log(target) - log_tail) / rate
        p = min(p * exp(du), 1.0)
        if abs(du) < 1e-15:
            break
    return p, target * rate / p


def tail_root(t: int, start: int, target: Fraction, failures: bool = False) -> float:
    """The float nearest (ties to even) the p in (0, 1) with
    P[Bin(t, p) >= start] = target, or, with ``failures``, P[Bin(t, 1 - p)
    >= start] = target; needs 1 <= start <= t and 0 < target < 1/2.

    A float Newton guess, one Newton step on ``_tail_gap``'s difference at
    that float, then a gallop and a bisection over the bit patterns of the
    floats. Each step asks on which side of the root the midpoint of two
    adjacent floats lies, a question ``_tail_gap`` answers exactly.
    """
    guess, slope = _root_guess(t, start, float(target), failures)

    def gap(a: int, c: int) -> tuple[int, float]:
        return _tail_gap(t, c, a, start, target) if failures else _tail_gap(t, a, c, start, target)

    n, d = guess.as_integer_ratio()
    sign, size = gap(n, d - n)
    if sign and slope:
        guess = min(max(guess - size / slope, 0.0), 1.0)

    top = _float_bits(1.0)
    above = {}  # pattern i -> sign of (root - midpoint of floats i and i+1)

    def root_above(i: int) -> int:
        if i < 0 or i >= top:
            return 1 if i < 0 else -1
        if i not in above:
            side = gap(*_midpoint(i))[0]
            above[i] = side if failures else -side  # T falls with p for failures
        return above[i]

    g = _float_bits(guess)
    step = 1
    if root_above(g) > 0:
        while root_above(g + step) > 0:
            step *= 2
        lo, hi = g + step // 2, g + step
    else:
        while root_above(g - step) <= 0:
            step *= 2
        lo, hi = g - step, g - step // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if root_above(mid) > 0:
            lo = mid
        else:
            hi = mid
    if root_above(hi) == 0 and hi & 1:
        hi += 1  # the root is the midpoint itself: ties go to the even float
    return _bits_float(hi)


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
    return _tail_numerator(t, a, c, s) * target.denominator > scale


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
def _zero_count_starts(k: int) -> tuple[int, ...]:
    """Entry j is the number of rows of {0,1}^k with fewer than j zeros,
    for j = 0..k+1."""
    return tuple(accumulate((comb(k, j) for j in range(k + 1)), initial=0))


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

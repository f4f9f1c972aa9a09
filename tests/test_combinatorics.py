import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, sqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nofkit
from nofkit import combinatorics
from nofkit.combinatorics import (
    E_LOWER,
    MAX_REPS,
    band_size,
    binom_leq,
    binom_sandwich_ok,
    fact21_check,
    majority_tail,
    smallest_odd_majority,
    unrank_band_row,
    unrank_combination,
)


def test_binom_leq_anchors():
    # frozen values used throughout the protocol parameter derivations
    assert binom_leq(4, 2) == 11
    assert binom_leq(3, 5) == 8
    assert binom_leq(64, 1) == 65
    assert binom_leq(16, 2) == 137
    assert binom_leq(256, 2) == 32897
    assert binom_leq(7, 0) == 1


def test_binom_leq_matches_direct_sum():
    for n in range(0, 12):
        for k in range(0, 14):
            assert binom_leq(n, k) == sum(comb(n, j) for j in range(min(n, k) + 1))


def test_sandwich_holds_on_grid():
    assert all(binom_sandwich_ok(n, k) for n in range(1, 40) for k in range(1, n + 1))


def test_sandwich_equals_its_fraction_form():
    for n in range(1, 129):
        for k in range(1, n + 1):
            c = binom_leq(n, k)
            expected = Fraction(n, k) ** k <= c <= (E_LOWER * n / k) ** k
            assert binom_sandwich_ok(n, k) == expected, (n, k)


def test_majority_tail_anchor():
    assert majority_tail(3, Fraction(1, 3)) == Fraction(7, 27)
    assert majority_tail(1, Fraction(1, 3)) == Fraction(1, 3)


def majority_tail_fraction_sum(t, p):
    """The tail as first written: one Fraction term per s >= ceil(t/2)."""
    p = Fraction(p)
    need = (t + 1) // 2
    return sum(Fraction(comb(t, s)) * p**s * (1 - p) ** (t - s) for s in range(need, t + 1))


def test_majority_tail_equals_the_fraction_sum():
    ps = [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
          Fraction(3, 4), Fraction(1)]
    for p in ps:
        a, b = p.numerator, p.denominator
        for t in range(1, 62):
            assert majority_tail(t, p) == majority_tail_fraction_sum(t, p), (t, p)
            # the generalised kernel at every start index, either side summed:
            # tails[start] is the Fraction sum of the terms s >= start
            terms = [Fraction(comb(t, s)) * p**s * (1 - p) ** (t - s) for s in range(t + 1)]
            tails = list(accumulate(reversed(terms), initial=Fraction(0)))[::-1]
            for start in range(-1, t + 3):
                want = tails[min(max(start, 0), t + 1)]
                assert Fraction(combinatorics._tail_numerator(t, a, b - a, start), b**t) == want, (
                    t, p, start)


def test_majority_tail_decreases():
    vals = [majority_tail(t, Fraction(1, 3)) for t in (1, 3, 5, 7, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


TAIL_CASES = [(1, 1, 2, 1), (7, 3, 4, 2), (40, 5, 11, 20), (61, 1, 1, 30), (120, 3, 1 << 20, 3),
              (300, 1, 3, 150), (2000, 1, 1 << 60, 1), (2000, 7, 9, 1000)]


@pytest.mark.parametrize("t, a, c, start", TAIL_CASES)
def test_the_tail_enclosure_holds_the_exact_tail_tightly(t, a, c, start):
    exact = Fraction(combinatorics._tail_numerator(t, a, c, start), (a + c) ** t)
    lo, hi = combinatorics._tail_bounds(t, a, c, start)
    assert lo <= exact <= hi
    assert hi - lo <= Fraction(1, 10**30) * max(exact, 1 - exact)


@pytest.mark.parametrize("bits", [0, 1 << 60], ids=["enclosed", "integers"])
@pytest.mark.parametrize("t, a, c, start", TAIL_CASES)
def test_the_tail_gap_sign_is_exact_on_either_path(t, a, c, start, bits, monkeypatch):
    # the threshold sends every tail to the enclosure first (0) or to the
    # integers alone; the enclosure decides a gap of 1e-20 of the larger of
    # the tail and its complement, and leaves one of 1e-45 of the tail, and
    # equality, to the integers
    exact = Fraction(combinatorics._tail_numerator(t, a, c, start), (a + c) ** t)
    lo, hi = combinatorics._tail_bounds(t, a, c, start)
    summed = []
    kernel = combinatorics._tail_numerator
    monkeypatch.setattr(combinatorics, "_EXACT_BITS", bits)
    monkeypatch.setattr(combinatorics, "_tail_numerator", lambda *args: summed.append(args) or kernel(*args))
    wide = max(exact, 1 - exact) / 10**20
    for nudge, decided in [(0, False), (exact / 10**45, False), (wide, bits == 0)]:
        for target, sign in [(exact - nudge, 1 if nudge else 0), (exact + nudge, -1 if nudge else 0)]:
            summed.clear()
            got, size = combinatorics._tail_gap(t, a, c, start, target)
            # the size is off by at most the enclosure's width and a rounding
            want = float(exact - target)
            assert got == sign and abs(size - want) <= float(hi - lo) + abs(want) / 2**50, target
            assert (summed == []) == decided


def test_smallest_odd_majority_anchors():
    assert smallest_odd_majority(Fraction(1, 3), Fraction(1, 3)) == 1
    assert smallest_odd_majority(Fraction(1, 3), Fraction(1, 16)) == 21
    assert smallest_odd_majority(Fraction(1, 3), Fraction(7, 27)) == 3


def test_smallest_odd_majority_is_minimal():
    for target in (Fraction(1, 4), Fraction(1, 10), Fraction(1, 100)):
        t = smallest_odd_majority(Fraction(1, 3), target)
        assert majority_tail(t, Fraction(1, 3)) <= target
        if t > 1:
            assert majority_tail(t - 2, Fraction(1, 3)) > target


def test_smallest_odd_majority_rejects_bad_p():
    with pytest.raises(ValueError):
        smallest_odd_majority(Fraction(1, 2), Fraction(1, 3))


def smallest_odd_majority_linear(p, target):
    """The search as first written: t = 1, 3, 5, ... until the tail fits."""
    t = 1
    while majority_tail(t, p) > target:
        t += 2
    return t


def test_smallest_odd_majority_equals_the_linear_search():
    ps = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
    targets = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10), Fraction(1, 100)]
    for p in ps:
        # each odd tail exactly, and just below it: the answer steps by 2
        edges = [majority_tail(t, p) for t in (1, 3, 7, 15)] if p else []
        for target in targets + [e for tail in edges for e in (tail, tail * Fraction(999, 1000))]:
            if target > 0:
                assert smallest_odd_majority(p, target) == smallest_odd_majority_linear(
                    p, target
                ), (p, target)


def test_smallest_odd_majority_is_minimal_at_a_small_target():
    p, target = Fraction(1, 3), Fraction(1, 10**20)
    t = smallest_odd_majority(p, target)
    assert majority_tail(t, p) <= target < majority_tail(t - 2, p)


def test_smallest_odd_majority_refuses_past_its_cap(monkeypatch):
    # the cap lowered to 11 repetitions, so the refusal costs no long tail
    monkeypatch.setattr(combinatorics, "MAX_REPS", 11)
    combinatorics._smallest_odd_majority_cached.cache_clear()
    try:
        assert smallest_odd_majority(Fraction(1, 3), majority_tail(11, Fraction(1, 3))) == 11
        with pytest.raises(ValueError, match="more than 11 repetitions"):
            smallest_odd_majority(Fraction(1, 3), Fraction(1, 10**6))
    finally:
        combinatorics._smallest_odd_majority_cached.cache_clear()
    assert MAX_REPS == 100_001


def test_fact21_check_sample_points():
    for n, p in [(1, 0.0), (1, 1.0), (5, 0.3), (64, 0.5), (17, 0.99)]:
        rep = fact21_check(n, p)
        assert rep["ok"], rep


def fact21_per_term(n, p, tol=1e-12):
    """fact21_check as first written: every sum recomputes its pmf terms."""

    def pmf(m, s):
        return comb(m, s) * p**s * (1.0 - p) ** (m - s)

    lhs1 = sum(pmf(n - 1, s) / sqrt(n - s) for s in range(n))
    rhs1 = 1.0 / sqrt((1.0 - p) * n) if p < 1.0 else float("inf")
    lhs2 = sum(pmf(n - 1, s) / sqrt(s + 1) for s in range(n))
    rhs2 = 1.0 / sqrt(p * n) if p > 0.0 else float("inf")
    mean = p * n
    lhs3 = sum(pmf(n, s) * abs(s - mean) for s in range(n + 1))
    rhs3 = sqrt(p * (1.0 - p) * n)
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


def test_fact21_check_floats_equal_the_per_term_sums():
    for n in range(1, 65):
        for i in range(101):
            assert fact21_check(n, i / 100) == fact21_per_term(n, i / 100), (n, i)


def test_fact21_mean_abs_dev_is_tight_at_half():
    # lhs approaches rhs for p=1/2; stays a genuine inequality
    rep = fact21_check(16, 0.5)
    checks = {c["name"]: c for c in rep["checks"]}
    c = checks["mean_abs_dev"]
    assert c["lhs"] <= c["rhs"]
    assert c["lhs"] > 0.75 * c["rhs"]


def test_unrank_combination_matches_lexicographic():
    for n in range(1, 8):
        for k in range(0, n + 1):
            expect = list(combinations(range(1, n + 1), k))
            got = [unrank_combination(r, n, k) for r in range(comb(n, k))]
            assert got == expect


def test_unrank_combination_range_checked():
    with pytest.raises(ValueError):
        unrank_combination(comb(5, 2), 5, 2)


def unrank_combination_reference(rank, n, k):
    """Comb-per-step unranking: the slow reference for the in-place walk."""
    out = []
    prev = 0
    remaining = k
    for _ in range(k):
        c = prev + 1
        while True:
            block = comb(n - c, remaining - 1)
            if rank < block:
                break
            rank -= block
            c += 1
        out.append(c)
        prev = c
        remaining -= 1
    return tuple(out)


def band_rows_in_order(k, jmin, jmax):
    """Every row with jmin..jmax zeros, by zero count then zero positions."""
    full = (1 << k) - 1
    return [
        full & ~sum(1 << (z - 1) for z in zeros)
        for j in range(jmin, jmax + 1)
        for zeros in combinations(range(1, k + 1), j)
    ]


def row_key(k, row):
    zeros = tuple(z for z in range(1, k + 1) if not (row >> (z - 1)) & 1)
    return len(zeros), zeros


def test_unrank_combination_matches_reference_on_random_ranks():
    rng = random.Random(300)
    for n in (8, 33, 64, 129, 256, 300):
        for k in sorted({1, 2, n // 3, n // 2, n - 1, n}):
            total = comb(n, k)
            for rank in [0, total - 1] + [rng.randrange(total) for _ in range(12)]:
                assert unrank_combination(rank, n, k) == unrank_combination_reference(
                    rank, n, k
                ), (n, k, rank)


def test_band_size_counts_the_band():
    assert band_size(4, 0, 2) == binom_leq(4, 2) == 11
    assert band_size(4, 1, 2) == 10
    assert band_size(256, 0, 256) == 1 << 256
    for bad in [(3, 2, 1), (3, -1, 1), (3, 0, 4)]:
        with pytest.raises(ValueError):
            band_size(*bad)


def test_unrank_band_row_matches_enumeration_exhaustively():
    for k in range(1, 11):
        for jmin in range(k + 1):
            for jmax in range(jmin, k + 1):
                expect = band_rows_in_order(k, jmin, jmax)
                assert band_size(k, jmin, jmax) == len(expect)
                got = [unrank_band_row(k, jmin, jmax, r) for r in range(len(expect))]
                assert got == expect, (k, jmin, jmax)


def test_unrank_band_row_range_checked():
    with pytest.raises(ValueError):
        unrank_band_row(5, 1, 2, band_size(5, 1, 2))
    with pytest.raises(ValueError):
        unrank_band_row(5, 1, 2, -1)


@st.composite
def band_and_rank(draw):
    k = draw(st.integers(1, 300))
    jmin = draw(st.integers(0, k))
    jmax = draw(st.integers(jmin, k))
    size = band_size(k, jmin, jmax)
    return k, jmin, jmax, draw(st.integers(0, max(size - 2, 0)))


@given(band_and_rank())
def test_consecutive_ranks_give_increasing_rows_in_band(case):
    k, jmin, jmax, rank = case
    a = row_key(k, unrank_band_row(k, jmin, jmax, rank))
    assert jmin <= a[0] <= jmax
    if rank + 1 < band_size(k, jmin, jmax):
        b = row_key(k, unrank_band_row(k, jmin, jmax, rank + 1))
        assert jmin <= b[0] <= jmax
        assert a < b


def lex_positions_reference(rank, n, r, block):
    """The in-place multiply/divide walk that unranked rows before the
    Pascal table: ``block`` is C(n-1, r-1)."""
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


def unrank_band_row_reference(k, jmin, jmax, rank):
    """unrank_band_row as the in-place walk computed it."""
    j = jmin
    count = comb(k, j)
    while rank >= count:
        rank -= count
        count = count * (k - j) // (j + 1)
        j += 1
    row = (1 << k) - 1
    if j:
        for z in lex_positions_reference(rank, k, j, count * j // k):
            row ^= 1 << (z - 1)
    return row


def band_cases(k):
    """Bands with every edge: one zero count (0, k and either side of k/2),
    the whole cube, and bands that stop or start at k/2."""
    half = {max(0, min(k, k // 2 + d)) for d in (-1, 0, 1)} | {(k + 1) // 2}
    bands = {(0, k), (0, 0), (k, k)} | {(j, j) for j in half}
    bands |= {(0, j) for j in half} | {(j, k) for j in half}
    return sorted(bands)


@pytest.mark.parametrize("k", list(range(1, 21)) + [255, 256, 257, 300, 600])
def test_unrank_band_row_matches_the_in_place_walk(k):
    rng = random.Random(k)
    for jmin, jmax in band_cases(k):
        size = band_size(k, jmin, jmax)
        # the first and last rank of each zero count at the band's ends
        edges, start = {0, size - 1}, 0
        for j in range(jmin, jmax + 1):
            if j in (jmin, jmin + 1, jmax - 1, jmax) or abs(2 * j - k) <= 2:
                edges |= {start, start + comb(k, j) - 1}
            start += comb(k, j)
        ranks = sorted(edges) + [rng.randrange(size) for _ in range(6)]
        for rank in ranks:
            assert unrank_band_row(k, jmin, jmax, rank) == unrank_band_row_reference(
                k, jmin, jmax, rank
            ), (k, jmin, jmax, rank)


def test_unrank_combination_matches_reference_past_the_table():
    rng = random.Random(400)
    for n in (255, 256, 257, 400):
        for k in sorted({0, 1, 2, n // 3, n // 2, n // 2 + 1, n - 1, n}):
            total = comb(n, k)
            for rank in {0, total - 1} | {rng.randrange(total) for _ in range(6)}:
                assert unrank_combination(rank, n, k) == unrank_combination_reference(
                    rank, n, k
                ), (n, k, rank)


def test_the_pascal_table_stops_at_its_reach():
    for k in (8, 600, 2000):
        unrank_band_row(k, 0, k, (1 << k) // 3)
        unrank_combination(comb(k, k // 2) // 3, k, k // 2)
    cols = combinatorics._pascal(0)
    assert len(cols) == 128 and {len(col) for col in cols} == {256}
    assert all(col[m] == comb(m, r) for r, col in enumerate(cols) for m in range(256))
    assert combinatorics._zero_count_starts.cache_info().maxsize == 64


def test_importing_the_cli_builds_no_table():
    script = (
        "import nofkit.cli\n"
        "from nofkit import combinatorics as c\n"
        "print(len(c._PASCAL), c._zero_count_starts.cache_info().currsize)\n"
    )
    src = str(Path(nofkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.split() == ["0", "0"]

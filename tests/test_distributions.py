from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit.combinatorics import band_size
from nofkit.distributions import (
    _NAMES,
    _row_with_zero_count_range,
    make_dist,
    nu_counts,
    parse_dist_string,
)
from nofkit.functions import eval_mod3xor
from nofkit.matrices import InputMatrix
from nofkit.tape import RandomTape

ALL_22 = [InputMatrix.from_code(2, 2, c) for c in range(16)]


def every_matrix(n, k):
    return (InputMatrix.from_code(n, k, c) for c in range(1 << (n * k)))


def test_pmf_is_exact_fraction_at_small_cells():
    d = make_dist("uniform", 2, 2)
    assert d.pmf(ALL_22[0]) == Fraction(1, 16)
    assert isinstance(d.pmf(ALL_22[0]), Fraction)


def test_all_families_normalize():
    cases = [
        ("uniform", None), ("mu", None), ("nu", None),
        ("sigma0", None), ("sigma1", None), ("sigma", None),
        ("upsilon", 1), ("upsilon", 2),
        ("sigma0_ell", 1), ("sigma1_ell", 2), ("sigma_ell", 1),
    ]
    for name, ell in cases:
        d = make_dist(name, 2, 2, ell=ell)
        total = sum(d.pmf(x) for x in ALL_22)
        assert total == 1, (name, ell, total)


def test_sigma1_anchor():
    d = make_dist("sigma1", 2, 2)
    x = InputMatrix.from_bits([[1, 1], [0, 1]])  # exactly one all-ones row
    assert d.pmf(x) == Fraction(1, 6)
    assert d.pmf(InputMatrix.from_bits([[1, 1], [1, 1]])) == 0
    assert d.pmf(InputMatrix.from_bits([[0, 1], [0, 1]])) == 0


def test_sigma_is_even_mixture():
    s = make_dist("sigma", 2, 2)
    s0 = make_dist("sigma0", 2, 2)
    s1 = make_dist("sigma1", 2, 2)
    for x in ALL_22:
        assert s.pmf(x) == (s0.pmf(x) + s1.pmf(x)) / 2


def test_sigma_ell_at_full_budget_equals_sigma():
    a = make_dist("sigma_ell", 2, 2, ell=2)
    b = make_dist("sigma", 2, 2)
    for x in ALL_22:
        assert a.pmf(x) == b.pmf(x)


def test_upsilon_full_budget_is_uniform():
    a = make_dist("upsilon", 2, 3, ell=3)
    for x in every_matrix(2, 3):
        assert a.pmf(x) == Fraction(1, 1 << 6)


@pytest.mark.parametrize("n, k", [(6, 12), (3, 70)])
def test_uniform_draws_the_upsilon_full_budget_stream(n, k):
    # one meaning of uniform: same rows as upsilon at ell = k, draw for draw
    # (k = 70 puts the band above 2^63, where draws take the byte path)
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    uniform, upsilon = make_dist("uniform", n, k), make_dist("upsilon", n, k, ell=k)
    for _ in range(20):
        assert uniform.sample(a).rows == upsilon.sample(b).rows


def test_upsilon_restricts_zero_count():
    d = make_dist("upsilon", 1, 3, ell=1)
    # rows must have at most one zero: 4 of the 8 rows qualify
    support = [x for x in every_matrix(1, 3) if d.pmf(x) > 0]
    assert len(support) == 4
    for x in support:
        assert d.pmf(x) == Fraction(1, 4)


def test_nu_anchor_and_doubling():
    d = make_dist("nu", 1, 1)
    assert d.pmf(InputMatrix.from_bits([[0]])) == Fraction(2, 3)
    assert d.pmf(InputMatrix.from_bits([[1]])) == Fraction(1, 3)
    for n, k in [(2, 2), (3, 1)]:
        dd = make_dist("nu", n, k)
        vals = {0: set(), 1: set()}
        for x in every_matrix(n, k):
            vals[eval_mod3xor(x)].add(dd.pmf(x))
        (w1,), (w0,) = vals[1], vals[0]
        assert w1 == 2 * w0


def test_nu_counts_against_enumeration():
    for n, k in [(1, 1), (3, 1), (1, 2), (2, 2), (2, 3)]:
        c1 = sum(1 for x in every_matrix(n, k) if eval_mod3xor(x) == 1)
        c0 = (1 << (n * k)) - c1
        assert nu_counts(n, k) == (c1, c0)


def test_mu_support_has_unique_special_row():
    d = make_dist("mu", 2, 3)
    for x in every_matrix(2, 3):
        p = d.pmf(x)
        special = sum(1 for r in x.rows if (r & 0b011) == 0b011)
        assert (p > 0) == (special == 1)


def test_validation_messages():
    with pytest.raises(ValueError):
        make_dist("upsilon", 2, 2)  # missing ell
    with pytest.raises(ValueError):
        make_dist("sigma", 2, 2, ell=1)  # spurious ell
    with pytest.raises(ValueError):
        make_dist("sigma_ell", 2, 2, ell=0)
    with pytest.raises(ValueError):
        make_dist("nope", 2, 2)
    with pytest.raises(ValueError):
        make_dist("uniform", 2, 2).pmf(InputMatrix.from_bits([[1]]))


@st.composite
def named_shapes(draw):
    name = draw(st.sampled_from(_NAMES))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8 // n))
    ell = None
    if name == "upsilon":
        ell = draw(st.integers(0, k))
    elif name.endswith("_ell"):
        ell = draw(st.integers(1, k))
    return name, n, k, ell


@settings(max_examples=80, deadline=None)
@given(named_shapes())
def test_pmf_sums_to_exactly_one_property(case):
    name, n, k, ell = case
    if name == "mu" and k == 1 and n > 1:
        with pytest.raises(ValueError):  # no matrix has exactly one special row
            make_dist(name, n, k, ell=ell)
        return
    d = make_dist(name, n, k, ell=ell)
    probs = [d.pmf(x) for x in every_matrix(n, k)]
    assert all(isinstance(p, Fraction) for p in probs)
    assert sum(probs) == Fraction(1)


@settings(max_examples=80, deadline=None)
@given(named_shapes(), st.integers(0, 2**32 - 1))
def test_every_sampled_matrix_has_positive_pmf_property(case, seed):
    name, n, k, ell = case
    if name == "mu" and k == 1 and n > 1:
        return  # refused at construction (see the normalisation property)
    d = make_dist(name, n, k, ell=ell)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = d.sample(rng)
        assert d.pmf(x) > 0, (name, n, k, ell, x.rows)


def test_pmf_is_exact_above_24_cells():
    d = make_dist("upsilon", 5, 5, ell=2)
    x = InputMatrix.from_bits([[1, 1, 1, 0, 0]] * 5)
    assert d.pmf(x) == Fraction(1, 16**5)
    assert isinstance(d.pmf(x), Fraction)
    big = make_dist("sigma", 8, 8)
    assert isinstance(big.pmf(big.sample(np.random.default_rng(1))), Fraction)


def test_mu_k1_edge():
    d = make_dist("mu", 1, 1)
    rng = RandomTape(4).stream("mu")
    assert d.sample(rng).n == 1
    with pytest.raises(ValueError):
        make_dist("mu", 2, 1).sample(rng)


class FixedDraw:
    """Stands in for a Generator whose next integer draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def integers(self, bound):
        assert 0 <= self.value < bound
        return self.value


def test_band_sampler_maps_each_draw_to_its_row_exhaustively():
    # the sampler's rank -> row order is zero count, then zero positions
    for k in range(1, 11):
        full = (1 << k) - 1
        for jmin, jmax in [(0, j) for j in range(k + 1)] + [(1, j) for j in range(1, k + 1)]:
            rows = [
                full & ~sum(1 << (z - 1) for z in zeros)
                for j in range(jmin, jmax + 1)
                for zeros in combinations(range(1, k + 1), j)
            ]
            assert band_size(k, jmin, jmax) == len(rows)
            for r in range(len(rows)):
                assert _row_with_zero_count_range(FixedDraw(r), k, jmin, jmax) == rows[r]


def test_samples_match_pmf_frequencies():
    trials = 4000
    for name, ell in [("sigma", None), ("upsilon", 1), ("nu", None), ("mu", None),
                      ("sigma_ell", 1)]:
        d = make_dist(name, 2, 2, ell=ell)
        rng = RandomTape(31).stream(f"samp/{name}")
        counts = {}
        for _ in range(trials):
            x = d.sample(rng)
            assert d.pmf(x) > 0, (name, x.rows)
            counts[x.rows] = counts.get(x.rows, 0) + 1
        for x in ALL_22:
            want = float(d.pmf(x))
            got = counts.get(x.rows, 0) / trials
            assert abs(got - want) < 0.04, (name, x.rows, want, got)


def test_parse_dist_string():
    # the shape comes from the caller only; n= and k= keys are refused
    with pytest.raises(TypeError):
        parse_dist_string("sigma:n=4,k=3")
    for spec, key in [
        ("sigma:n=4,k=3", "n"),
        ("upsilon:k=6,ell=2", "k"),
        ("upsilon:ell=2,n=4", "n"),
    ]:
        with pytest.raises(ValueError, match=f"key '{key}' not one of ell"):
            parse_dist_string(spec, 4, 6)


def test_parse_dist_string_with_fixed_shape():
    d = parse_dist_string("upsilon:ell=2", 4, 6)
    assert (d.name, d.n, d.k, d.ell) == ("upsilon", 4, 6, 2)
    assert parse_dist_string("uniform", 4, 6) == make_dist("uniform", 4, 6)
    for bad, words in [
        ("upsilon:foo=1", "'foo' not one of ell"),
        ("upsilon:n=4", "'n' not one of ell"),
        ("upsilon:ell=2,ell=3", "'ell' given twice"),
        ("upsilon:ell=two", "not an integer"),
        ("upsilon:ell=2:ell=3", "not an integer"),
        ("upsilon:", "not one of ell"),
        ("uniform:ell=2", "takes no ell"),
        ("nope", "unknown distribution"),
    ]:
        with pytest.raises(ValueError, match=words):
            parse_dist_string(bad, 4, 6)

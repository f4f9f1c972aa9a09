import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit import discrepancy
from nofkit.core import CylinderIntersection, all_ones_cylinder
from nofkit.discrepancy import (
    CapExceeded,
    CharacterSpec,
    CorrelationQuery,
    bns_rhs,
    check_bns_pairs,
    bound_suite,
    correlation,
    enumerate_cylinders,
    exact_disc,
    heuristic_disc,
    mod3_char_array,
    mod3_char_bns_closed_form,
    payoff_array,
)
from nofkit.distributions import make_dist
from nofkit.functions import eval_disj, eval_gip, gip_spec, udisj_spec
from nofkit.matrices import InputMatrix
from nofkit.tape import RandomTape


def uniform_weight_map(n, k):
    w = Fraction(1, 1 << (n * k))
    return {code: w for code in range(1 << (n * k))}


def dist_weight_map(dist):
    out = {}
    for code in range(1 << (dist.n * dist.k)):
        p = dist.pmf(InputMatrix.from_code(dist.n, dist.k, code))
        if p:
            out[code] = p
    return out


# -- exact discrepancy -------------------------------------------------------


def test_exact_disc_gip_uniform_anchors():
    assert exact_disc(CorrelationQuery(target=gip_spec(1, 2))) == Fraction(1, 2)
    assert exact_disc(CorrelationQuery(target=gip_spec(2, 2))) == Fraction(5, 16)


def test_exact_disc_within_closed_form_bound():
    for n, k in [(1, 2), (2, 2), (1, 3)]:
        value = exact_disc(CorrelationQuery(target=gip_spec(n, k)))
        bound = (1 - Fraction(4) ** (1 - k)) ** n
        assert value <= bound


def test_exact_disc_budget_family_dominance():
    # disc over a single subset <= disc over ell-subsets <= unrestricted disc
    q_s = CorrelationQuery(target=gip_spec(2, 2), family=(1,))
    q_ell = CorrelationQuery(target=gip_spec(2, 2), family=1)
    q_all = CorrelationQuery(target=gip_spec(2, 2))
    v_s, v_ell, v_all = exact_disc(q_s), exact_disc(q_ell), exact_disc(q_all)
    assert v_s <= v_ell <= v_all


def test_exact_disc_cap():
    with pytest.raises(CapExceeded):
        exact_disc(CorrelationQuery(target=gip_spec(2, 2)), cap=100)


def test_exact_disc_refuses_from_the_shape_before_building_items(monkeypatch):
    def no_items(q):
        raise AssertionError("signed items built before the cap check")

    monkeypatch.setattr(discrepancy, "_signed_items", no_items)
    with pytest.raises(CapExceeded, match=r"2\^196608 table tuples exceed cap 1048576"):
        exact_disc(CorrelationQuery(target=gip_spec(3, 6)))


def test_heuristic_disc_refuses_from_the_shape_before_building_items(monkeypatch):
    def no_items(q):
        raise AssertionError("signed items built before the cap check")

    monkeypatch.setattr(discrepancy, "_signed_items", no_items)
    # 2^18 inputs, each visited once per swept player
    with pytest.raises(CapExceeded, match=r"2\^18 inputs x 6 swept players exceed cap 1048576"):
        heuristic_disc(CorrelationQuery(target=gip_spec(3, 6)))
    with pytest.raises(CapExceeded, match=r"2\^4 inputs x 2 swept players exceed cap 31"):
        heuristic_disc(CorrelationQuery(target=gip_spec(2, 2)), cap=31)
    with pytest.raises(CapExceeded, match=r"x 1 swept players"):  # family 0 still reads every item
        heuristic_disc(CorrelationQuery(target=gip_spec(2, 2), family=0), cap=15)


def test_heuristic_disc_runs_at_the_cap():
    q = CorrelationQuery(target=gip_spec(2, 2))
    assert heuristic_disc(q, tape=RandomTape(9), cap=32) == heuristic_disc(q, tape=RandomTape(9))


def test_partial_target_needs_vanishing_weight():
    q = CorrelationQuery(target=udisj_spec(2, 2))  # uniform charges the gap
    with pytest.raises(ValueError, match="outside the target domain"):
        exact_disc(q)


def test_partial_target_with_supported_weight():
    sigma = make_dist("sigma", 2, 2)  # supported inside the udisj promise
    value = exact_disc(CorrelationQuery(target=udisj_spec(2, 2), weight=sigma))
    assert 0 < value <= 1


def test_correlation_refuses_a_family_exact_disc_refuses():
    q = CorrelationQuery(target=gip_spec(1, 2), family=(1, 5))
    chi = CylinderIntersection(n=1, k=2, players=(1,), tables=(1,))
    with pytest.raises(ValueError, match=r"bad player subset \(1, 5\)"):
        exact_disc(q)
    with pytest.raises(ValueError, match=r"bad player subset \(1, 5\)"):
        correlation(q, chi)


def test_correlation_rejects_out_of_family_cylinder():
    q = CorrelationQuery(target=gip_spec(1, 2), family=(1,))
    for chi in enumerate_cylinders(1, 2, (1, 2)):
        if chi.players == (1, 2):
            with pytest.raises(ValueError):
                correlation(q, chi)
            break


@st.composite
def weighted_cylinders(draw):
    """A query over a random weight and a random cylinder, at n*k <= 6."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6 // k))
    kind = draw(st.sampled_from(["uniform", "sigma", "mapping", "character"]))
    target = CharacterSpec(n=n, k=k) if kind == "character" else gip_spec(n, k)
    weight = None  # uniform
    if kind == "sigma":
        weight = make_dist("sigma", n, k)
    elif kind == "mapping":
        weight = draw(
            st.dictionaries(
                st.integers(0, (1 << (n * k)) - 1),
                st.fractions(min_value=0, max_value=3, max_denominator=12),
                max_size=12,
            )
        )
    players = tuple(sorted(draw(st.sets(st.integers(1, k)))))
    tables = tuple(draw(st.integers(0, (1 << (1 << ((k - 1) * n))) - 1)) for _ in players)
    chi = CylinderIntersection(n=n, k=k, players=players, tables=tables)
    return CorrelationQuery(target=target, weight=weight), chi


@settings(max_examples=60, deadline=None)
@given(weighted_cylinders())
def test_correlation_is_the_direct_weighted_sum(case):
    q, chi = case
    n, k = q.n, q.k
    total = 0
    for code in range(1 << (n * k)):
        x = InputMatrix.from_code(n, k, code)
        if q.weight is None:
            w = Fraction(1, 1 << (n * k))
        elif isinstance(q.weight, dict):
            w = q.weight.get(code, 0)
        else:
            w = q.weight.pmf(x)
        if isinstance(q.target, CharacterSpec):
            total += complex(w) * q.target.evaluate(x) * chi.evaluate(x)
        else:
            total += w * (1 - 2 * q.target.evaluate(x)) * chi.evaluate(x)
    got = correlation(q, chi)
    if isinstance(q.target, CharacterSpec):
        assert abs(got - abs(total)) < 1e-12
    else:
        assert isinstance(got, Fraction) or got == 0
        assert got == abs(total)


def test_enumerate_cylinders_count():
    # each constrained player has 2^(2^(n(k-1))) tables
    chis = list(enumerate_cylinders(1, 2, (1, 2)))
    assert len(chis) == 16
    assert len(set(chis)) == 16  # hashable, and pairwise distinct


# -- heuristic ---------------------------------------------------------------


def test_heuristic_never_exceeds_exact():
    for n, k, fam in [(1, 2, None), (2, 2, None), (2, 2, 1), (1, 3, None)]:
        q = CorrelationQuery(target=gip_spec(n, k), family=fam)
        h = heuristic_disc(q, restarts=4, tape=RandomTape(9))
        e = exact_disc(q)
        assert h <= e
        assert h == e  # tiny instances: the sweep finds the optimum


def test_heuristic_zero_restarts_is_all_ones_correlation():
    q = CorrelationQuery(target=gip_spec(1, 2))
    base = correlation(q, all_ones_cylinder(1, 2))
    assert heuristic_disc(q, restarts=0) == base


def test_heuristic_on_character_target():
    q = CorrelationQuery(target=CharacterSpec(n=2, k=2))
    h = heuristic_disc(q, restarts=4, tape=RandomTape(2))
    e = exact_disc(q)
    assert h <= e + 1e-12


# -- weight algebra ----------------------------------------------------------


def test_disc_convex_in_weight():
    n, k = 2, 2
    a = uniform_weight_map(n, k)
    b = dist_weight_map(make_dist("upsilon", n, k, ell=1))
    mix = {c: Fraction(a.get(c, 0) + b.get(c, 0), 2) for c in set(a) | set(b)}
    da = exact_disc(CorrelationQuery(target=gip_spec(n, k), weight=a))
    db = exact_disc(CorrelationQuery(target=gip_spec(n, k), weight=b))
    dm = exact_disc(CorrelationQuery(target=gip_spec(n, k), weight=mix))
    assert dm <= (da + db) / 2


def test_disc_lipschitz_in_weight():
    n, k = 1, 2
    a = uniform_weight_map(n, k)
    b = dict(a)
    shift = Fraction(1, 10)
    b[0] += shift
    b[3] -= shift
    da = exact_disc(CorrelationQuery(target=gip_spec(n, k), weight=a))
    db = exact_disc(CorrelationQuery(target=gip_spec(n, k), weight=b))
    l1 = sum(abs(a.get(c, 0) - b.get(c, 0)) for c in set(a) | set(b))
    assert abs(da - db) <= l1


# -- characters and the square-expectation bound ------------------------------


def test_char_all_ones_anchor():
    chi = all_ones_cylinder(1, 1)
    assert correlation(CorrelationQuery(CharacterSpec(1, 1)), chi) == pytest.approx(0.5)


def test_char_array_matches_spec_evaluate():
    for n, k in [(1, 1), (2, 2), (1, 3)]:
        spec = CharacterSpec(n=n, k=k)
        arr = mod3_char_array(n, k)
        for code in range(1 << (n * k)):
            x = InputMatrix.from_code(n, k, code)
            idx = tuple(
                sum(x.bit(r, j + 1) << r for r in range(n)) for j in range(k)
            )
            assert arr[idx] == pytest.approx(spec.evaluate(x))


def reference_mod3_char_array(n, k):
    """The mod-3 character's phi as first written, off the columns' XOR."""
    pop = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.int64)
    idx = np.zeros((1 << n,) * k, dtype=np.int64)
    for i in range(k):
        shape = [1] * k
        shape[i] = 1 << n
        idx = np.bitwise_xor(idx, np.arange(1 << n, dtype=np.int64).reshape(shape))
    return np.exp(2j * np.pi * (pop[idx] % 3) / 3)


def reference_payoff_array(fn, n, k):
    """The payoff array as first written: one InputMatrix per cell."""
    if fn == "mod3char":
        return reference_mod3_char_array(n, k)
    evaluate = eval_gip if fn == "gip" else eval_disj
    shape = (1 << n,) * k
    out = np.empty(shape, dtype=np.float64)
    for idx in np.ndindex(shape):
        rows = tuple(sum(((idx[j] >> r) & 1) << j for j in range(k)) for r in range(n))
        out[idx] = 1.0 - 2.0 * evaluate(InputMatrix(k=k, rows=rows))
    return out


@pytest.mark.parametrize("fn", ["gip", "disj", "mod3char"])
def test_payoff_array_equals_the_per_cell_reference(fn):
    for n in range(1, 13):
        for k in range(1, 12 // n + 1):
            want = reference_payoff_array(fn, n, k)
            got = payoff_array(fn, n, k)
            assert got.dtype == want.dtype and got.shape == want.shape, (n, k)
            assert got.tobytes() == want.tobytes(), (n, k)
    assert mod3_char_array(2, 3).tobytes() == payoff_array("mod3char", 2, 3).tobytes()


def test_bns_rhs_closed_form():
    assert bns_rhs(mod3_char_array(1, 1)) == pytest.approx(0.25)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            got = bns_rhs(mod3_char_array(n, k))
            want = mod3_char_bns_closed_form(n, k)
            assert got == pytest.approx(want), (n, k)


def test_bns_rhs_bounds_every_cylinder_correlation():
    for n, k in [(1, 1), (1, 2), (2, 2)]:
        rhs = bns_rhs(mod3_char_array(n, k))
        for chi in enumerate_cylinders(n, k, tuple(range(1, k + 1))):
            corr = correlation(CorrelationQuery(CharacterSpec(n, k)), chi)
            assert corr ** (1 << k) <= rhs + 1e-9


def test_bns_rhs_cap():
    with pytest.raises(CapExceeded):
        bns_rhs(mod3_char_array(2, 2), cap=10)


def test_bns_pair_check_needs_only_the_shape():
    check_bns_pairs((4, 4), cap=256)
    with pytest.raises(CapExceeded, match=r"2\^36 \(u0,u1\) tuples exceed cap 1048576"):
        check_bns_pairs((8,) * 6, cap=1 << 20)
    with pytest.raises(CapExceeded, match="^9 "):
        check_bns_pairs((3,), cap=8)


def test_char_budget_bound_is_strict_at_2_2():
    for ell in (1, 2):
        q = CorrelationQuery(target=CharacterSpec(n=2, k=2), family=ell)
        value = exact_disc(q)
        bound = math.exp(-2 / 4**ell)
        assert value < bound  # strict, with clear daylight
        assert bound - value > 0.1


# -- bound suite ---------------------------------------------------------------


# every row at the four verify shapes; (2, 2, 2, 2) holds the heuristic rows
BOUND_ROWS = {
    (2, 2, 1, 1): [
        ("gip-uniform", "all", 0.3125, "exact", "OK"),
        ("gip-upsilon-ell", "ell=1", 0.1111111111111111, "exact", "OK"),
        ("disj-mu-xor", "all", 0.25, "exact", "OK"),
        ("disj-sigma-xor", "all", 0.3888888888888889, "exact", "VACUOUS"),
        ("disj-sigma-ell-xor", "ell=1", 0.125, "exact", "VACUOUS"),
        ("mod3-nu", "ell=1", 0.2, "exact", "VACUOUS"),
        ("mod3-char", "ell=1", 0.2500000000000001, "exact", "OK"),
    ],
    (2, 2, 2, 1): [
        ("gip-uniform", "all", 0.3125, "exact", "OK"),
        ("gip-upsilon-ell", "ell=2", 0.3125, "exact", "OK"),
        ("disj-mu-xor", "all", 0.25, "exact", "OK"),
        ("disj-sigma-xor", "all", 0.3888888888888889, "exact", "VACUOUS"),
        ("disj-sigma-ell-xor", "ell=2", 0.3888888888888889, "exact", "VACUOUS"),
        ("mod3-nu", "ell=2", 0.2, "exact", "VACUOUS"),
        ("mod3-char", "ell=2", 0.2500000000000001, "exact", "OK"),
    ],
    (1, 3, 1, 1): [
        ("gip-uniform", "all", 0.75, "exact", "OK"),
        ("gip-upsilon-ell", "ell=1", 0.5, "exact", "OK"),
        ("disj-mu-xor", "all", 0.5, "exact", "VACUOUS"),
        ("disj-sigma-xor", "all", 0.5, "exact", "VACUOUS"),
        ("disj-sigma-ell-xor", "ell=1", 0.3333333333333333, "exact", "VACUOUS"),
        ("mod3-nu", "ell=1", 0.3333333333333333, "exact", "VACUOUS"),
        ("mod3-char", "ell=1", 0.5000000000000001, "exact", "OK"),
    ],
    (2, 2, 2, 2): [
        ("gip-uniform", "all", 0.3125, "exact", "OK"),
        ("gip-upsilon-ell", "ell=2", 0.3125, "exact", "OK"),
        ("disj-mu-xor", "all", 0.1875, "heuristic", "OK"),
        ("disj-sigma-xor", "all", 0.20987654320987653, "heuristic", "VACUOUS"),
        ("disj-sigma-ell-xor", "ell=2", 0.20987654320987653, "heuristic", "VACUOUS"),
        ("mod3-nu", "ell=2", 0.2, "exact", "VACUOUS"),
        ("mod3-char", "ell=2", 0.2500000000000001, "exact", "OK"),
    ],
}


@pytest.mark.parametrize("shape", sorted(BOUND_ROWS))
def test_bound_suite_rows_are_pinned(shape):
    rows = bound_suite(*shape)
    got = [(r["name"], r["family"], r["value"], r["mode"], r["status"]) for r in rows]
    assert got == BOUND_ROWS[shape]


def test_bound_suite_no_violations_micro():
    for n, k, ell, m in [(2, 2, 1, 1), (2, 2, 2, 1), (1, 3, 1, 1)]:
        rows = bound_suite(n, k, ell, m)
        assert len(rows) == 7
        assert all(r["status"] != "VIOLATION" for r in rows), rows
        names = {r["name"] for r in rows}
        assert names == {
            "gip-uniform",
            "gip-upsilon-ell",
            "disj-mu-xor",
            "disj-sigma-xor",
            "disj-sigma-ell-xor",
            "mod3-nu",
            "mod3-char",
        }


def test_bound_suite_documents_vacuous_rows():
    rows = {r["name"]: r for r in bound_suite(2, 2, 1, 1)}
    # the sqrt-based constant evaluates to ~1.366 at k=2: bound >= 1
    assert rows["disj-sigma-xor"]["status"] == "VACUOUS"
    assert rows["disj-sigma-xor"]["bound"] == pytest.approx(1.3660254037844386)
    assert rows["gip-uniform"]["status"] == "OK"
    assert rows["mod3-char"]["status"] == "OK"


def test_bound_suite_heuristic_fallback_past_cap():
    rows = bound_suite(2, 2, 2, 2, cap=1000)
    assert any(r["mode"] == "heuristic" for r in rows)
    assert all(r["status"] != "VIOLATION" for r in rows)


def test_bound_suite_validates_ell():
    with pytest.raises(ValueError):
        bound_suite(2, 2, 0, 1)
    with pytest.raises(ValueError):
        bound_suite(2, 2, 3, 1)


@pytest.mark.parametrize("n, want", [(1, 7), (2, 6), (3, 6)])
def test_bound_suite_leaves_out_the_mu_row_where_mu_is_empty(n, want):
    # at k = 1 every row is all-ones on its empty prefix, so mu has no
    # support once n > 1; the other six rows still evaluate
    rows = bound_suite(n, 1, 1)
    assert len(rows) == want
    assert ("disj-mu-xor" in {r["name"] for r in rows}) == (n == 1)
    assert all(r["status"] != "VIOLATION" for r in rows)

import math
from fractions import Fraction

import pytest

from nofkit import discrepancy
from nofkit.core import all_ones_cylinder
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
    uniform_char_correlation,
)
from nofkit.distributions import make_dist
from nofkit.functions import gip_spec, udisj_spec
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


def test_correlation_rejects_out_of_family_cylinder():
    q = CorrelationQuery(target=gip_spec(1, 2), family=(1,))
    for chi in enumerate_cylinders(1, 2, (1, 2)):
        if chi.players == (1, 2):
            with pytest.raises(ValueError):
                correlation(q, chi)
            break


def test_enumerate_cylinders_count():
    # each constrained player has 2^(2^(n(k-1))) tables
    chis = list(enumerate_cylinders(1, 2, (1, 2)))
    assert len(chis) == 16


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
    assert uniform_char_correlation(1, 1, all_ones_cylinder(1, 1)) == pytest.approx(0.5)


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
            corr = uniform_char_correlation(n, k, chi)
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

"""``protocols.layout`` against the per-protocol arithmetic it replaced.

The reference below is the block, repetition, trial and ceiling arithmetic
the three ``*_params`` calculators did on their own, each with its own eps
and 2^k checks, before one memoized record held it. The record must agree
with it at every cell of a small grid: the same blocks, widths,
repetitions, trials and ceiling, and the same ``InfeasibleParameters``
message where a cell has no layout.
"""

import re
from fractions import Fraction
from math import ceil, log

import pytest

from nofkit.combinatorics import binom_leq, smallest_odd_majority
from nofkit.protocols import (
    DISJ_GAP,
    DISJ_SUBCALL_ERROR,
    GIP_BASE_ERROR,
    InfeasibleParameters,
    _partition_rows,
    active_budget,
    ceil_log2,
    disj_protocol,
    gip_protocol,
    layout,
    mod3_protocol,
)

EPS_GRID = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 16), Fraction(1, 100)]


def ref_blocks_and_reps(row_ids, k, eps):
    blocks = _partition_rows(row_ids, k)
    return blocks, smallest_odd_majority(GIP_BASE_ERROR, eps / len(blocks))


def ref_gip(n, k, eps):
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    blocks, reps = ref_blocks_and_reps(range(n), k, eps)
    ells = [active_budget(len(rows), k, GIP_BASE_ERROR) for rows in blocks]
    return {
        "blocks": [(rows[0], rows[-1] + 1) for rows in blocks],
        "widths": ells,
        "spaces": [binom_leq(k, ell) for ell in ells],
        "reps": reps,
        "calls": 1,
        "cost_ceiling": reps * sum(ells),
    }


def ref_trials(eps):
    return ceil(log(1 / float(eps)) / (2 * float(DISJ_GAP) ** 2))


def ref_disj(n, k, eps):
    if k < 2:
        raise InfeasibleParameters("subcalls need k >= 2")
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    trials = ref_trials(eps)
    full = ref_gip(n, k, DISJ_SUBCALL_ERROR)
    return {**full, "calls": trials, "cost_ceiling": trials * full["cost_ceiling"]}


def ref_mod3(n, k, eps):
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    blocks, reps = ref_blocks_and_reps(range(n), k, eps)
    k_effs = [ceil_log2(3 * len(b)) for b in blocks]
    if any(ke > k for ke in k_effs):
        raise InfeasibleParameters("block does not fit its effective width")
    return {
        "blocks": [(rows[0], rows[-1] + 1) for rows in blocks],
        "widths": k_effs,
        "spaces": [1 << ke for ke in k_effs],
        "reps": reps,
        "calls": 1,
        "cost_ceiling": reps * 2 * sum(k_effs),
    }


REFERENCE = {"gip": ref_gip, "disj": ref_disj, "mod3": ref_mod3}
BUILDERS = {"gip": gip_protocol, "disj": disj_protocol, "mod3": mod3_protocol}


def outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleParameters as exc:
        return ("infeasible", str(exc))


def as_reference(lay):
    return {
        "blocks": [(start, stop) for start, stop, _, _ in lay.blocks],
        "widths": [w for _, _, w, _ in lay.blocks],
        "spaces": [space for _, _, _, space in lay.blocks],
        "reps": lay.reps,
        "calls": lay.calls,
        "cost_ceiling": lay.cost_ceiling,
    }


@pytest.mark.parametrize("protocol", ["gip", "disj", "mod3"])
def test_layout_matches_the_arithmetic_it_replaced(protocol):
    infeasible = 0
    for eps in EPS_GRID:
        for n in range(1, 65):
            for k in range(1, 13):
                want = outcome(REFERENCE[protocol], n, k, eps)
                got = outcome(lambda: as_reference(layout(protocol, n, k, eps)))
                assert got == want, (protocol, n, k, eps)
                if isinstance(want, tuple):
                    infeasible += 1
                    with pytest.raises(InfeasibleParameters, match=re.escape(want[1])):
                        BUILDERS[protocol](n, k, eps)
                else:
                    assert BUILDERS[protocol](n, k, eps).cost_ceiling == want["cost_ceiling"]
    assert infeasible > 0


def test_disj_trials_agree_with_the_float_formula():
    eps_values = {Fraction(a, b) for b in range(2, 100) for a in range(1, b)}
    eps_values |= {Fraction(s) for s in ("0.5", "0.25", "0.1", "0.05", "0.01", "0.001",
                                         "1e-6", "1e-9", "0.3", "0.99")}
    for eps in sorted(eps_values):
        assert layout("disj", 2, 2, eps).calls == ref_trials(eps), eps


def test_one_disj_trial_is_still_no_single_run():
    # 19/20 needs one Hoeffding trial, but its gip subcall votes 21 times
    lay = layout("disj", 4, 4, Fraction(19, 20))
    assert lay.calls == 1
    assert lay.reps == 21
    assert lay.single_width is None


def test_layout_refuses_bad_eps_and_unknown_protocols():
    for eps in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError, match="0 < eps < 1"):
            layout("gip", 4, 4, eps)
    with pytest.raises(ValueError, match="unknown protocol"):
        layout("foo", 4, 4, Fraction(1, 3))

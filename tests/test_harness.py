import json
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import nextafter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nofkit
from nofkit import combinatorics, harness
from nofkit.discrepancy import CapExceeded
from nofkit.functions import UNDEFINED
from nofkit.harness import (
    CSV_HEADER,
    ExperimentConfig,
    _trial_chunk,
    clopper_pearson,
    effective_workers,
    fold,
    parse_eps,
    report_to_csv_row,
    report_to_json,
    simulate,
    sweep,
    verify,
)
from nofkit.matrices import InputMatrix, format_matrix
from nofkit.protocols import layout


def strip_clock(report: dict) -> str:
    trimmed = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return json.dumps(trimmed, sort_keys=True)


def test_parse_eps_accepts_rationals_and_decimals():
    assert parse_eps("1/3") == Fraction(1, 3)
    assert parse_eps("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_eps("2")
    with pytest.raises(ValueError):
        parse_eps("0")
    assert parse_eps(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        parse_eps(Fraction(2))
    with pytest.raises(ValueError, match="zero denominator"):
        parse_eps("1/0")


def test_config_validation_messages():
    with pytest.raises(ValueError, match="protocol"):
        ExperimentConfig(protocol="nope", n=2, k=2)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(protocol="gip", n=2, k=3, trials=0)
    with pytest.raises(ValueError, match="exhaustive"):
        ExperimentConfig(protocol="gip", n=7, k=3, source="exhaustive")
    with pytest.raises(ValueError, match="exact_y"):
        ExperimentConfig(protocol="mod3", n=2, k=3, exact_y=True)
    with pytest.raises(ValueError, match="source"):
        ExperimentConfig(protocol="gip", n=2, k=3, source="http:nope")
    with pytest.raises(ValueError, match="64 bits"):
        ExperimentConfig(protocol="gip", n=2, k=3, seed=-1)


def test_simulate_reports_are_reproducible():
    cfg = ExperimentConfig(protocol="gip", n=4, k=3, trials=40, seed=123)
    assert strip_clock(simulate(cfg)) == strip_clock(simulate(cfg))


FOLD_CASES = [
    dict(protocol="gip", n=2, k=3),  # oracle applies
    dict(protocol="gip", n=3, k=2),  # blocked: no oracle
    dict(protocol="disj", n=4, k=3),
    dict(protocol="mod3", n=3, k=4),
    dict(protocol="gip", n=2, k=3, source="exhaustive", exact_y=True),
]
FOLD_TRIALS = 12


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(0, len(FOLD_CASES) - 1),
    cuts=st.lists(st.integers(0, FOLD_TRIALS), max_size=5),
)
def test_folded_chunks_equal_one_chunk(case, cuts):
    # any split of [0, T) into chunks, empty ones included, folds to the
    # tally of the whole range: the fold is what worker counts rely on
    cfg = ExperimentConfig(trials=FOLD_TRIALS, seed=5, **FOLD_CASES[case])
    bounds = [0, *sorted(cuts), FOLD_TRIALS]
    parts = fold(_trial_chunk(cfg, a, b) for a, b in zip(bounds, bounds[1:]))
    assert parts == _trial_chunk(cfg, 0, FOLD_TRIALS)


def test_gip_and_disj_trials_take_the_direct_vote_and_mod3_trials_run(monkeypatch):
    ran = []
    real = harness.run
    monkeypatch.setattr(harness, "run", lambda *args: ran.append(args) or real(*args))
    for protocol in ("gip", "disj"):
        simulate(ExperimentConfig(protocol=protocol, n=4, k=3, trials=3, seed=2))
    assert ran == []
    simulate(ExperimentConfig(protocol="mod3", n=4, k=3, trials=3, seed=2))
    assert len(ran) == 3


def test_simulate_worker_count_invariance():
    cfg = ExperimentConfig(protocol="mod3", n=4, k=8, trials=30, seed=6)
    assert strip_clock(simulate(cfg, workers=1)) == strip_clock(simulate(cfg, workers=3))


def test_effective_workers_clamps_to_trials_and_cpus(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert effective_workers(3, 100) == 3
    assert effective_workers(10**9, 100) == 4
    assert effective_workers(8, 2) == 2
    assert effective_workers(0, 100) == 1
    assert effective_workers(-5, 100) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert effective_workers(10**9, 100) == 1


def test_simulate_seed_changes_draws():
    a = simulate(ExperimentConfig(protocol="gip", n=4, k=3, trials=40, seed=1))
    b = simulate(ExperimentConfig(protocol="gip", n=4, k=3, trials=40, seed=2))
    assert a["config"]["seed"] != b["config"]["seed"]
    assert strip_clock(a) != strip_clock(b)


def test_simulate_cost_respects_ceiling_and_schema():
    r = simulate(ExperimentConfig(protocol="disj", n=4, k=4, trials=25, seed=4))
    assert r["schema"] == 1
    assert r["worst_cost_bits"] <= r["cost_ceiling_bits"]
    assert 0 <= r["ci_low"] <= r["emp_error"] <= r["ci_high"] <= 1


def test_simulate_oracle_fields_when_single_block():
    r = simulate(ExperimentConfig(protocol="gip", n=8, k=16, trials=30, seed=2))
    assert r["exact_error_mean"] is not None
    assert r["exact_error_max"] <= 8 / 137 + 1e-12
    blocked = simulate(ExperimentConfig(protocol="gip", n=4, k=3, trials=10, seed=2))
    assert blocked["exact_error_mean"] is None


@pytest.mark.parametrize("protocol, n, k, single", [
    ("gip", 8, 16, True),    # one block, one repetition
    ("gip", 4, 3, False),    # blocked and voted
    ("mod3", 4, 8, True),    # one block, folded to k_eff = 4
    ("disj", 4, 4, False),   # subcalls always repeat
])
def test_exact_error_fields_are_null_exactly_outside_a_single_base_run(protocol, n, k, single):
    assert (layout(protocol, n, k, Fraction(1, 3)).single_width is not None) == single
    r = simulate(ExperimentConfig(protocol=protocol, n=n, k=k, trials=6, seed=5))
    assert (r["exact_error_mean"] is not None) == single
    assert (r["exact_error_max"] is not None) == single


def test_simulate_mod3_folded_oracle_bounds_empirical_error():
    # k above the direct width folds to k_eff = 4: the collision space is
    # 2^4, so the meaningful ceiling is (distinct folded rows)/16
    r = simulate(ExperimentConfig(protocol="mod3", n=4, k=8, trials=600, seed=9))
    assert r["exact_error_max"] <= 4 / 16
    assert r["emp_error"] <= r["exact_error_max"] + 0.05


def test_simulate_fixed_matrix_source(tmp_path):
    x = InputMatrix.from_bits([[1, 1, 1], [0, 1, 1]])
    path = tmp_path / "x.txt"
    path.write_text(format_matrix(x))
    cfg = ExperimentConfig(protocol="gip", n=2, k=3, source=f"file:{path}",
                           trials=2000, seed=12)
    r = simulate(cfg)
    # wrong-output rate for this input is exactly 2/7
    assert abs(r["emp_error"] - 2 / 7) < 0.04
    assert r["exact_error_max"] == pytest.approx(2 / 7)


def test_simulate_matrix_shape_mismatch(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("1 2\n11\n")
    cfg = ExperimentConfig(protocol="gip", n=2, k=3, source=f"file:{path}", trials=5)
    with pytest.raises(ValueError, match="shape"):
        simulate(cfg)


def test_exact_y_mode_cross_checks_oracle():
    cfg = ExperimentConfig(protocol="gip", n=2, k=3, source="exhaustive",
                           trials=64, seed=0, exact_y=True)
    r = simulate(cfg)
    assert r["exact_oracle_checked"] is True
    assert r["runs"] == 64 * 7  # every mask for every matrix code
    assert r["ci_low"] is None and r["ci_high"] is None
    row = report_to_csv_row(r)
    assert ",,," not in CSV_HEADER  # header itself has no holes
    assert row.split(",")[6] == "" and row.split(",")[7] == ""


def test_exact_y_evaluates_the_oracle_once_per_input(monkeypatch):
    # the collision measure is checked against the trial's own oracle value
    real = harness.exact_gip_error
    calls = []

    def counted(x, ell):
        calls.append(x)
        return real(x, ell)

    cfg = ExperimentConfig(protocol="gip", n=2, k=3, source="exhaustive",
                           trials=64, seed=0, exact_y=True)
    monkeypatch.setattr(harness, "exact_gip_error", counted)
    assert simulate(cfg)["exact_oracle_checked"] is True
    assert len(calls) == 64
    monkeypatch.setattr(harness, "exact_gip_error", lambda x, ell: real(x, ell) + Fraction(1, 7))
    assert simulate(cfg)["exact_oracle_checked"] is False


def test_single_run_width_is_the_one_base_run_or_none():
    third = Fraction(1, 3)
    assert layout("gip", 4, 8, third).single_width == 2
    assert layout("mod3", 4, 8, third).single_width == 4
    # 3 one-row blocks x 13 repetitions at n=3 k=2
    assert layout("gip", 3, 2, third).single_width is None
    assert layout("mod3", 3, 2, third).single_width is None
    assert layout("disj", 2, 3, third).single_width is None


def test_exact_y_requires_single_block_regime():
    cfg = ExperimentConfig(protocol="gip", n=4, k=3, trials=5, exact_y=True)
    with pytest.raises(ValueError, match="single-block"):
        simulate(cfg)


def test_exact_y_runs_at_its_cap_and_refuses_past_it(monkeypatch):
    # n=2 k=3 enumerates 7 masks x 2 rows per input
    cfg = ExperimentConfig(protocol="gip", n=2, k=3, trials=3, exact_y=True)
    monkeypatch.setattr(harness, "EXACT_Y_CAP", 14)
    assert simulate(cfg)["runs"] == 3 * 7

    def unrun(*args):
        raise AssertionError("a trial ran before the cap check")

    monkeypatch.setattr(harness, "EXACT_Y_CAP", 13)
    monkeypatch.setattr(harness, "gip_base_outcome", unrun)
    with pytest.raises(CapExceeded, match="7 masks x 2 rows exceed cap 13"):
        simulate(cfg)


def test_clopper_pearson_properties():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.06
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and lo > 0.94
    lo, hi = clopper_pearson(7, 100)
    assert lo < 0.07 < hi
    wider_lo, wider_hi = clopper_pearson(7, 100, confidence=0.999)
    assert wider_lo <= lo and wider_hi >= hi


def tail_sign(t: int, start: int, p: Fraction, target: Fraction, failures: bool) -> int:
    """Sign of P[Bin(t, p) >= start] - target, or of P[Bin(t, 1 - p) >=
    start] - target with ``failures``, on integers."""
    a, b = p.numerator, p.denominator
    a, c = (b - a, a) if failures else (a, b - a)
    diff = combinatorics._tail_numerator(t, a, c, start) * target.denominator - target.numerator * b**t
    return (diff > 0) - (diff < 0)


def assert_nearest_root(end: float, t: int, start: int, target: Fraction, failures: bool):
    """``end`` is the float nearest the root of the tail = target, ties to
    even: the tail, read at the end, its two float neighbours and the two
    midpoints between them, passes the target from the lower midpoint to
    the upper one and not before or after."""
    below, above = Fraction(nextafter(end, 0)), Fraction(nextafter(end, 1))
    x = Fraction(end)
    points = [below, (below + x) / 2, x, (x + above) / 2, above]
    signs = [tail_sign(t, start, p, target, failures) for p in points]
    if failures:  # that tail falls as p grows
        signs = [-s for s in signs]
    assert signs == sorted(signs) and signs[0] < 0 < signs[4], (end, t, start, signs)
    assert signs[1] <= 0 <= signs[3], (end, t, start, signs)
    if 0 in (signs[1], signs[3]):  # the root is a midpoint
        assert struct.unpack("<q", struct.pack("<d", end))[0] % 2 == 0


def assert_exact_interval(wrong: int, trials: int, confidence: float):
    half = Fraction((1 - confidence) / 2)
    lo, hi = clopper_pearson(wrong, trials, confidence)
    assert (lo == 0.0) == (wrong == 0) and (hi == 1.0) == (wrong == trials)
    if wrong:  # P(X >= wrong) = alpha/2
        assert_nearest_root(lo, trials, wrong, half, failures=False)
    if wrong < trials:  # P(X <= wrong) = alpha/2, i.e. trials - wrong failures or more
        assert_nearest_root(hi, trials, trials - wrong, half, failures=True)


@pytest.mark.parametrize("confidence", [0.95, 0.99, 0.999])
def test_clopper_pearson_bit_identical_to_beta_quantiles(confidence):
    # the ends are Beta quantiles at alpha/2, and each must be the float
    # nearest the exact quantile, checked on integers at every wrong count
    for trials in range(1, 41):
        for wrong in range(trials + 1):
            assert_exact_interval(wrong, trials, confidence)


def test_clopper_pearson_is_exact_at_every_wrong_count_of_120_trials():
    for wrong in range(121):
        assert_exact_interval(wrong, 120, 0.99)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2000).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t))),
       st.sampled_from([0.95, 0.99, 0.999]))
def test_clopper_pearson_is_exact_on_a_sample_up_to_2000_trials(case, confidence):
    assert_exact_interval(*case, confidence)


@pytest.mark.parametrize("wrong", [0, 1, 100, 5000, 9999, 10000])
def test_clopper_pearson_is_exact_at_10000_trials(wrong):
    assert_exact_interval(wrong, 10000, 0.99)


def test_clopper_pearson_refuses_counts_and_confidences_out_of_range():
    for confidence in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="confidence"):
            clopper_pearson(1, 10, confidence)
    for wrong, trials in ((-1, 10), (11, 10)):
        with pytest.raises(ValueError, match="wrong <= trials"):
            clopper_pearson(wrong, trials)


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(nofkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nofkit.cli; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    assert "nofkit.cli" in out
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in out)


def test_structural_ell_values():
    assert layout("gip", 8, 16, Fraction(1, 3)).ell == 2
    assert layout("gip", 8, 64, Fraction(1, 3)).ell == 1
    assert layout("mod3", 4, 8, Fraction(1, 3)).ell == 4
    assert layout("disj", 16, 16, Fraction(1, 3)).ell == 2


def test_sweep_header_infeasible_rows_and_monotone_ell():
    lines = sweep("gip", [8], [2, 3, 16, 64], trials=8, seed=3)
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows[0][:2] == ["8", "2"] and rows[0][2] == ""  # infeasible: marked
    ells = [int(r[2]) for r in rows if r[2] != ""]
    assert ells == sorted(ells, reverse=True)
    for r in rows:
        assert r[8] == "3"  # seed column always present


@pytest.mark.parametrize("n_list, k_list, eps", [
    ([0, 4], [3], "1/3"),
    ([4], [0], "1/3"),
    ([-2], [3], "1/3"),
    ([4], [4], Fraction(2)),
])
def test_sweep_refuses_bad_shapes_and_eps_instead_of_empty_rows(n_list, k_list, eps):
    with pytest.raises(ValueError, match="n, k|eps"):
        sweep("gip", n_list, k_list, eps=eps, trials=4)


@pytest.mark.parametrize("protocol, trials, seed, words", [
    ("foo", 4, 0, "protocol"),  # the config check runs before any layout
    ("gip", 0, 0, "trials"),
    ("gip", 4, -1, "64 bits"),
    ("gip", 4, 1 << 64, "64 bits"),
])
def test_sweep_checks_the_config_even_where_no_cell_is_feasible(protocol, trials, seed, words):
    with pytest.raises(ValueError, match=words):
        sweep(protocol, [8], [2], trials=trials, seed=seed)


def test_verify_suites_all_pass():
    for suite in ("facts", "bounds", "identities", "decompose"):
        rows, ok = verify(suite)
        assert ok, (suite, [r for r in rows if not r["ok"]])
        assert rows


def test_identity_cell_fails_when_gip_is_flipped_on_one_block(monkeypatch):
    real = harness.eval_gip
    full = InputMatrix.from_code(6, 3, (1 << 18) - 1)
    monkeypatch.setattr(harness, "eval_gip", lambda x: real(x) ^ (x == full))
    assert not harness._identity_cell(1, 6, 3)


def test_identity_cell_fails_when_udisj_is_flipped_on_one_block(monkeypatch):
    real = harness.eval_udisj
    one_hit = InputMatrix(k=3, rows=(7, 0, 0))  # one all-ones row: value 0
    monkeypatch.setattr(harness, "eval_udisj", lambda x: 1 if x == one_hit else real(x))
    assert not harness._identity_cell(2, 3, 3)


def test_identity_cell_fails_when_the_block_fold_is_wrong_on_a_pair(monkeypatch):
    # flip the composed GIP where two blocks each carry exactly two all-ones
    # rows (UNDEFINED with GIP 0): only pairs of signatures see this fault
    real = harness._fold

    def fold(triples):
        triples = list(triples)
        gip, disj, udisj = real(triples)
        pair = sum(u is UNDEFINED and g == 0 for g, _, u in triples) == 2
        return gip ^ pair, disj, udisj

    monkeypatch.setattr(harness, "_fold", fold)
    assert not harness._identity_cell(2, 3, 3)


def walked_verdict(m: int, n: int, k: int) -> bool:
    """The composition identities at every stacked code: the fold of its
    blocks' values through harness's evaluators against the stacked rule at
    its all-ones row count."""
    full = (1 << k) - 1
    for code in range(1 << (m * n * k)):
        stacked = InputMatrix.from_code(m * n, k, code)
        blocks = [InputMatrix(k=k, rows=stacked.rows[b * n : (b + 1) * n]) for b in range(m)]
        udisjs = [harness.eval_udisj(b) for b in blocks]
        zeros = sum(u == 0 for u in udisjs)
        composed = (
            sum(harness.eval_gip(b) for b in blocks) & 1,
            int(all(harness.eval_disj(b) for b in blocks)),
            UNDEFINED if any(u is UNDEFINED for u in udisjs) or zeros > 1 else int(zeros == 0),
        )
        ones = stacked.rows.count(full)
        if composed != (ones & 1, int(ones == 0), UNDEFINED if ones > 1 else int(ones == 0)):
            return False
    return True


SMALL_CELLS = [
    (m, n, k)
    for m in range(1, 7)
    for n in range(1, 6 // m + 1)
    for k in (1, 2, 3)
    if m * n * k <= 12
]


def one_block_fault(name: str, n: int, k: int):
    """(evaluator name, faulty evaluator) wrong on one n x k block only: gip
    flipped on the all-ones block, disj on the all-zeros block, udisj read 1
    on the block whose one all-ones row is row 0."""
    full = (1 << k) - 1
    real = getattr(harness, name)
    wrong, rows = {
        "eval_gip": (lambda x: real(x) ^ 1, (full,) * n),
        "eval_disj": (lambda x: real(x) ^ 1, (0,) * n),
        "eval_udisj": (lambda x: 1, (full,) + (0,) * (n - 1)),
    }[name]
    block = InputMatrix(k=k, rows=rows)
    return lambda x: wrong(x) if x == block else real(x)


@pytest.mark.parametrize("m, n, k", SMALL_CELLS)
@pytest.mark.parametrize("fault", [None, "eval_gip", "eval_disj", "eval_udisj"])
def test_identity_cell_agrees_with_a_walk_over_every_stacked_code(m, n, k, fault, monkeypatch):
    if fault is not None:
        monkeypatch.setattr(harness, fault, one_block_fault(fault, n, k))
    verdict = walked_verdict(m, n, k)
    assert verdict == (fault is None)
    assert harness._identity_cell(m, n, k) == verdict


def test_identity_suite_holds_no_array_of_the_stacked_domain():
    tracemalloc.start()
    try:
        harness._suite_identities()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        verify("nope")


def test_report_json_is_sorted_and_versioned():
    r = simulate(ExperimentConfig(protocol="gip", n=2, k=3, trials=5, seed=1))
    text = report_to_json(r)
    parsed = json.loads(text)
    assert parsed["schema"] == 1
    assert list(parsed) == sorted(parsed)

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nofkit
from nofkit import cli, combinatorics, discrepancy, harness
from nofkit.cli import main
from nofkit.harness import CSV_HEADER
from nofkit.protocols import gip_protocol


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_simulate_json_report(tmp_path):
    code, rep = run_json(
        ["simulate", "--protocol", "gip", "--n", "4", "--k", "4",
         "--trials", "20", "--seed", "7"], tmp_path)
    assert code == 0
    assert rep["schema"] == 1
    assert rep["config"]["protocol"] == "gip"
    assert rep["runs"] == 20
    assert rep["worst_cost_bits"] <= rep["cost_ceiling_bits"]


def test_simulate_csv_row(tmp_path, capsys):
    code = main(["simulate", "--protocol", "mod3", "--n", "3", "--k", "4",
                 "--trials", "10", "--seed", "1", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "4" and cells[8] == "1"


def test_simulate_source_flags_are_exclusive(tmp_path):
    x = tmp_path / "x.txt"
    x.write_text("1 2\n11\n")
    with pytest.raises(SystemExit):
        main(["simulate", "--protocol", "gip", "--n", "1", "--k", "2",
              "--matrix", str(x), "--exhaustive", "--trials", "4"])


def test_simulate_infeasible_exits_nonzero(capsys):
    code = main(["simulate", "--protocol", "gip", "--n", "8", "--k", "2",
                 "--trials", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_cost_above_declared_ceiling_is_an_error_line(monkeypatch, capsys):
    def understated(n, k, eps):
        return dataclasses.replace(gip_protocol(n, k, eps), cost_ceiling=0)

    monkeypatch.setitem(harness.PROTOCOL_BUILDERS, "gip", understated)
    code = main(["simulate", "--protocol", "gip", "--n", "4", "--k", "4",
                 "--trials", "5", "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "ceiling 0" in err[0]


def test_sweep_csv_and_json(tmp_path, capsys):
    code = main(["sweep", "--protocol", "gip", "--n-list", "4,8",
                 "--k-list", "3,4", "--trials", "4", "--seed", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    code, payload = run_json(
        ["sweep", "--protocol", "gip", "--n-list", "4", "--k-list", "3",
         "--trials", "4", "--format", "json"], tmp_path)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["rows"][0]["n"] == "4" and payload["rows"][0]["k"] == "3"


@pytest.mark.parametrize("eps", ["2", "abc", "1/0"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_bad_eps_is_one_error_line(eps, fmt, capsys):
    code = main(["sweep", "--protocol", "gip", "--n-list", "4,8", "--k-list", "4",
                 "--eps", eps, "--format", fmt])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and eps in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["nan", "abc"])
def test_simulate_non_numeric_eps_names_its_field(eps, capsys):
    code = main(["simulate", "--protocol", "gip", "--n", "2", "--k", "3", "--eps", eps])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"error: eps: not a rational or decimal number: {eps}"]
    assert captured.out == ""


def test_matrix_file_with_a_non_integer_header_names_the_header(tmp_path, capsys):
    x = tmp_path / "x.txt"
    x.write_text("x y\n01\n")
    code = main(["exact-error", "--protocol", "gip", "--matrix", str(x)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "error: header: n and k must be integers, got 'x y'"]
    assert captured.out == ""


def test_simulate_zero_denominator_eps_is_one_error_line(capsys):
    code = main(["simulate", "--protocol", "gip", "--n", "2", "--k", "3", "--eps", "1/0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["error: eps: zero denominator in 1/0"]
    assert captured.out == ""


@pytest.mark.parametrize("flags, words", [
    (["--trials", "0"], "trials: must be >= 1"),
    (["--seed", "-1"], "master_seed must fit in 64 bits"),
])
def test_sweep_with_no_feasible_cell_still_checks_trials_and_seed(flags, words, capsys):
    code = main(["sweep", "--protocol", "gip", "--n-list", "8", "--k-list", "2", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: {words}"]
    assert captured.out == ""


def test_disc_at_k1_leaves_out_the_empty_mu_row(tmp_path):
    code, payload = run_json(["disc", "--fn", "gip", "--n", "2", "--k", "1"], tmp_path)
    assert code == 0
    assert [c["name"] for c in payload["bound_checks"]] == ["gip-uniform", "gip-upsilon-ell"]


def test_disc_exact_gip(tmp_path):
    code, payload = run_json(
        ["disc", "--fn", "gip", "--n", "2", "--k", "2", "--mode", "exact"],
        tmp_path)
    assert code == 0
    assert payload["mode"] == "exact"
    assert payload["value"] == pytest.approx(5 / 16)
    names = {row["name"]: row["status"] for row in payload["bound_checks"]}
    assert names["gip-uniform"] == "OK"
    assert "VIOLATION" not in names.values()


def test_disc_bns_matches_closed_form(tmp_path):
    code, payload = run_json(
        ["disc", "--fn", "mod3char", "--n", "1", "--k", "1", "--mode", "bns"],
        tmp_path)
    assert code == 0
    # rhs (1 - 3/2^(k+1))^n = 1/4, reported as the 2^k-th root
    assert payload["value"] == 0.25 ** 0.5
    assert payload["value_repr"] == "(1/4)^(1/2)"


@pytest.mark.parametrize("dist", ["sigma", "upsilon:ell=1", "mu"])
def test_disc_bns_refuses_non_uniform_dist(dist, monkeypatch, capsys):
    def unbuilt(*args, **kwargs):
        raise AssertionError("bns_rhs ran before the refusal")

    monkeypatch.setattr(cli, "bns_rhs", unbuilt)
    code = main(["disc", "--fn", "gip", "--n", "1", "--k", "2", "--mode", "bns", "--dist", dist])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "uniform" in err[0]


def test_disc_heuristic_stays_below_exact(tmp_path):
    _, exact = run_json(["disc", "--fn", "disj", "--n", "1", "--k", "2",
                         "--mode", "exact"], tmp_path, "a.json")
    _, heur = run_json(["disc", "--fn", "disj", "--n", "1", "--k", "2",
                        "--mode", "heuristic", "--seed", "5"], tmp_path, "b.json")
    assert heur["value"] <= exact["value"] + 1e-12


def test_exact_error_gip_and_mod3(tmp_path):
    x = tmp_path / "x.txt"
    x.write_text("2 3\n111\n011\n")
    code, payload = run_json(
        ["exact-error", "--protocol", "gip", "--matrix", str(x)], tmp_path)
    assert code == 0
    assert payload["exact_error"] == pytest.approx(2 / 7)
    assert payload["exact_error_repr"] == "2/7"
    code, payload = run_json(
        ["exact-error", "--protocol", "mod3", "--matrix", str(x)], tmp_path,
        "m.json")
    assert code == 0
    assert payload["k_eff"] == 3
    assert payload["exact_error"] == pytest.approx(2 / 8)


def test_exact_error_mod3_refuses_blocked_regime(tmp_path, capsys):
    # mod3 at n=3 k=2 runs three 1-row blocks of 13 repetitions each, so no
    # single collision probability is its error
    x = tmp_path / "x.txt"
    x.write_text("3 2\n11\n01\n10\n")
    code = main(["exact-error", "--protocol", "mod3", "--matrix", str(x)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "3 block(s)" in err[0]


def test_exact_error_mod3_single_block_uses_params_width(tmp_path):
    # n=4 k=8: one block folded to k_eff = ceil(log2 12) = 4 columns
    x = tmp_path / "x.txt"
    x.write_text("4 8\n11111111\n11110000\n00001111\n00000000\n")
    code, payload = run_json(
        ["exact-error", "--protocol", "mod3", "--matrix", str(x)], tmp_path)
    assert code == 0
    assert payload["k_eff"] == 4
    # columns 4..8 fold into one parity column: the first two rows both fold
    # to 1111 and the last two to 0000, so 2 of the 16 folded points collide
    assert payload["exact_error_repr"] == "1/8"


def test_exact_error_mod3_refuses_ell(tmp_path, capsys):
    x = tmp_path / "x.txt"
    x.write_text("2 3\n111\n011\n")
    code = main(["exact-error", "--protocol", "mod3", "--matrix", str(x), "--ell", "5"])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--ell" in err[0]
    assert captured.out == ""


def test_exact_error_ell_override(tmp_path):
    x = tmp_path / "x.txt"
    x.write_text("2 2\n11\n00\n")
    code, payload = run_json(
        ["exact-error", "--protocol", "gip", "--matrix", str(x),
         "--ell", "1"], tmp_path)
    assert code == 0
    assert payload["ell"] == 1
    # the all-zero row carries 2 zeros, so only the all-ones row collides
    assert payload["exact_error"] == pytest.approx(1 / 3)


def test_exact_error_gip_refuses_blocked_regime(tmp_path, capsys):
    # gip at n=3 k=2 runs three 1-row blocks of 13 repetitions each, so no
    # single collision probability is its error
    x = tmp_path / "x.txt"
    x.write_text("3 2\n10\n01\n11\n")
    code = main(["exact-error", "--protocol", "gip", "--matrix", str(x)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "3 block(s)" in err[0] and "13 repetition(s)" in err[0]
    # an explicit budget still answers for the whole matrix: 3 distinct rows
    # among the 4 masks with at most 2 zeros
    code, payload = run_json(
        ["exact-error", "--protocol", "gip", "--matrix", str(x), "--ell", "2"],
        tmp_path)
    assert code == 0
    assert payload["ell"] == 2 and payload["exact_error_repr"] == "3/4"


def test_exact_error_gip_single_block_uses_params_budget(tmp_path):
    # n=4 k=8 runs one block with mask budget 2: of the 37 masks with at most
    # 2 zeros, the rows with 0 and 1 zeros collide, the 4-zero rows cannot
    x = tmp_path / "x.txt"
    x.write_text("4 8\n11111111\n11110000\n11111110\n00000000\n")
    code, payload = run_json(
        ["exact-error", "--protocol", "gip", "--matrix", str(x)], tmp_path)
    assert code == 0
    assert payload["ell"] == 2
    assert payload["exact_error_repr"] == "2/37"


def test_verify_single_suite(tmp_path):
    code, payload = run_json(["verify", "--suite", "bounds"], tmp_path)
    assert code == 0
    assert payload["ok"] is True
    assert all(row["ok"] for row in payload["rows"])


def test_verify_csv(capsys):
    code = main(["verify", "--suite", "decompose", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "suite,check,ok,detail"
    assert all(ln.split(",")[2] == "1" for ln in lines[1:])


def test_missing_file_reports_error(capsys):
    code = main(["exact-error", "--protocol", "gip", "--matrix", "/no/such"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--protocol", "nope", "--n", "2", "--k", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("dist", ["upsilon:foo=1", "upsilon:ell=2:ell=3", "upsilon:ell=2,ell=3"])
@pytest.mark.parametrize("command", [
    ["simulate", "--protocol", "gip", "--n", "4", "--k", "6", "--trials", "4"],
    ["disc", "--fn", "gip", "--n", "2", "--k", "2"],
])
def test_bad_dist_string_is_one_error_line(command, dist, capsys):
    code = main(command + ["--dist", dist])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and dist in err[0]


def test_source_flags_conflict_is_an_argparse_error():
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--protocol", "gip", "--n", "1", "--k", "2",
              "--dist", "sigma", "--exhaustive"])
    assert info.value.code == 2


@pytest.mark.parametrize("mode", ["exact", "bns", "heuristic"])
def test_disc_refusal_is_one_error_line_naming_the_cap(mode, monkeypatch, capsys):
    # n=3, k=6: 2^18 inputs and 2^36 (u0,u1) pairs, none may be walked
    def unbuilt(*args):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(discrepancy, "_signed_items", unbuilt)
    monkeypatch.setattr(discrepancy, "_convolve", unbuilt)
    code = main(["disc", "--fn", "gip", "--n", "3", "--k", "6", "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceed cap 1048576" in err[0]


def test_sweep_refuses_past_max_reps_without_a_long_tail_sum(monkeypatch, capsys):
    # eps 1e-3000 needs more than MAX_REPS repetitions at p = 1/3; the
    # central-term bound refuses every doubling step without a full sum
    summed = []
    real = combinatorics._tail_numerator

    def counted(t, a, c, start):
        summed.append(t)
        return real(t, a, c, start)

    monkeypatch.setattr(combinatorics, "_tail_numerator", counted)
    code = main(["sweep", "--protocol", "gip", "--n-list", "4", "--k-list", "8",
                 "--eps", "1e-3000", "--trials", "1"])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "repetitions" in err[0]
    assert captured.out == ""
    assert all(t < 2049 for t in summed), max(summed)


@pytest.mark.parametrize("mode", ["exact", "heuristic", "bns"])
@pytest.mark.parametrize("ell", ["0", "3"])
def test_disc_refuses_ell_before_any_enumeration(ell, mode, monkeypatch, capsys):
    def unrun(*args, **kwargs):
        raise AssertionError("enumerated before the --ell check")

    for name in ("exact_disc", "heuristic_disc", "bns_rhs", "bound_suite"):
        monkeypatch.setattr(cli, name, unrun)
    code = main(["disc", "--fn", "gip", "--n", "3", "--k", "2", "--mode", mode, "--ell", ell])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert err == ["error: need 1 <= ell <= k"]
    assert captured.out == ""


def test_exact_y_past_its_cap_is_one_error_line(monkeypatch, capsys):
    def unrun(*args):
        raise AssertionError("a mask ran before the cap check")

    monkeypatch.setattr(harness, "gip_base_outcome", unrun)
    code = main(["simulate", "--protocol", "gip", "--n", "2000", "--k", "32",
                 "--exact-y", "--trials", "1"])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceed cap 1048576" in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("case", ["exact-y cap", "matrix shape", "dist ell"])
def test_simulate_refuses_a_bad_source_before_any_worker_starts(
    case, tmp_path, monkeypatch, capsys
):
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started before the config checks")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("os.cpu_count", lambda: 4)  # so --workers 2 means two workers
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 3\n111\n011\n")
    argv, words = {
        "exact-y cap": (["--protocol", "gip", "--n", "2000", "--k", "32", "--exact-y"],
                        "exceed cap 1048576"),
        "matrix shape": (["--protocol", "gip", "--n", "3", "--k", "3", "--matrix", str(matrix)],
                         "shape disagrees"),
        "dist ell": (["--protocol", "gip", "--n", "4", "--k", "3", "--dist", "upsilon:ell=9"],
                     "ell <= k"),
    }[case]
    code = main(["simulate", *argv, "--trials", "4", "--workers", "2"])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
    assert captured.out == ""


def test_disj_takes_an_eps_below_the_float_range(tmp_path):
    # 1e-400 is 0.0 as a float; the Hoeffding trial count reads the exact
    # fraction: 13,100 trials of a 63-bit subcall
    code, rep = run_json(
        ["simulate", "--protocol", "disj", "--n", "4", "--k", "4", "--eps", "1e-400",
         "--trials", "1"], tmp_path)
    assert code == 0
    assert rep["cost_ceiling_bits"] == 825300
    assert rep["worst_cost_bits"] <= 825300


def test_gip_and_mod3_take_an_eps_below_the_float_range(capsys):
    # the per-block target eps / blocks needs thousands of repetitions
    for protocol in ("gip", "mod3"):
        code = main(["sweep", "--protocol", protocol, "--n-list", "4", "--k-list", "8",
                     "--eps", "1e-400", "--trials", "1"])
        assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""


def test_repetitions_past_the_cap_are_one_error_line(monkeypatch, capsys):
    # the cap lowered to 11 repetitions; an eps no other test uses, so no
    # memoized layout answers for it
    monkeypatch.setattr(combinatorics, "MAX_REPS", 11)
    combinatorics._smallest_odd_majority_cached.cache_clear()
    try:
        code = main(["sweep", "--protocol", "gip", "--n-list", "4", "--k-list", "8",
                     "--eps", "1/1000003", "--trials", "1"])
    finally:
        combinatorics._smallest_odd_majority_cached.cache_clear()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "error: amplification needs more than 11 repetitions"]
    assert captured.out == ""


@pytest.mark.parametrize("n_list, k_list", [("0,4", "0,3"), ("-2", "3"), ("4", "0")])
def test_sweep_refuses_n_or_k_below_one(n_list, k_list, monkeypatch, capsys):
    def unrun(*args):
        raise AssertionError("a grid cell ran before the shape check")

    monkeypatch.setattr(harness, "layout", unrun)
    code = main(["sweep", "--protocol", "gip", "--n-list", n_list, "--k-list", k_list])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["error: n, k: must be >= 1"]
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flag, other, value, words", [
    ("--n-list", "--k-list", ",", "no values in ','"),
    ("--n-list", "--k-list", "4,x", "'x' is not an integer"),
    ("--k-list", "--n-list", " , ", "no values in ' , '"),
    ("--k-list", "--n-list", "3,1.5", "'1.5' is not an integer"),
])
def test_sweep_refuses_an_empty_or_non_integer_grid_flag(flag, other, value, words, fmt, capsys):
    code = main(["sweep", "--protocol", "gip", flag, value, other, "4", "--trials", "1",
                 "--format", fmt])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: {flag}: {words}"]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["disc", "--fn", "gip", "--n", "1", "--k", "2", "--format", "csv"],
    ["exact-error", "--protocol", "gip", "--matrix", "x.txt", "--format", "json"],
    ["exact-error", "--protocol", "gip", "--matrix", "x.txt", "--seed", "1"],
])
def test_flags_a_command_never_reads_are_usage_errors(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_verify_and_disc_keep_seed(tmp_path):
    code, payload = run_json(["verify", "--suite", "decompose", "--seed", "3"], tmp_path)
    assert code == 0 and payload["ok"] is True
    code, payload = run_json(["disc", "--fn", "gip", "--n", "1", "--k", "2",
                              "--mode", "heuristic", "--seed", "3"], tmp_path, "d.json")
    assert code == 0 and payload["mode"] == "heuristic"


def test_a_main_call_leaves_no_parser_garbage(tmp_path):
    # the parser is built once; a call that rebuilt it would leave its
    # groups, actions and formatter cycles to the cyclic collector
    argv = ["simulate", "--protocol", "gip", "--n", "4", "--k", "4", "--trials", "2",
            "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, (argparse.ArgumentParser, argparse.HelpFormatter))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


OUT_CASES = {
    "simulate": (["simulate", "--protocol", "disj", "--n", "16", "--k", "16", "--dist", "sigma",
                  "--trials", "200"], "simulate"),
    "sweep": (["sweep", "--protocol", "gip", "--n-list", "4", "--k-list", "4"], "sweep"),
    "disc": (["disc", "--fn", "gip", "--n", "2", "--k", "2"], "exact_disc"),
    "exact-error": (["exact-error", "--protocol", "gip", "--matrix", "MATRIX"], "exact_error_oracle"),
    "verify": (["verify", "--suite", "all"], "verify"),
}


def out_case(command, tmp_path, monkeypatch):
    """The command's argv, with its work replaced by a call that fails the test."""
    def unrun(*args, **kwargs):
        raise AssertionError(f"{command} did its work before the --out check")

    argv, work = OUT_CASES[command]
    monkeypatch.setattr(cli, work, unrun)
    matrix = tmp_path / "x.txt"
    matrix.write_text("2 3\n111\n011\n")
    return [str(matrix) if a == "MATRIX" else a for a in argv]


@pytest.mark.parametrize("command", sorted(OUT_CASES))
@pytest.mark.parametrize("target, words", [
    ("missing/out.json", "no directory"),
    ("x.txt/out.json", "no directory"),
    (".", "is a directory"),
])
def test_unusable_out_is_refused_before_any_work(command, target, words, tmp_path, monkeypatch, capsys):
    argv = out_case(command, tmp_path, monkeypatch)
    code = main(argv + ["--out", str(tmp_path / target)])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out") and words in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("command", sorted(OUT_CASES))
def test_a_failed_run_neither_creates_nor_truncates_its_out(command, tmp_path, monkeypatch):
    argv = out_case(command, tmp_path, monkeypatch)
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report\n")
    with pytest.raises(AssertionError):
        main(argv + ["--out", str(kept)])
    with pytest.raises(AssertionError):
        main(argv + ["--out", str(fresh)])
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


STARTUP_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import nofkit.cli

seen = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    code = nofkit.cli.main(argv)
    seen.append([argv[0], code, scipy_modules()])
print(json.dumps(seen))
"""


def test_no_command_loads_scipy_in_a_fresh_interpreter(tmp_path):
    # simulate and sweep compute Clopper-Pearson intervals, from the
    # package's own tail kernel
    matrix = tmp_path / "x.txt"
    matrix.write_text("2 3\n111\n011\n")
    out = ["--out", str(tmp_path / "out.json")]
    steps = [
        ["disc", "--fn", "gip", "--n", "2", "--k", "2", "--mode", "exact", "--ell", "1", *out],
        ["exact-error", "--protocol", "gip", "--matrix", str(matrix), *out],
        ["verify", "--suite", "decompose", *out],
        ["simulate", "--protocol", "gip", "--n", "4", "--k", "4", "--trials", "2", *out],
        ["sweep", "--protocol", "gip", "--n-list", "4", "--k-list", "4", "--trials", "2", *out],
    ]
    src = str(Path(nofkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    seen = json.loads(subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps(steps)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout)
    assert [(name, code) for name, code, _ in seen] == [
        ("import", 0), ("disc", 0), ("exact-error", 0), ("verify", 0), ("simulate", 0),
        ("sweep", 0)]
    assert [loaded for _, _, loaded in seen] == [[]] * 6

import dataclasses
import json

import pytest

from nofkit import cli, discrepancy, harness
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


@pytest.mark.parametrize("eps", ["2", "abc"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_bad_eps_is_one_error_line(eps, fmt, capsys):
    code = main(["sweep", "--protocol", "gip", "--n-list", "4,8", "--k-list", "4",
                 "--eps", eps, "--format", fmt])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and eps in err[0]
    assert captured.out == ""


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
    assert payload["value"] == pytest.approx(0.25 ** 0.5)


@pytest.mark.parametrize("dist", ["sigma", "upsilon:ell=1", "mu"])
def test_disc_bns_refuses_non_uniform_dist(dist, monkeypatch, capsys):
    def unbuilt(*args):
        raise AssertionError("payoff array built before the refusal")

    monkeypatch.setattr(cli, "_phi_array", unbuilt)
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
    # n=3, k=6: 2^18 inputs and a (2^3)^6 payoff array, neither may be built
    def unbuilt(*args):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(discrepancy, "_signed_items", unbuilt)
    monkeypatch.setattr(cli, "_phi_array", unbuilt)
    code = main(["disc", "--fn", "gip", "--n", "3", "--k", "6", "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceed cap 1048576" in err[0]

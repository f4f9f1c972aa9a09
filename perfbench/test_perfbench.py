"""Tests of the benchmark's own logic: span arithmetic and the checks.

    python3 -m pytest perfbench -q
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import nofkit.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nofkit.discrepancy import CorrelationQuery  # noqa: E402
from nofkit.functions import gip_spec  # noqa: E402


def _scripted(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_the_children_of_a_synthetic_span_tree():
    # a [0, 100] holds b [10, 30] and c [40, 60]; c holds d [45, 50]
    t = spans.Tracer(clock=_scripted([0, 10, 30, 40, 45, 50, 60, 100]))
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("c")
    t.enter("d")
    t.exit()
    t.exit()
    t.exit()
    assert dict(t.self_ns) == {"a": 60, "b": 20, "c": 15, "d": 5}
    assert dict(t.total_ns) == {"a": 100, "b": 20, "c": 20, "d": 5}
    assert sum(t.self_ns.values()) == t.total_ns["a"]
    assert dict(t.calls) == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_recursive_span_self_time_counts_each_level_once():
    # x [0, 50] holds x [10, 40], which holds y [20, 25]
    t = spans.Tracer(clock=_scripted([0, 10, 20, 25, 40, 50]))
    t.enter("x")
    t.enter("x")
    t.enter("y")
    t.exit()
    t.exit()
    t.exit()
    assert t.self_ns["x"] == 45 and t.self_ns["y"] == 5
    assert t.calls["x"] == 2


def test_wrapped_function_closes_its_span_when_it_raises():
    t = spans.Tracer(clock=_scripted([0, 7, 9, 12]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("tape.draw.randbelow", boom)()
    t.wrap("tape.draw.bitvector", lambda: 1)()
    assert t.calls["tape.draw.randbelow"] == 1 and t.self_ns["tape.draw.randbelow"] == 7
    metrics = spans.layer_metrics(t, ["tape.draw.calls", "tape.self_s"], {})
    assert metrics == {"tape.draw.calls": 2, "tape.self_s": 10e-9}


def test_layer_metrics_reject_a_name_no_span_computes():
    t = spans.Tracer()
    with pytest.raises(ValueError):
        spans.layer_metrics(t, ["tape.drwa.calls"], {})
    with pytest.raises(ValueError):
        spans.layer_metrics(t, ["tape.draw.mean"], {})


def test_latency_tail_keeps_ten_samples_beyond_it():
    p50, tail, pct = spans.latency_summary(range(1, 101))
    assert (p50, tail, pct) == (50.5, 90, 90.0)
    p50, tail, pct = spans.latency_summary(range(1, 23))
    assert (tail, pct) == (12, 100 * 12 / 22)
    p50, tail, pct = spans.latency_summary([4, 1, 3, 2])
    assert (p50, tail, pct) == (2.5, 4, 100.0)
    assert spans.latency_summary([7.0]) == (7.0, 7.0, 100.0)


def test_table_tuples_counts_every_subset_of_the_family():
    spec = gip_spec(3, 2)
    assert spans.table_tuples(CorrelationQuery(target=spec, family=1)) == 2 * 256
    assert spans.table_tuples(CorrelationQuery(target=spec, family=None)) == 256**2
    assert spans.table_tuples(CorrelationQuery(target=spec, family=(2,))) == 256


def _doctor(monkeypatch, change):
    """Make nofkit.cli.main print its report as ``change`` rewrites it."""
    real = nofkit.cli.main

    def doctored(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = real(argv)
        report = json.loads(buf.getvalue())
        change(report)
        print(json.dumps(report))
        return rc

    monkeypatch.setattr(nofkit.cli, "main", doctored)


def test_doctored_report_with_cost_above_ceiling_fails_its_operation(monkeypatch):
    gip = workloads.Simulate(("--protocol", "gip", "--n", "4", "--k", "4"),
                             trials=3, oracle=True, traced_ops=1)
    honest = gip.run_op(seed=5, index=0)
    assert honest.problems == [] and honest.units == 3 and honest.digest
    assert honest.wrong == 0

    _doctor(monkeypatch, lambda r: r.update(worst_cost_bits=r["cost_ceiling_bits"] + 1))
    op = gip.run_op(seed=5, index=0)
    assert len(op.problems) == 1 and "above ceiling" in op.problems[0]


def test_protocol_wrong_on_every_trial_fails_the_run(monkeypatch):
    # one or two trials a call: every call's own interval still reaches eps
    def always_wrong(report):
        report.update(wrong=report["runs"], emp_error=1.0)

    _doctor(monkeypatch, always_wrong)
    mod3 = workloads.Simulate(("--protocol", "mod3", "--n", "8", "--k", "3"),
                              trials=2, oracle=False, traced_ops=1)
    ops = [mod3.run_op(seed=2, index=i) for i in range(8)]
    assert all(op.problems == [] and op.wrong == 2 for op in ops)
    rows = [[op.seconds, op.units, op.problems, op.digest, op.wrong] for op in ops]
    checks, problems = run._pooled_check(rows)
    assert checks == 1 and problems and "pooled error" in problems[0]
    # an oracle report whose exact error exceeds eps fails its own call
    gip = workloads.Simulate(("--protocol", "gip", "--n", "4", "--k", "4"),
                             trials=1, oracle=True, traced_ops=1)
    _doctor(monkeypatch, lambda r: r.update(exact_error_max=1.0))
    assert "exact error" in gip.run_op(seed=2, index=0).problems[0]


def test_pooled_error_check_matches_the_clopper_pearson_low_end():
    from nofkit.harness import clopper_pearson

    for runs in (1, 2, 10, 40, 150):
        for wrong in range(runs + 1):
            low = clopper_pearson(wrong, runs)[0]
            if abs(low - 1 / 3) < 1e-9:
                continue
            flagged = bool(workloads.pooled_error_problems(wrong, runs))
            assert flagged == (low > 1 / 3), (wrong, runs, low)
    assert run._pooled_check([[0.1, 1, [], "", None]]) == (0, [])


def test_nonzero_exit_and_wrong_trial_count_fail():
    bad = workloads.Simulate(("--protocol", "gip", "--n", "8", "--k", "2"),
                             trials=2, oracle=True, traced_ops=1)
    op = bad.run_op(seed=1, index=0)
    assert op.problems and "exit 1" in op.problems[0]
    report = {"runs": 4, "worst_cost_bits": 2, "cost_ceiling_bits": 2, "ci_low": 0.0}
    report = {**report, "exact_error_max": 0.0, "wrong": 0}
    assert workloads.check_simulate(report, 4, oracle=True) == []
    assert workloads.check_simulate(report, 5, oracle=True)
    assert workloads.check_simulate({**report, "ci_low": 0.5}, 4, oracle=True)
    assert workloads.check_simulate(report, 4, oracle=False)
    assert workloads.check_simulate({**report, "wrong": None}, 4, oracle=True)


def test_traced_pass_counts_calls_at_every_lookup_site():
    # 20 mod3 128x8 calls of 2 trials: 2 blocks x 9 repetitions per trial,
    # 8 players, and two protocol builds per simulate call
    names = ["cli.calls", "harness.simulate.calls", "protocols.build.calls",
             "core.run.calls", "core.message.calls", "tape.draw.calls",
             "protocols.poly.expand_parity_poly.calls", "core.run.self_s"]
    job = {"mode": "pass", "workload": "sim_mod3_blocked", "seed": 3, "trace": True,
           "names": names}
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                         input=json.dumps(job) + "\n", capture_output=True, text=True,
                         timeout=120, check=True).stdout.splitlines()
    assert out[0] == "ready"
    result = json.loads(out[-1])
    metrics = result["metrics"]
    assert {k: metrics[k] for k in names[:-1]} == {
        "cli.calls": 20, "harness.simulate.calls": 20, "protocols.build.calls": 40,
        "core.run.calls": 40, "core.message.calls": 320, "tape.draw.calls": 720,
        "protocols.poly.expand_parity_poly.calls": 1440,
    }
    assert metrics["core.run.self_s"] > 0
    assert all(not op[2] for op in result["ops"])


def test_disc_hooks_count_its_table_tuples_and_bound_rows():
    # the disc command's bound_suite call is its own span with a row counter;
    # verify's calls stay on the general span
    code = """
import io, json, sys
from contextlib import redirect_stdout
sys.path[:0] = [{here!r}, {src!r}]
import nofkit.cli, spans
t = spans.Tracer()
spans.install(t)
with redirect_stdout(io.StringIO()):
    nofkit.cli.main(["disc", "--fn", "gip", "--n", "2", "--k", "2", "--mode", "exact", "--ell", "1"])
    print(json.dumps({{**t.calls, **t.counters}}), file=sys.stderr)
    nofkit.cli.main(["verify", "--suite", "bounds"])
print(json.dumps({{**t.calls, **t.counters}}))
""".format(here=HERE, src=os.path.join(os.path.dirname(HERE), "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    disc = json.loads(proc.stderr.splitlines()[-1])
    assert disc["discrepancy.bound_suite.disc"] == 1 and "discrepancy.bound_suite" not in disc
    assert disc["discrepancy.bound_rows.disc"] == 7
    # 32 of its own; the bound table's exact rows add theirs
    assert disc["discrepancy.table_tuples"] >= 32 and disc["discrepancy.exact"] >= 1
    both = json.loads(proc.stdout.splitlines()[-1])
    assert both["discrepancy.bound_suite.disc"] == 1  # verify's bound tables stay apart
    assert both["discrepancy.bound_rows.disc"] == 7
    assert both["discrepancy.bound_suite"] > 1 and both["harness.verify.bounds"] == 1


def test_kept_durations_follow_the_metric_names():
    assert spans.duration_spans(["core.run_ms_p50", "core.run_ms_tail", "cli.calls"]) == ("core.run",)
    with pytest.raises(ValueError):
        spans.duration_spans(["core.runn_ms_p50"])
    t = spans.Tracer(keep=spans.duration_spans(["harness.simulate_ms_p50"]))
    t.enter("harness.simulate")
    t.exit()
    assert spans.layer_metrics(t, ["harness.simulate_ms_p50"], {})["harness.simulate_ms_p50"] >= 0
    with pytest.raises(ValueError):
        spans.layer_metrics(t, ["core.run_ms_p50"], {})


def test_operation_seeds_derive_from_the_workload_seed():
    assert workloads.op_seed(3, 0) == workloads.op_seed(3, 0)
    assert len({workloads.op_seed(s, i) for s in range(4) for i in range(4)}) == 16
    assert all(0 <= workloads.op_seed(s, 0) < 1 << 64 for s in range(8))

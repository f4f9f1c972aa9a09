"""The benchmark's workloads: what each operation runs and how it is checked.

Every operation goes through the public ``nofkit.cli.main`` entry point in
this process, with stdout and stderr captured. Each operation's seed derives
from the workload seed and the operation's index, so one workload seed fixes
every input. The checks hold whatever the random stream gives; a digest of
each report is kept as information only, to show when a change moves the
stream. ``nofkit`` is imported only when an operation runs, so the runner
can use the checks without paying for the package's import.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

EPS = Fraction(1, 3)  # the CLI's default target error, which every simulate call uses
ALPHA = Fraction(1, 100)  # the CLI's confidence intervals are 99%


@dataclass
class Op:
    """One timed operation: wall seconds, units of work, failed checks."""

    seconds: float
    units: int
    problems: list = field(default_factory=list)
    digest: str = ""
    wrong: int | None = None  # wrong trials, for the pooled error check
    bound_rows_reported: int = 0


def op_seed(seed: int, index: int) -> int:
    """64-bit seed of operation ``index`` under workload seed ``seed``."""
    h = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def call_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr, seconds) of one ``nofkit.cli.main`` call."""
    from nofkit import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code
        except Exception:  # an uncaught error fails this operation, not the run
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def digest(report: dict) -> str:
    """Short digest of a report without its wall-clock field."""
    body = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:12]


def check_simulate(report: dict, trials: int, oracle: bool) -> list:
    """Problems with one simulate report; empty when every check holds."""
    problems = []
    if report.get("runs") != trials:
        problems.append(f"runs {report.get('runs')} != trials {trials}")
    worst, ceiling = report.get("worst_cost_bits"), report.get("cost_ceiling_bits")
    if ceiling is None or worst is None or worst > ceiling:
        problems.append(f"worst cost {worst} above ceiling {ceiling}")
    ci_low = report.get("ci_low")
    if ci_low is None or ci_low > EPS:
        problems.append(f"ci_low {ci_low} above eps {EPS}")
    exact_max = report.get("exact_error_max")
    if (exact_max is not None) != oracle:
        problems.append(f"exact oracle {'missing' if oracle else 'unexpected'}")
    elif oracle and exact_max > EPS:
        problems.append(f"exact error {exact_max} above eps {EPS}")
    if not isinstance(report.get("wrong"), int):
        problems.append(f"wrong count {report.get('wrong')!r} missing")
    return problems


def pooled_error_problems(wrong: int, runs: int) -> list:
    """Problems with the error rate of all trials of a run pooled together.

    One call's interval is too wide to catch a protocol that is wrong on
    every trial when a call holds one or two trials. Pooled, the 99%
    Clopper-Pearson interval's low end lies above eps exactly when
    P(X >= wrong) < alpha/2 for X ~ Binomial(runs, eps), computed exactly
    as one minus P(X < wrong).
    """
    p, q = EPS.numerator, EPS.denominator
    below = sum(comb(runs, i) * p**i * (q - p) ** (runs - i) for i in range(wrong))
    if Fraction(q**runs - below, q**runs) < ALPHA / 2:
        return [f"{wrong} of {runs} trials wrong: pooled error above eps {EPS}"]
    return []


def check_disc(report: dict, value: str) -> list:
    problems = []
    if report.get("value_repr") != value:
        problems.append(f"disc value {report.get('value_repr')} != {value}")
    bad = [c["name"] for c in report.get("bound_checks", []) if c["status"] == "VIOLATION"]
    if bad or not report.get("bound_checks"):
        problems.append(f"bound checks violated or missing: {bad}")
    return problems


def check_verify(report: dict) -> list:
    failed = [r["check"] for r in report.get("rows", []) if not r["ok"]]
    if report.get("ok") is not True or failed or not report.get("rows"):
        return [f"verify not ok: {failed}"]
    return []


def _run_checked(argv: list, check) -> tuple:
    """(seconds, report or None, problems) of one CLI call."""
    rc, out, err, seconds = call_cli(argv)
    if rc != 0:
        return seconds, None, [f"{argv[0]} exit {rc}: {err.strip()[-200:]}"]
    try:
        report = json.loads(out)
    except json.JSONDecodeError as e:
        return seconds, None, [f"{argv[0]} output is not JSON: {e}"]
    return seconds, report, check(report)


@dataclass(frozen=True)
class Simulate:
    """One ``simulate`` CLI call per operation."""

    args: tuple
    trials: int  # trials per call
    oracle: bool  # whether the exact per-input oracle applies at this shape
    traced_ops: int  # operations in one traced pass

    def run_op(self, seed: int, index: int) -> Op:
        argv = ["simulate", *self.args, "--trials", str(self.trials),
                "--seed", str(op_seed(seed, index))]
        seconds, report, problems = _run_checked(
            argv, lambda r: check_simulate(r, self.trials, self.oracle)
        )
        if report is None:
            return Op(seconds, self.trials, problems)
        wrong = report.get("wrong")
        return Op(seconds, self.trials, problems, digest(report),
                  wrong if isinstance(wrong, int) else None)


@dataclass(frozen=True)
class Certify:
    """One certify pass per operation: the exact ``disc`` value of gip over
    one-player cylinders with its bound rows, then ``verify --suite all``.

    ``disc`` runs at n=2: at n=3 it takes about 18 s, longer than a run can
    repeat it.
    """

    n: int
    k: int
    value: str  # exact disc value the check expects
    traced_ops: int

    def run_op(self, seed: int, index: int) -> Op:
        s = str(op_seed(seed, index))
        disc_argv = ["disc", "--fn", "gip", "--n", str(self.n), "--k", str(self.k),
                     "--mode", "exact", "--ell", "1", "--seed", s]
        t_disc, disc, problems = _run_checked(disc_argv, lambda r: check_disc(r, self.value))
        t_verify, verify, more = _run_checked(["verify", "--suite", "all", "--seed", s],
                                              check_verify)
        parts = [digest(r) for r in (disc, verify) if r]
        return Op(
            t_disc + t_verify,
            1,
            problems + more,
            "+".join(parts),
            bound_rows_reported=len(disc["bound_checks"]) if disc else 0,
        )


WORKLOADS = {
    "sim_gip_wide": Simulate(
        ("--protocol", "gip", "--n", "256", "--k", "256", "--dist", "uniform"),
        trials=1, oracle=True, traced_ops=8,
    ),
    "sim_disj_sigma": Simulate(
        ("--protocol", "disj", "--n", "16", "--k", "16", "--dist", "sigma"),
        trials=10, oracle=False, traced_ops=20,
    ),
    "sim_mod3_blocked": Simulate(
        ("--protocol", "mod3", "--n", "128", "--k", "8", "--dist", "uniform"),
        trials=2, oracle=False, traced_ops=20,
    ),
    "certify": Certify(n=2, k=2, value="1/4", traced_ops=1),
}

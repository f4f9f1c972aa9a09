"""Seeded experiments and verification suites behind the CLI.

Reports are deterministic functions of (config, seed): every trial t derives
its own tape as master.sub(f"trial{t}") and draws its input from that tape,
so results do not depend on how trials are scheduled. Every trial yields one
Tally of exact ints and Fractions, and one fold combines tallies at every
level: the masks of an exact_y input, the trials of a chunk and the chunks
of a run. The fold is associative and commutative, and floats appear only
when the report is assembled, which is what makes worker-count invariance
byte-exact.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .combinatorics import binom_leq, binom_sandwich_ok, fact21_check, tail_root
from .core import ProtocolSpec, decompose_to_cylinders, run
from .discrepancy import CapExceeded, bound_suite
from .distributions import parse_dist_string
from .functions import (
    UNDEFINED,
    eval_composed,
    eval_disj,
    eval_gip,
    eval_mod3xor,
    eval_udisj,
)
from .matrices import InputMatrix, all_inputs, parse_matrix
from .protocols import (
    InfeasibleParameters,
    MaskVector,
    disj_protocol,
    exact_gip_error,
    exact_mod3_error,
    fold_rows,
    gip_base_outcome,
    gip_protocol,
    layout,
    mod3_protocol,
)
from .tape import RandomTape

SCHEMA_VERSION = 1
# masks x rows that exact_y may enumerate for one input
EXACT_Y_CAP = 1 << 20
CSV_HEADER = "n,k,ell,cost_ceiling_bits,mean_cost_bits,emp_error,ci_low,ci_high,seed"

PROTOCOL_BUILDERS: dict[str, Callable[..., ProtocolSpec]] = {
    "gip": gip_protocol,
    "disj": disj_protocol,
    "mod3": mod3_protocol,
}
REFERENCE = {"gip": eval_gip, "disj": eval_disj, "mod3": eval_mod3xor}


def parse_eps(text) -> Fraction:
    """Accept '1/3' style rationals and decimal strings; exactness matters at
    thresholds like eps == 1/3, where a float would land just below."""
    try:
        eps = Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"eps: zero denominator in {text}") from None
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {text}")
    return eps


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    n: int
    k: int
    eps: str = "1/3"
    source: str = "dist:uniform"
    trials: int = 100
    seed: int = 0
    exact_y: bool = False

    def __post_init__(self):
        if self.protocol not in PROTOCOL_BUILDERS:
            raise ValueError(f"protocol: unknown name {self.protocol!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n, k: must be >= 1")
        if self.trials < 1:
            raise ValueError("trials: must be >= 1")
        RandomTape(master_seed=self.seed)  # refuses a seed outside 64 bits
        parse_eps(self.eps)
        kind = self.source.split(":", 1)[0]
        if kind not in ("dist", "file", "exhaustive"):
            raise ValueError(f"source: unknown kind {self.source!r}")
        if kind == "exhaustive" and self.n * self.k > 20:
            raise ValueError("source: exhaustive input mode needs n*k <= 20")
        if self.exact_y and self.protocol != "gip":
            raise ValueError("exact_y: only the gip protocol enumerates masks")


def exact_error_oracle(
    protocol: str, n: int, k: int, eps: Fraction
) -> Optional[Callable[[InputMatrix], Fraction]]:
    """Per-input collision-probability formula of the protocol at (n, k, eps),
    or None unless its layout is one base run (``Layout.single_width``: one
    call of one block with one repetition, which disj never is). Then the
    formula is the chance that run's shared draw collides with an input
    row: an upper bound on the run's error, reached only when every
    collision flips the output."""
    width = layout(protocol, n, k, eps).single_width
    if width is None:
        return None
    if protocol == "gip":
        return lambda x: exact_gip_error(x, width)
    return lambda x: exact_mod3_error(InputMatrix(k=width, rows=fold_rows(x.rows, width)))


class Tally(NamedTuple):
    """Exact totals over an exact_y mask, a trial, a chunk or a run. oracle_ok: exact_y
    agreed with the per-input oracle; exact_*: its sum and max, where the layout has one."""

    runs: int = 0
    wrong: int = 0
    cost_sum: int = 0
    cost_max: int = 0
    oracle_ok: bool = True
    exact_sum: Fraction = 0  # int zeros keep the per-mask fold of exact_y cheap
    exact_max: Fraction = 0


def fold(tallies: Iterable[Tally]) -> Tally:
    """Combine a stream of tallies. Associative and commutative, with Tally() as the
    identity, so masks, trials and worker chunks may be grouped any way."""
    return reduce(lambda a, b: Tally(
        a.runs + b.runs, a.wrong + b.wrong, a.cost_sum + b.cost_sum, max(a.cost_max, b.cost_max),
        a.oracle_ok and b.oracle_ok, a.exact_sum + b.exact_sum, max(a.exact_max, b.exact_max)),
        tallies, Tally())


def _trial_setup(cfg: ExperimentConfig, eps: Fraction) -> tuple[Callable, Optional[int]]:
    """What every trial chunk resolves, and every check that can refuse it, before its
    first trial: draw(t, tape), the input of trial t (the shape-checked matrix file, a
    sample of the distribution, or code t), and the exact_y mask budget (None without)."""
    kind, _, rest = cfg.source.partition(":")
    if kind == "file":
        with open(rest) as fh:
            fixed = parse_matrix(fh.read())
        if (fixed.n, fixed.k) != (cfg.n, cfg.k):
            raise ValueError("source: matrix file shape disagrees with config")
        draw = lambda t, tape: fixed
    elif kind == "dist":
        dist = parse_dist_string(rest, cfg.n, cfg.k)
        draw = lambda t, tape: dist.sample(tape.stream("input"))
    else:
        draw = lambda t, tape: InputMatrix.from_code(cfg.n, cfg.k, t % (1 << (cfg.n * cfg.k)))
    return draw, _exact_y_ell(cfg.n, cfg.k, eps) if cfg.exact_y else None


def _trial_chunk(cfg: ExperimentConfig, start: int, stop: int) -> Tally:
    """Trials [start, stop) folded into one Tally; top-level so process pools pickle it.

    A trial keeps only a run's output and cost. gip and disj specs set a
    direct vote (``protocols.plan_outcome``), which reads both off the
    plan's masks and the input without building a transcript: one count of
    a block's row values, then m(full) + m(d) mod 2 per mask d. mod3 runs
    through ``core.run``, whose per-message work the benchmark's traced
    pass still counts."""
    eps = parse_eps(cfg.eps)
    master = RandomTape(master_seed=cfg.seed)
    evaluate = REFERENCE[cfg.protocol]
    draw, ell = _trial_setup(cfg, eps)
    oracle = exact_error_oracle(cfg.protocol, cfg.n, cfg.k, eps)
    if ell is None:
        protocol = PROTOCOL_BUILDERS[cfg.protocol](cfg.n, cfg.k, eps)

    def trial(t: int) -> Tally:
        tape = master.sub(f"trial{t}")
        x = draw(t, tape)
        e = None if oracle is None else oracle(x)
        if ell is not None:
            tally = _exact_y_trial(x, ell, e)
        else:
            if protocol.direct_vote is not None:
                output, cost = protocol.direct_vote(protocol.plan(tape), x)
            else:
                outcome = run(protocol, x, tape)
                output, cost = outcome.output, outcome.cost_bits
            tally = Tally(1, int(output != evaluate(x)), cost, cost)
        return tally if e is None else tally._replace(exact_sum=e, exact_max=e)

    return fold(map(trial, range(start, stop)))


def _exact_y_ell(n: int, k: int, eps: Fraction) -> int:
    """The mask budget exact_y enumerates at n x k, once the shape is checked
    to run one block with one repetition and to stay within EXACT_Y_CAP."""
    ell = layout("gip", n, k, eps).single_width
    if ell is None:
        raise ValueError("exact_y: needs the single-block, single-rep regime")
    masks = binom_leq(k, ell)
    if masks * n > EXACT_Y_CAP:
        raise CapExceeded(f"exact_y: {masks} masks x {n} rows exceed cap {EXACT_Y_CAP}")
    return ell


def _exact_y_trial(x: InputMatrix, ell: int, expected: Fraction) -> Tally:
    """Fold one tally per mask of one input's full mask space: the failure set must lie
    in the collision set, whose measure must match ``expected``, the closed-form
    per-input error the trial's oracle gave."""
    total = binom_leq(x.k, ell)
    rows = set(x.rows)
    truth = eval_gip(x)
    collisions = 0

    def mask_tally(rank: int) -> Tally:
        nonlocal collisions
        mask = MaskVector.from_rank(x.k, ell, rank)
        out, bits = gip_base_outcome(x, mask)
        hit = mask.bits in rows
        collisions += hit
        wrong = int(out != truth)
        return Tally(1, wrong, len(bits), len(bits), hit or not wrong)

    tally = fold(map(mask_tally, range(total)))
    agrees = Fraction(collisions, total) == expected
    return tally._replace(oracle_ok=tally.oracle_ok and agrees)


def clopper_pearson(wrong: int, trials: int, confidence: float = 0.99):
    """Exact binomial confidence interval (Clopper and Pearson, 1934).

    With X ~ Bin(trials, p) and alpha/2 = (1 - confidence)/2 read as the
    exact rational value of that float, the low end solves P(X >= wrong) =
    alpha/2 and the high end P(X <= wrong) = alpha/2. Each end is the float
    nearest the exact root, ties to even, found by
    ``combinatorics.tail_root``, whose every comparison is exact; the ends
    are 0 and 1 at wrong = 0 and wrong = trials."""
    if not 0 <= wrong <= trials:
        raise ValueError("need 0 <= wrong <= trials")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    half = Fraction((1 - confidence) / 2)
    lo = 0.0 if wrong == 0 else tail_root(trials, wrong, half)
    hi = 1.0 if wrong == trials else tail_root(trials, trials - wrong, half, failures=True)
    return lo, hi


class CostCeilingExceeded(ValueError):
    """A run broadcast more bits than its protocol's declared cost ceiling."""


def effective_workers(workers: int, trials: int) -> int:
    """Worker processes simulate starts: at least one, and never more than
    the trials or the CPUs."""
    return max(1, min(workers, trials, os.cpu_count() or 1))


def simulate(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Run the configured experiment and assemble the JSON-ready report.

    workers only partitions the trial range (clamped by effective_workers);
    it is deliberately not echoed in the report, which must be identical
    for any worker count.
    """
    t0 = time.monotonic()
    eps = parse_eps(cfg.eps)
    workers = effective_workers(workers, cfg.trials)
    if workers <= 1 or cfg.trials < 2 * workers:
        tally = _trial_chunk(cfg, 0, cfg.trials)
    else:
        _trial_setup(cfg, eps)  # a bad source or exact_y shape fails before any worker starts
        bounds_ = [cfg.trials * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tally = fold(pool.map(_trial_chunk, [cfg] * workers, bounds_, bounds_[1:]))

    protocol = PROTOCOL_BUILDERS[cfg.protocol](cfg.n, cfg.k, eps)
    if protocol.cost_ceiling is not None and tally.cost_max > protocol.cost_ceiling:
        raise CostCeilingExceeded(f"measured cost {tally.cost_max} above ceiling {protocol.cost_ceiling}")
    ci_low, ci_high = (None, None) if cfg.exact_y else clopper_pearson(tally.wrong, tally.runs)
    lay = layout(cfg.protocol, cfg.n, cfg.k, eps)
    oracle = lay.single_width is not None  # exact_error_oracle's regime
    return {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg),
        "runs": tally.runs,
        "wrong": tally.wrong,
        "emp_error": tally.wrong / tally.runs,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "mean_cost_bits": tally.cost_sum / tally.runs,
        "worst_cost_bits": tally.cost_max,
        "cost_ceiling_bits": protocol.cost_ceiling,
        "ell": lay.ell,
        "exact_error_mean": float(tally.exact_sum / cfg.trials) if oracle else None,
        "exact_error_max": float(tally.exact_max) if oracle else None,
        "exact_oracle_checked": tally.oracle_ok if cfg.exact_y else None,
        "seed": cfg.seed,
        "wall_clock_s": round(time.monotonic() - t0, 6),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv_row(report: dict) -> str:
    cfg = report["config"]

    def cell(v):
        return "" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))

    fields = [
        cfg["n"],
        cfg["k"],
        report["ell"],
        report["cost_ceiling_bits"],
        float(report["mean_cost_bits"]),
        float(report["emp_error"]),
        report["ci_low"],
        report["ci_high"],
        report["seed"],
    ]
    return ",".join(cell(v) for v in fields)


def sweep(
    protocol: str,
    n_list: list[int],
    k_list: list[int],
    eps: str = "1/3",
    trials: int = 50,
    seed: int = 0,
) -> list[str]:
    """One CSV line per (n, k); infeasible combinations keep n, k, seed and
    leave every measured column empty. A bad eps, n, k, protocol, trials or
    seed is an error, not an infeasible cell, even where no cell is feasible."""
    lines = [CSV_HEADER]
    eps_value = parse_eps(eps)
    if any(v < 1 for v in [*n_list, *k_list]):
        raise ValueError("n, k: must be >= 1")
    base = ExperimentConfig(protocol=protocol, n=1, k=1, eps=eps, trials=trials, seed=seed)
    for n, k in product(n_list, k_list):
        try:
            layout(protocol, n, k, eps_value)
        except InfeasibleParameters:
            lines.append(f"{n},{k},,,,,,,{seed}")
            continue
        lines.append(report_to_csv_row(simulate(replace(base, n=n, k=k))))
    return lines


# ---------------------------------------------------------------------------
# verification suites


def _suite_facts() -> list[dict]:
    rows = []
    ok = all(binom_sandwich_ok(n, k) for n in range(1, 65) for k in range(1, n + 1))
    rows.append({"check": "binomial-sum sandwich, 1 <= k <= n <= 64", "ok": ok})
    anchors = binom_leq(4, 2) == 11 and binom_leq(3, 5) == 8 and binom_leq(7, 0) == 1
    rows.append({"check": "binom_leq anchors", "ok": anchors})
    worst = True
    for n in range(1, 65):
        for i in range(101):
            if not fact21_check(n, i / 100)["ok"]:
                worst = False
    rows.append({"check": "binomial expectation bounds, n <= 64, 101-point p grid", "ok": worst})
    return rows


def _identity_cell(m: int, n: int, k: int) -> bool:
    """Exhaustively check the three block-composition identities at (m, n, k).

    The bulk pass is vectorized. The library evaluators run once on every
    n x k block, streamed in code order from all_inputs, into int8 value
    tables. The composed side reads each block's slice of the m-block codes
    in turn, folding XOR, AND and UAND (an undefined flag and a zero count)
    block by block; the stacked side recounts all-ones rows directly off the
    codes. A deterministic sample then runs the pure-Python eval_composed /
    eval_* pair end to end.
    """
    nk = n * k
    space = 1 << nk
    gip_v = np.empty(space, dtype=np.int8)
    disj_v = np.empty(space, dtype=np.int8)
    udisj_v = np.empty(space, dtype=np.int8)  # -1 encodes undefined
    for c, b in enumerate(all_inputs(n, k)):
        gip_v[c] = eval_gip(b)
        disj_v[c] = eval_disj(b)
        u = eval_udisj(b)
        udisj_v[c] = -1 if u is UNDEFINED else u

    codes = np.arange(1 << (m * nk), dtype=np.int64)
    lhs_gip = np.zeros(codes.shape, dtype=np.int8)
    lhs_disj = np.ones(codes.shape, dtype=np.int8)
    any_undef = np.zeros(codes.shape, dtype=bool)
    zeros = np.zeros(codes.shape, dtype=np.int8)
    for blk in range(m):
        s = (codes >> (blk * nk)) & (space - 1)
        lhs_gip ^= gip_v[s]
        lhs_disj &= disj_v[s]
        u = udisj_v[s]
        any_undef |= u < 0
        zeros += u == 0
    lhs_udisj = np.where(any_undef | (zeros >= 2), -1, np.where(zeros == 0, 1, 0))

    full = (1 << k) - 1
    ones = np.zeros(codes.shape, dtype=np.int8)
    for i in range(m * n):
        ones += ((codes >> (i * k)) & full) == full
    rhs_gip = ones & 1
    rhs_disj = (ones == 0).astype(np.int8)
    rhs_udisj = np.where(ones >= 2, -1, np.where(ones == 0, 1, 0))

    ok = (
        bool((lhs_gip == rhs_gip).all())
        and bool((lhs_disj == rhs_disj).all())
        and bool((lhs_udisj == rhs_udisj).all())
    )

    rng = np.random.default_rng(2026)
    picks = {0, len(codes) - 1}
    picks.update(int(c) for c in rng.integers(0, len(codes), size=128))
    for code in sorted(picks):
        stacked = InputMatrix.from_code(m * n, k, code)
        blocks = [InputMatrix(k=k, rows=stacked.rows[b * n : (b + 1) * n]) for b in range(m)]
        cg = eval_composed("xor", "gip", blocks)
        cd = eval_composed("and", "disj", blocks)
        cu = eval_composed("uand", "udisj", blocks)
        cu = -1 if cu is UNDEFINED else cu
        sg, sd = eval_gip(stacked), eval_disj(stacked)
        su = eval_udisj(stacked)
        su = -1 if su is UNDEFINED else su
        if (cg, cd, cu) != (int(lhs_gip[code]), int(lhs_disj[code]), int(lhs_udisj[code])):
            ok = False
        if (sg, sd, su) != (int(rhs_gip[code]), int(rhs_disj[code]), int(rhs_udisj[code])):
            ok = False
        if (cg, cd, cu) != (sg, sd, su):
            ok = False
    return ok


def _suite_identities() -> list[dict]:
    rows = []
    for m in range(1, 7):
        for n in range(1, 6 // m + 1):
            ok = all(_identity_cell(m, n, k) for k in (1, 2, 3))
            rows.append(
                {
                    "check": f"composition identities m={m} n={n}, k <= 3, exhaustive",
                    "ok": ok,
                }
            )
    return rows


def _suite_bounds() -> list[dict]:
    rows = []
    for n, k, ell, m in [(2, 2, 1, 1), (2, 2, 2, 1), (1, 3, 1, 1), (2, 2, 2, 2)]:
        table = bound_suite(n, k, ell, m)
        bad = [r["name"] for r in table if r["status"] == "VIOLATION"]
        rows.append(
            {
                "check": f"bound suite n={n} k={k} ell={ell} m={m}",
                "ok": not bad,
                "detail": f"violations: {bad}" if bad else f"{len(table)} bounds",
            }
        )
    return rows


def _announce_protocol(n: int) -> ProtocolSpec:
    """Two players; player 1 reads column 2 off its view and broadcasts it;
    the output is the parity of column 2. Deterministic, cost n."""

    def message_rule(i, view, prefix, tape):
        if i != 1:
            return ""
        return "".join(str(view.bit(r, 2)) for r in range(n))

    def output_rule(transcript, tape):
        bits = transcript.player_bits(1)
        return sum(int(b) for b in bits) & 1

    return ProtocolSpec(
        n=n,
        k=2,
        simultaneous=True,
        deterministic=True,
        message_rule=message_rule,
        output_rule=output_rule,
        length_rule=lambda i, tape: n if i == 1 else 0,
        cost_ceiling=n,
    )


def _constant_protocol(n: int, k: int, value: int) -> ProtocolSpec:
    return ProtocolSpec(
        n=n,
        k=k,
        simultaneous=True,
        deterministic=True,
        message_rule=lambda i, view, prefix, tape: "",
        output_rule=lambda transcript, tape: value,
        length_rule=lambda i, tape: 0,
        cost_ceiling=0,
    )


def _suite_decompose() -> list[dict]:
    rows = []
    for name, proto in [
        ("announce column parity, n=2 k=2", _announce_protocol(2)),
        ("announce column parity, n=3 k=2", _announce_protocol(3)),
        ("constant 0, n=2 k=2", _constant_protocol(2, 2, 0)),
        ("constant 1, n=1 k=3", _constant_protocol(1, 3, 1)),
    ]:
        try:
            terms = decompose_to_cylinders(proto)
            limit = 1 << proto.cost_ceiling
            rows.append(
                {
                    "check": f"cylinder decomposition: {name}",
                    "ok": len(terms) <= limit,
                    "detail": f"{len(terms)} terms (cap {limit})",
                }
            )
        except Exception as e:  # failures become report content
            rows.append({"check": f"cylinder decomposition: {name}", "ok": False, "detail": str(e)})
    return rows


VERIFY_SUITES = {
    "facts": _suite_facts,
    "identities": _suite_identities,
    "bounds": _suite_bounds,
    "decompose": _suite_decompose,
}


def verify(suite: str) -> tuple[list[dict], bool]:
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)}")
    rows = VERIFY_SUITES[suite]()
    return rows, all(r["ok"] for r in rows)

"""Seeded experiments and verification suites behind the CLI.

Reports are deterministic functions of (config, seed): every trial t derives
its own tape as master.sub(f"trial{t}") and draws its input from that tape,
so results do not depend on how trials are scheduled. Aggregation keeps exact
integer and Fraction accumulators and converts to float only when the report
is assembled, which is what makes worker-count invariance byte-exact.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.special import betainccinv, betaincinv

from .combinatorics import binom_leq, binom_sandwich_ok, fact21_check
from .core import DEFAULT_DECOMPOSE_CAP, ProtocolSpec, decompose_to_cylinders, run
from .discrepancy import bound_suite
from .distributions import parse_dist_string
from .functions import (
    UNDEFINED,
    eval_composed,
    eval_disj,
    eval_gip,
    eval_mod3xor,
    eval_udisj,
)
from .matrices import InputMatrix, parse_matrix
from .protocols import (
    DISJ_SUBCALL_ERROR,
    InfeasibleParameters,
    MaskVector,
    disj_params,
    disj_protocol,
    exact_gip_error,
    exact_mod3_error,
    fold_rows,
    gip_base_outcome,
    gip_params,
    gip_protocol,
    mod3_params,
    mod3_protocol,
)
from .tape import RandomTape

SCHEMA_VERSION = 1
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
    if isinstance(text, Fraction):
        return text
    eps = Fraction(str(text))
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
        parse_eps(self.eps)
        kind = self.source.split(":", 1)[0]
        if kind not in ("dist", "file", "exhaustive"):
            raise ValueError(f"source: unknown kind {self.source!r}")
        if kind == "exhaustive" and self.n * self.k > 20:
            raise ValueError("source: exhaustive input mode needs n*k <= 20")
        if self.exact_y and self.protocol != "gip":
            raise ValueError("exact_y: only the gip protocol enumerates masks")


def _draw_input(cfg: ExperimentConfig, trial: int, tape: RandomTape, fixed) -> InputMatrix:
    kind = cfg.source.split(":", 1)[0]
    if kind == "exhaustive":
        return InputMatrix.from_code(cfg.n, cfg.k, trial % (1 << (cfg.n * cfg.k)))
    if kind == "file":
        return fixed
    return fixed.sample(tape.stream("input"))


def structural_ell(protocol: str, n: int, k: int, eps: Fraction) -> Optional[int]:
    """The ell column of reports: the protocol's largest per-block mask
    budget (gip, and disj's subcalls) or effective column count (mod3)."""
    if protocol == "gip":
        return max(gip_params(n, k, eps)["ells"])
    if protocol == "disj":
        disj_params(n, k, eps)
        return max(gip_params(n, k, DISJ_SUBCALL_ERROR)["ells"])
    return max(mod3_params(n, k, eps)["k_effs"])


def exact_error_oracle(
    protocol: str, n: int, k: int, eps: Fraction
) -> Optional[Callable[[InputMatrix], Fraction]]:
    """Per-input collision-probability formula of the protocol at (n, k, eps),
    or None unless it runs a single block with a single repetition, the one
    regime where that formula is the protocol's error."""
    if protocol == "gip":
        p = gip_params(n, k, eps)
        if len(p["blocks"]) == 1 and p["reps"] == [1]:
            ell = p["ells"][0]
            return lambda x: exact_gip_error(x, ell)
    if protocol == "mod3":
        p = mod3_params(n, k, eps)
        if len(p["blocks"]) == 1 and p["reps"] == [1]:
            k_eff = p["k_effs"][0]
            return lambda x: exact_mod3_error(
                InputMatrix(k=k_eff, rows=fold_rows(x.rows, k_eff))
            )
    return None


def _trial_chunk(cfg_dict: dict, start: int, stop: int) -> dict:
    """Run trials [start, stop); exact accumulators only, so chunk merging
    is order-independent. Top-level so process pools can pickle it."""
    cfg = ExperimentConfig(**cfg_dict)
    eps = parse_eps(cfg.eps)
    master = RandomTape(master_seed=cfg.seed)
    evaluate = REFERENCE[cfg.protocol]

    kind = cfg.source.split(":", 1)[0]
    fixed = None
    if kind == "file":
        with open(cfg.source.split(":", 1)[1]) as fh:
            fixed = parse_matrix(fh.read())
        if (fixed.n, fixed.k) != (cfg.n, cfg.k):
            raise ValueError("source: matrix file shape disagrees with config")
    elif kind == "dist":
        fixed = parse_dist_string(cfg.source.partition(":")[2], cfg.n, cfg.k)

    oracle = exact_error_oracle(cfg.protocol, cfg.n, cfg.k, eps)
    acc = {
        "runs": 0,
        "wrong": 0,
        "cost_sum": 0,
        "cost_max": 0,
        "exact_sum": Fraction(0),
        "exact_max": Fraction(0),
        "oracle_applies": oracle is not None,
        "oracle_ok": True,
    }

    protocol = None
    if not cfg.exact_y:
        protocol = PROTOCOL_BUILDERS[cfg.protocol](cfg.n, cfg.k, eps)

    for t in range(start, stop):
        tape = master.sub(f"trial{t}")
        x = _draw_input(cfg, t, tape, fixed)
        if cfg.exact_y:
            _exact_y_trial(cfg, eps, x, acc)
        else:
            outcome = run(protocol, x, tape)
            acc["runs"] += 1
            acc["wrong"] += int(outcome.output != evaluate(x))
            acc["cost_sum"] += outcome.cost_bits
            acc["cost_max"] = max(acc["cost_max"], outcome.cost_bits)
        if oracle is not None:
            e = oracle(x)
            acc["exact_sum"] += e
            acc["exact_max"] = max(acc["exact_max"], e)
    return acc


def _exact_y_trial(cfg: ExperimentConfig, eps: Fraction, x: InputMatrix, acc: dict):
    """Enumerate the full mask space for one input: the observed failure set
    must be contained in the collision set, whose measure must match the
    closed-form per-input error."""
    p = gip_params(cfg.n, cfg.k, eps)
    if len(p["blocks"]) != 1 or p["reps"] != [1]:
        raise ValueError("exact_y: needs the single-block, single-rep regime")
    ell = p["ells"][0]
    total = binom_leq(cfg.k, ell)
    rows = set(x.rows)
    truth = eval_gip(x)
    collisions = 0
    for rank in range(total):
        mask = MaskVector.from_rank(cfg.k, ell, rank)
        out, bits = gip_base_outcome(x, mask)
        hit = mask.bits in rows
        collisions += int(hit)
        wrong = int(out != truth)
        if wrong and not hit:
            acc["oracle_ok"] = False
        acc["runs"] += 1
        acc["wrong"] += wrong
        acc["cost_sum"] += len(bits)
        acc["cost_max"] = max(acc["cost_max"], len(bits))
    if Fraction(collisions, total) != exact_gip_error(x, ell):
        acc["oracle_ok"] = False


def _merge(parts: list[dict]) -> dict:
    out = parts[0]
    for p in parts[1:]:
        out["runs"] += p["runs"]
        out["wrong"] += p["wrong"]
        out["cost_sum"] += p["cost_sum"]
        out["cost_max"] = max(out["cost_max"], p["cost_max"])
        out["exact_sum"] += p["exact_sum"]
        out["exact_max"] = max(out["exact_max"], p["exact_max"])
        out["oracle_applies"] = out["oracle_applies"] and p["oracle_applies"]
        out["oracle_ok"] = out["oracle_ok"] and p["oracle_ok"]
    return out


def clopper_pearson(wrong: int, trials: int, confidence: float = 0.99):
    """Exact binomial confidence interval.

    The ends are Beta quantiles taken straight from the regularized
    incomplete-beta inverses. SciPy's Beta ppf/isf call the same two
    ufuncs, so the floats match theirs bit for bit, and importing the
    package pulls in scipy.special only, not SciPy's much slower
    statistics package."""
    alpha = 1 - confidence
    lo = 0.0 if wrong == 0 else float(betaincinv(wrong, trials - wrong + 1, alpha / 2))
    hi = 1.0 if wrong == trials else float(betainccinv(wrong + 1, trials - wrong, alpha / 2))
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
    cfg_dict = asdict(cfg)
    workers = effective_workers(workers, cfg.trials)
    if workers <= 1 or cfg.trials < 2 * workers:
        acc = _trial_chunk(cfg_dict, 0, cfg.trials)
    else:
        bounds_ = [cfg.trials * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(_trial_chunk, cfg_dict, a, b)
                for a, b in zip(bounds_, bounds_[1:])
                if a < b
            ]
            acc = _merge([f.result() for f in futs])

    applies = acc["oracle_applies"]
    protocol = PROTOCOL_BUILDERS[cfg.protocol](cfg.n, cfg.k, eps)
    if protocol.cost_ceiling is not None and acc["cost_max"] > protocol.cost_ceiling:
        raise CostCeilingExceeded(
            f"measured cost {acc['cost_max']} above ceiling {protocol.cost_ceiling}"
        )
    emp = Fraction(acc["wrong"], acc["runs"])
    if cfg.exact_y:
        ci_low = ci_high = None
    else:
        ci_low, ci_high = clopper_pearson(acc["wrong"], acc["runs"])
    report = {
        "schema": SCHEMA_VERSION,
        "config": cfg_dict,
        "runs": acc["runs"],
        "wrong": acc["wrong"],
        "emp_error": float(emp),
        "ci_low": ci_low,
        "ci_high": ci_high,
        "mean_cost_bits": acc["cost_sum"] / acc["runs"],
        "worst_cost_bits": acc["cost_max"],
        "cost_ceiling_bits": protocol.cost_ceiling,
        "ell": structural_ell(cfg.protocol, cfg.n, cfg.k, eps),
        "exact_error_mean": float(acc["exact_sum"] / cfg.trials) if applies else None,
        "exact_error_max": float(acc["exact_max"]) if applies else None,
        "exact_oracle_checked": acc["oracle_ok"] if cfg.exact_y else None,
        "seed": cfg.seed,
        "wall_clock_s": round(time.monotonic() - t0, 6),
    }
    return report


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
    leave every measured column empty."""
    lines = [CSV_HEADER]
    eps_value = parse_eps(eps)  # a bad eps is an error, not an infeasible cell
    for n in n_list:
        for k in k_list:
            try:
                structural_ell(protocol, n, k, eps_value)
            except (InfeasibleParameters, ValueError):
                lines.append(f"{n},{k},,,,,,,{seed}")
                continue
            cfg = ExperimentConfig(
                protocol=protocol, n=n, k=k, eps=eps, trials=trials, seed=seed
            )
            lines.append(report_to_csv_row(simulate(cfg)))
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

    The bulk pass is vectorized: the composed side combines per-block value
    tables built by the library evaluators, the stacked side recounts
    all-ones rows directly off the codes. A deterministic sample then runs
    the pure-Python eval_composed / eval_* pair end to end.
    """
    nk = n * k
    space = 1 << nk
    gip_v = np.empty(space, dtype=np.int64)
    disj_v = np.empty(space, dtype=np.int64)
    udisj_v = np.empty(space, dtype=np.int64)  # -1 encodes undefined
    for c in range(space):
        b = InputMatrix.from_code(n, k, c)
        gip_v[c] = eval_gip(b)
        disj_v[c] = eval_disj(b)
        u = eval_udisj(b)
        udisj_v[c] = -1 if u is UNDEFINED else u

    codes = np.arange(1 << (m * nk), dtype=np.int64)
    sub = [(codes >> (blk * nk)) & (space - 1) for blk in range(m)]

    lhs_gip = gip_v[sub[0]].copy()
    lhs_disj = disj_v[sub[0]].copy()
    for s in sub[1:]:
        lhs_gip ^= gip_v[s]
        lhs_disj &= disj_v[s]
    u_vals = np.stack([udisj_v[s] for s in sub])
    any_undef = (u_vals < 0).any(axis=0)
    zeros = (u_vals == 0).sum(axis=0)
    lhs_udisj = np.where(any_undef | (zeros >= 2), -1, np.where(zeros == 0, 1, 0))

    full = (1 << k) - 1
    ones = np.zeros(codes.shape, dtype=np.int64)
    for i in range(m * n):
        ones += ((codes >> (i * k)) & full) == full
    rhs_gip = ones & 1
    rhs_disj = (ones == 0).astype(np.int64)
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

    def message_rule(i, view, prefix, tape, ns):
        if i != 1:
            return ""
        return "".join(str(view.bit(r, 2)) for r in range(n))

    def output_rule(transcript, tape, ns):
        bits = transcript.player_bits(1)
        return sum(int(b) for b in bits) & 1

    return ProtocolSpec(
        family="announce",
        n=n,
        k=2,
        error=0.0,
        simultaneous=True,
        deterministic=True,
        message_rule=message_rule,
        output_rule=output_rule,
        length_rule=lambda i, tape, ns: n if i == 1 else 0,
        cost_ceiling=n,
    )


def _constant_protocol(n: int, k: int, value: int) -> ProtocolSpec:
    return ProtocolSpec(
        family="const",
        n=n,
        k=k,
        error=0.0,
        simultaneous=True,
        deterministic=True,
        message_rule=lambda i, view, prefix, tape, ns: "",
        output_rule=lambda transcript, tape, ns: value,
        length_rule=lambda i, tape, ns: 0,
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

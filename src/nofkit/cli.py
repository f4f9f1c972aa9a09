"""Command line entry point.

Subcommands: simulate, sweep, disc, exact-error, verify. Global flags
--seed / --out / --format. Exit code 0 iff nothing failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .discrepancy import (
    DEFAULT_DISC_CAP,
    CharacterSpec,
    CorrelationQuery,
    bns_rhs,
    bound_suite,
    check_bns_pairs,
    exact_disc,
    heuristic_disc,
    mod3_char_array,
)
from .distributions import parse_dist_string
from .functions import disj_spec, eval_disj, eval_gip, gip_spec
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    exact_error_oracle,
    parse_eps,
    report_to_csv_row,
    report_to_json,
    simulate,
    sweep,
    verify,
)
from .matrices import InputMatrix, parse_matrix
from .protocols import (
    DEFAULT_ERROR,
    InfeasibleParameters,
    exact_gip_error,
    gip_params,
    mod3_params,
)
from .tape import RandomTape


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _source_from_args(args) -> str:
    if args.matrix:
        return f"file:{args.matrix}"
    if args.exhaustive:
        return "exhaustive"
    return f"dist:{args.dist or 'uniform'}"


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(
        protocol=args.protocol,
        n=args.n,
        k=args.k,
        eps=args.eps,
        source=_source_from_args(args),
        trials=args.trials,
        seed=args.seed,
        exact_y=args.exact_y,
    )
    report = simulate(cfg, workers=args.workers)
    if args.format == "csv":
        _write(args, CSV_HEADER + "\n" + report_to_csv_row(report) + "\n")
    else:
        _write(args, report_to_json(report))
    return 0


def _cmd_sweep(args) -> int:
    lines = sweep(
        args.protocol,
        _parse_int_list(args.n_list),
        _parse_int_list(args.k_list),
        eps=args.eps,
        trials=args.trials,
        seed=args.seed,
    )
    if args.format == "json":
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        _write(args, json.dumps({"schema": 1, "rows": rows}, sort_keys=True, indent=2) + "\n")
    else:
        _write(args, "\n".join(lines) + "\n")
    return 0


def _phi_array(fn: str, n: int, k: int) -> np.ndarray:
    """The +-1 (or complex) payoff array over per-player column universes."""
    if fn == "mod3char":
        return mod3_char_array(n, k)
    evaluate = eval_gip if fn == "gip" else eval_disj
    shape = (1 << n,) * k
    out = np.empty(shape, dtype=np.float64)
    for idx in np.ndindex(shape):
        rows = tuple(
            sum(((idx[j] >> r) & 1) << j for j in range(k)) for r in range(n)
        )
        out[idx] = 1.0 - 2.0 * evaluate(InputMatrix(k=k, rows=rows))
    return out


def _cmd_disc(args) -> int:
    n, k = args.n, args.k
    if args.fn == "mod3char":
        target = CharacterSpec(n=n, k=k)
    elif args.fn == "gip":
        target = gip_spec(n, k)
    else:
        target = disj_spec(n, k)
    family = args.ell
    q = CorrelationQuery(target=target, weight=parse_dist_string(args.dist, n, k), family=family)
    if args.mode == "exact":
        value = exact_disc(q, cap=args.cap)
    elif args.mode == "heuristic":
        value = heuristic_disc(q, restarts=4, tape=RandomTape(args.seed), cap=args.cap)
    else:
        if q.weight.name != "uniform":
            raise ValueError(f"--mode bns averages over uniform inputs; got --dist {args.dist}")
        check_bns_pairs((1 << n,) * k, args.cap)  # before the (2^n)^k array exists
        rhs = bns_rhs(_phi_array(args.fn, n, k), cap=args.cap)
        value = rhs ** (1.0 / (1 << k))

    suite_ell = family if family is not None else k
    checks = []
    prefix = {"gip": "gip-", "disj": "disj-", "mod3char": "mod3-"}[args.fn]
    for row in bound_suite(n, k, suite_ell, m=1, cap=args.cap):
        if row["name"].startswith(prefix):
            checks.append({"name": row["name"], "bound": row["bound"], "status": row["status"]})

    out = {
        "instance": {"fn": args.fn, "n": n, "k": k, "dist": args.dist, "ell": family},
        "mode": args.mode,
        "value": float(value),
        "value_repr": str(value),
        "bound_checks": checks,
    }
    _write(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0 if not any(c["status"] == "VIOLATION" for c in checks) else 1


def _cmd_exact_error(args) -> int:
    with open(args.matrix) as fh:
        x = parse_matrix(fh.read())
    if args.protocol == "mod3" and args.ell is not None:
        raise ValueError("--ell is a gip mask budget; mod3 takes no --ell")
    if args.protocol == "gip" and args.ell is not None:
        err = exact_gip_error(x, args.ell)
        out = {"protocol": "gip", "n": x.n, "k": x.k, "ell": args.ell}
    else:
        params = gip_params if args.protocol == "gip" else mod3_params
        p = params(x.n, x.k, DEFAULT_ERROR)
        oracle = exact_error_oracle(args.protocol, x.n, x.k, DEFAULT_ERROR)
        if oracle is None:
            raise ValueError(
                f"{args.protocol} at n={x.n} k={x.k} runs {len(p['blocks'])} block(s) x "
                f"{p['reps'][0]} repetition(s); the per-input oracle covers only "
                "one block with one repetition"
            )
        err = oracle(x)
        width = {"ell": p["ells"][0]} if args.protocol == "gip" else {"k_eff": p["k_effs"][0]}
        out = {"protocol": args.protocol, "n": x.n, "k": x.k, **width}
    out["exact_error"] = float(err)
    out["exact_error_repr"] = str(err)
    _write(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    suites = ["facts", "bounds", "identities", "decompose"] if args.suite == "all" else [args.suite]
    all_rows = []
    ok = True
    for name in suites:
        rows, good = verify(name)
        for r in rows:
            r["suite"] = name
        all_rows.extend(rows)
        ok = ok and good
    if args.format == "csv":
        lines = ["suite,check,ok,detail"]
        for r in all_rows:
            detail = str(r.get("detail", "")).replace(",", ";")
            lines.append(f"{r['suite']},{r['check'].replace(',', ';')},{int(r['ok'])},{detail}")
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, json.dumps({"schema": 1, "ok": ok, "rows": all_rows}, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nofkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (unsigned 64-bit)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("simulate", help="run seeded protocol trials")
    common(p)
    p.add_argument("--protocol", required=True, choices=["gip", "disj", "mod3"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", default="1/3", help="target error, e.g. 1/3 or 0.25")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dist", default=None, help="input distribution NAME[:ell=N] (default uniform)")
    source.add_argument("--matrix", default=None, help="fixed input matrix file")
    source.add_argument("--exhaustive", action="store_true", help="cycle all matrices in code order")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--exact-y", dest="exact_y", action="store_true",
                   help="gip only: enumerate every mask per input and cross-check the exact oracle")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="cost and error table over an (n, k) grid")
    common(p)
    p.add_argument("--protocol", required=True, choices=["gip", "disj", "mod3"])
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--k-list", required=True, help="comma-separated k values")
    p.add_argument("--eps", default="1/3")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(handler=_cmd_sweep, format="csv")

    p = sub.add_parser("disc", help="discrepancy / correlation values and bound checks")
    common(p)
    p.add_argument("--fn", required=True, choices=["gip", "disj", "mod3char"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dist", default="uniform", help="weight distribution NAME[:ell=N]")
    p.add_argument("--mode", choices=["exact", "heuristic", "bns"], default="exact")
    p.add_argument("--ell", type=int, default=None, help="restrict cylinders to ell-player subsets")
    p.add_argument("--cap", type=int, default=DEFAULT_DISC_CAP)
    p.set_defaults(handler=_cmd_disc)

    p = sub.add_parser("exact-error", help="per-input error oracle for a matrix file")
    common(p)
    p.add_argument("--protocol", required=True, choices=["gip", "mod3"])
    p.add_argument("--matrix", required=True)
    p.add_argument("--ell", type=int, default=None,
                   help="gip mask budget (default: the protocol's own, one-block shapes only)")
    p.set_defaults(handler=_cmd_exact_error)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=["facts", "bounds", "identities", "decompose", "all"],
                   default="all")
    p.set_defaults(handler=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InfeasibleParameters, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

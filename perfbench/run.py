"""nofkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. Every child is a ``worker.py`` process that
imports ``nofkit.cli`` from ``src/`` and runs one job through
``nofkit.cli.main``; at most one child is alive at a time, and none starts a
process pool.

``--trace 0`` (a timed run): the ``--seconds`` are split between five fresh
children in turn. Each is timed from start to ``nofkit.cli`` imported
(``setup_s`` is the median of the five, so its samples spread over the run)
and then runs the workload's operations back to back for its share. The
run reports the tail latency of one operation and the largest peak RSS of a
child. Median latency, throughput and the failed share go on the
information line.

``--trace 1`` (a traced run): the workload's fixed traced pass runs three
times, each in a fresh child: untimed spans off, spans on, spans on again.
The per-layer metrics come from the second; the third must repeat its exact
call counts. ``--seconds`` does not apply, the pass is fixed work.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
information that is not a metric (tail percentile, sample counts, report
digests, environment). Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from spans import latency_summary
from workloads import pooled_error_problems

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SEGMENTS = 5  # children per timed run, each one set-up sample
BUDGET_S = 175  # a run ends within 180 s
INFO_UNITS = {"call_s_p50": "s", "units_per_s": "1/s", "failed_share": "share"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Children:
    """Starts worker processes one at a time and times their set-up."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = None

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left

    def start(self) -> float:
        """Start a worker; seconds until it has imported nofkit.cli."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        line = self.proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError("worker did not start (is src/nofkit present?)")
        return setup

    def finish(self, job=None):
        """Send ``job`` (or nothing) to the live worker and wait for it."""
        proc, self.proc = self.proc, None
        try:
            out, _ = proc.communicate(json.dumps(job) + "\n" if job else "\n",
                                      timeout=self._left())
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.wait()
            raise BenchError("worker ran past the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]) if job else None

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def _failed(ops: list) -> int:
    return sum(1 for op in ops if op[2])


def _pooled_check(ops: list) -> tuple[int, list]:
    """(checks run, problems) of the pooled error check over the simulate
    operations in ``ops``; it counts as one more operation when it runs."""
    sims = [op for op in ops if op[4] is not None]
    if not sims:
        return 0, []
    return 1, pooled_error_problems(sum(op[4] for op in sims), sum(op[1] for op in sims))


def timed_run(children: Children, name: str, seed: int, seconds: int):
    setups, ops, rss = [], [], []
    for _ in range(SEGMENTS):
        setups.append(children.start())
        res = children.finish({"mode": "timed", "workload": name, "seed": seed,
                               "seconds": seconds / SEGMENTS, "first": len(ops)})
        ops += res["ops"]
        rss.append(res["peak_rss_mb"])
    times = [op[0] for op in ops]
    p50, tail, tail_pct = latency_summary(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_s_tail": tail,
        "peak_rss_mb": max(rss),
    }
    checks, pooled = _pooled_check(ops)
    attempted = len(ops) + checks
    failed = _failed(ops) + bool(pooled)
    info = {
        "ops": len(ops),
        "call_s_tail_percentile": round(tail_pct, 2),
        # figures too unsteady on a shared host to carry a bound (see LAYERS.md)
        "call_s_p50": p50,
        "units_per_s": sum(op[1] for op in ops) / sum(times),
        "failed_share": failed / attempted,
        "setup_samples_s": setups,
        "op_s": [round(t, 5) for t in times],
        "problems": (pooled + [op[2][0] for op in ops if op[2]])[:5],
        "digests": [op[3] for op in ops],
        "versions": res["versions"],
    }
    return metrics, attempted, failed, info


def traced_run(children: Children, name: str, seed: int, names: list):
    job = {"mode": "pass", "workload": name, "seed": seed, "names": names}
    passes = []
    for trace in (False, True, True):
        children.start()
        passes.append(children.finish({**job, "trace": trace}))
    untraced, traced, again = passes
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    ops = [op for p in passes for op in p["ops"]]
    mismatched = sorted(
        k for k in set(traced["calls"]) | set(again["calls"])
        if traced["calls"].get(k) != again["calls"].get(k)
    )
    # the passes repeat the same operations, so one pass is pooled
    checks, pooled = _pooled_check(untraced["ops"])
    info = {
        "ops_per_pass": len(untraced["ops"]),
        "calls_repeat_exactly": not mismatched,
        "calls_mismatched": mismatched[:10],
        "problems": (pooled + [op[2][0] for op in ops if op[2]])[:5],
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    # the repeat check counts as one more operation
    failed = _failed(ops) + bool(mismatched) + bool(pooled)
    return metrics, len(ops) + 1 + checks, failed, info


def environment(seed: int) -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        env["commit"] = head.stdout.strip() or None
    return env


def run_one(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> tuple:
    """(information line, result) of one run; prints the information line."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    children = Children(time.monotonic() + BUDGET_S)
    try:
        if trace:
            own = [n for n in units if n != "trace.overhead_ratio"]
            metrics, attempted, failed, info = traced_run(children, name, seed, own)
        else:
            metrics, attempted, failed, info = timed_run(children, name, seed, seconds)
    finally:
        children.close()
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({"workload": name, "env": environment(seed), **info}))
    return info, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "nofkit", "cli.py")):
            raise BenchError("src/nofkit is missing; run from a nofkit checkout")
        known = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        if args.workload == "all":
            for name in known:
                info, result = run_one(spec, name, args.seed, seconds, bool(args.trace))
                rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
                rows += [(k, info[k], unit) for k, unit in INFO_UNITS.items() if k in info]
                for metric, value, unit in rows:
                    print(f"{name:18s} {metric:38s} {value:.6g} {unit}")
            return 0
        if args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {known}")
        _, result = run_one(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

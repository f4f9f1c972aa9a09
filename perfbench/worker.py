"""One benchmark child process: import nofkit, then run one job.

It prints ``ready`` once ``nofkit.cli`` is imported, so the parent can time
set-up from a fresh interpreter. It then reads one JSON job from stdin (an
empty line means exit) and prints one JSON result line:

- ``{"mode": "timed", ...}`` runs operations from index ``first`` on until
  ``seconds`` have passed;
- ``{"mode": "pass", "trace": bool, ...}`` runs the workload's fixed traced
  pass, with spans installed when ``trace`` is true.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _op_row(op) -> list:
    return [op.seconds, op.units, op.problems[:1], op.digest, op.wrong]


def _timed(workload, job: dict) -> dict:
    import numpy
    import scipy

    # no operation starts that the last one's duration says would end past
    # the deadline, so a run measures at most ``seconds`` after its first op
    deadline = time.perf_counter() + job["seconds"]
    first = job["first"]
    ops = [workload.run_op(job["seed"], first)]
    while time.perf_counter() + ops[-1].seconds <= deadline:
        ops.append(workload.run_op(job["seed"], first + len(ops)))
    return {
        "ops": [_op_row(op) for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }


def _pass(workload, job: dict) -> dict:
    import spans

    tracer = spans.Tracer(keep=spans.duration_spans(job["names"]))
    if job["trace"]:
        spans.install(tracer)
    t0 = time.perf_counter()
    ops = [workload.run_op(job["seed"], i) for i in range(workload.traced_ops)]
    wall = time.perf_counter() - t0
    result = {"ops": [_op_row(op) for op in ops], "wall_s": wall}
    if job["trace"]:
        computed = tracer.counters["discrepancy.bound_rows.disc"]
        extra = {
            "discrepancy.table_tuples": tracer.counters["discrepancy.table_tuples"],
            "discrepancy.bound_rows_useful_ratio": (
                sum(op.bound_rows_reported for op in ops) / computed if computed else 0.0
            ),
        }
        result["metrics"] = spans.layer_metrics(tracer, job["names"], extra)
        result["calls"] = {**tracer.calls, **tracer.counters}
    return result


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nofkit.cli  # noqa: F401  -- the set-up being timed

    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return 0
    from workloads import WORKLOADS

    job = json.loads(line)
    workload = WORKLOADS[job["workload"]]
    result = _timed(workload, job) if job["mode"] == "timed" else _pass(workload, job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

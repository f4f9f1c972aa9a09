"""Spans around the calls into each nofkit layer, for the traced run.

The traced run wraps public nofkit functions at the attribute each caller
looks up: every module attribute and module-level dict entry under
``nofkit`` that holds the function, or the class attribute for methods.
A call site in SITES keeps a span of its own.
Nothing under ``src/`` changes, and the timed runs never call ``install``.
Tiny hot helpers (``View.masked_row``, ``math.comb``, private samplers) stay
unwrapped, because a wrapper around them would cost more than they do.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from math import comb

# (span name, module, attribute) of every function the traced run times.
# Span names group into layers by prefix: "tape.draw.calls" sums the calls of
# every span named "tape.draw" or "tape.draw.<anything>".
FUNCTIONS = [
    ("cli", "nofkit.cli", "main"),
    ("harness.simulate", "nofkit.harness", "simulate"),
    ("harness.ci", "nofkit.harness", "clopper_pearson"),
    ("harness.verify.facts", "nofkit.harness", "_suite_facts"),
    ("harness.verify.bounds", "nofkit.harness", "_suite_bounds"),
    ("harness.verify.identities", "nofkit.harness", "_suite_identities"),
    ("harness.verify.decompose", "nofkit.harness", "_suite_decompose"),
    ("core.run", "nofkit.core", "run"),
    ("tape.sub", "nofkit.tape", "RandomTape.sub"),
    ("tape.draw.randbelow", "nofkit.tape", "RandomTape.randbelow"),
    ("tape.draw.bitvector", "nofkit.tape", "RandomTape.bitvector"),
    ("tape.stream", "nofkit.tape", "RandomTape.stream"),
    ("distributions.sample", "nofkit.distributions", "DistributionSpec.sample"),
    ("distributions.pmf", "nofkit.distributions", "DistributionSpec.pmf"),
    ("combinatorics.binom_leq", "nofkit.combinatorics", "binom_leq"),
    ("combinatorics.unrank_combination", "nofkit.combinatorics", "unrank_combination"),
    ("combinatorics.majority_tail", "nofkit.combinatorics", "majority_tail"),
    ("protocols.params.active_budget", "nofkit.protocols", "active_budget"),
    ("protocols.params.smallest_odd_majority", "nofkit.combinatorics", "smallest_odd_majority"),
    ("protocols.params.gip_params", "nofkit.protocols", "gip_params"),
    ("protocols.params.disj_params", "nofkit.protocols", "disj_params"),
    ("protocols.params.mod3_params", "nofkit.protocols", "mod3_params"),
    ("protocols.mask.from_rank", "nofkit.protocols", "MaskVector.from_rank"),
    ("protocols.broadcast.gip_broadcast_bit", "nofkit.protocols", "gip_broadcast_bit"),
    ("protocols.poly.expand_parity_poly", "nofkit.protocols", "expand_parity_poly"),
    ("protocols.poly.monomial_partition", "nofkit.protocols", "monomial_partition"),
    ("protocols.oracle.exact_gip_error", "nofkit.protocols", "exact_gip_error"),
    ("protocols.oracle.exact_mod3_error", "nofkit.protocols", "exact_mod3_error"),
    ("discrepancy.exact", "nofkit.discrepancy", "exact_disc"),
    ("discrepancy.heuristic", "nofkit.discrepancy", "heuristic_disc"),
    ("discrepancy.bound_suite", "nofkit.discrepancy", "bound_suite"),
    ("functions.eval.gip", "nofkit.functions", "eval_gip"),
    ("functions.eval.disj", "nofkit.functions", "eval_disj"),
    ("functions.eval.udisj", "nofkit.functions", "eval_udisj"),
    ("functions.eval.mod3xor", "nofkit.functions", "eval_mod3xor"),
    ("functions.eval.composed", "nofkit.functions", "eval_composed"),
    ("matrices.from_code", "nofkit.matrices", "InputMatrix.from_code"),
    ("matrices.player_view", "nofkit.matrices", "player_view"),
    ("matrices.encode", "nofkit.matrices", "View.encode"),
]

# (span name, module, attribute) of single call sites with a span of their
# own. They are wrapped first, so the FUNCTIONS entry for the same function
# no longer finds it there. The disc command's bound table sets
# discrepancy.bound_rows_useful_ratio; verify's bound tables must not.
SITES = [("discrepancy.bound_suite.disc", "nofkit.cli", "bound_suite")]

# protocol factories; their specs' rules are re-wrapped with dataclasses.replace
BUILDERS = {
    "gip_protocol": "protocols.build.gip",
    "disj_protocol": "protocols.build.disj",
    "mod3_protocol": "protocols.build.mod3",
}
RULES = {"message_rule": "core.message", "length_rule": "core.length", "output_rule": "core.output"}

SPAN_NAMES = [name for name, _, _ in FUNCTIONS + SITES] + list(BUILDERS.values()) + list(RULES.values())


class Tracer:
    """Nested spans on one thread, aggregated as they close.

    A span's self time is its duration minus the durations of its direct
    children; on one call stack children are disjoint and lie inside their
    parent, so that is the part of the interval the children cover. Total
    time sums whole durations, so a span that recurses into its own name is
    counted once per level there (only non-recursive spans report totals).
    """

    def __init__(self, clock=time.perf_counter_ns, keep=()):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.durations = {name: [] for name in keep}
        self._stack = []  # [name, start, child ns]

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0])

    def exit(self):
        name, start, child_ns = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        self.total_ns[name] += dur
        if name in self.durations:
            self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


def table_tuples(query) -> int:
    """Cylinder table tuples exact_disc enumerates for a query: every table
    tuple of every candidate player subset."""
    tables = 1 << (1 << ((query.k - 1) * query.n))
    if query.family is None:
        return tables**query.k
    if isinstance(query.family, int):
        size = min(query.family, query.k)
        return comb(query.k, size) * tables**size
    return tables ** len(query.family)


def _replace_everywhere(old, new):
    """Point every nofkit module attribute and module-level dict entry that
    holds ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname != "nofkit" and not modname.startswith("nofkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, entry in list(value.items()):
                    if entry is old:
                        value[key] = new


def install(tracer: Tracer):
    """Wrap every function in SITES, FUNCTIONS and BUILDERS with tracer spans."""

    def count(counter, amount):
        def on_result(value, args):
            tracer.counters[counter] += amount(value, args)

        return on_result

    hooks = {
        "discrepancy.exact": count("discrepancy.table_tuples", lambda v, a: table_tuples(a[0])),
        "discrepancy.bound_suite.disc": count("discrepancy.bound_rows.disc", lambda v, a: len(v)),
    }
    for name, modname, attr in SITES:
        module = importlib.import_module(modname)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), hooks.get(name)))
    for name, modname, attr in FUNCTIONS:
        module = importlib.import_module(modname)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, method, tracer.wrap(name, raw))
        else:
            fn = getattr(module, attr)
            _replace_everywhere(fn, tracer.wrap(name, fn, hooks.get(name)))

    protocols = importlib.import_module("nofkit.protocols")
    for attr, name in BUILDERS.items():
        builder = getattr(protocols, attr)
        _replace_everywhere(builder, _traced_builder(tracer, name, builder))


def _traced_builder(tracer: Tracer, name: str, builder):
    build = tracer.wrap(name, builder)

    @functools.wraps(builder)
    def traced(*args, **kwargs):
        spec = build(*args, **kwargs)
        rules = {
            field: tracer.wrap(span, getattr(spec, field))
            for field, span in RULES.items()
            if getattr(spec, field) is not None
        }
        return dataclasses.replace(spec, **rules)

    return traced


def latency_summary(values) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of a non-empty sample.

    The tail is the highest nearest-rank percentile with at least ten
    samples beyond it. With fewer than 22 samples no rank above the middle
    has that many, and the tail is the slowest sample: on a host whose speed
    flips every few seconds, the slowest of a few long operations is the
    one figure that lands in the slow state run after run.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = count - 10 if count >= 22 else count
    return statistics.median(ordered), ordered[rank - 1], 100.0 * rank / count


def duration_spans(names) -> tuple:
    """Spans whose single durations the named ``X_ms_p50``/``X_ms_tail``
    metrics need; pass them to ``Tracer(keep=...)``."""
    keep = {n.rpartition("_ms_")[0] for n in names if n.endswith(("_ms_p50", "_ms_tail"))}
    for span in keep:
        if span not in SPAN_NAMES:
            raise ValueError(f"no traced span is named {span!r}")
    return tuple(sorted(keep))


def layer_metrics(tracer: Tracer, names, extra: dict) -> dict:
    """Values of the named per-layer metrics.

    ``X.calls`` and ``X.self_s`` sum over spans in layer X;
    ``X.self_share`` is that self time over the total time of the ``cli``
    span; ``X_s`` is the total time of span X; ``X_ms_p50``/``X_ms_tail``
    are percentiles of span X's durations, which the tracer must keep.
    Names in ``extra`` are taken from it as given.
    """
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        if name.endswith((".calls", ".self_s", ".self_share")):
            prefix, _, kind = name.rpartition(".")
            spans = _layer(prefix)
            if kind == "calls":
                out[name] = sum(tracer.calls[s] for s in spans)
            elif kind == "self_s":
                out[name] = sum(tracer.self_ns[s] for s in spans) / 1e9
            else:
                whole = tracer.total_ns["cli"]
                out[name] = sum(tracer.self_ns[s] for s in spans) / whole if whole else 0.0
        elif name.endswith("_ms_p50") or name.endswith("_ms_tail"):
            prefix, _, kind = name.rpartition("_ms_")
            if prefix not in tracer.durations:
                raise ValueError(f"the tracer did not keep the durations of {prefix!r}")
            values = tracer.durations[prefix]
            if not values:
                out[name] = 0.0
            else:
                p50, tail, _ = latency_summary(values)
                out[name] = (p50 if kind == "p50" else tail) / 1e6
        elif name.endswith("_s"):
            prefix = name[: -len("_s")]
            _layer(prefix)
            out[name] = tracer.total_ns[prefix] / 1e9
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
    return out


def _layer(prefix: str) -> list[str]:
    spans = [s for s in SPAN_NAMES if s == prefix or s.startswith(prefix + ".")]
    if not spans:
        raise ValueError(f"no traced span belongs to layer {prefix!r}")
    return spans

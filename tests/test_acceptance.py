"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and prints a single PASS line with its elapsed
time; pytest -v therefore shows one verdict line per criterion. Large input
spaces are swept with vectorized numpy mirrors of the broadcast rules, with
the pure-Python library implementations cross-checked exhaustively at small
shapes and on samples at the big ones.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nofkit.core import run
from nofkit.combinatorics import binom_leq
from nofkit.discrepancy import (
    CharacterSpec,
    CorrelationQuery,
    bns_rhs,
    bound_suite,
    correlation,
    enumerate_cylinders,
    exact_disc,
)
from nofkit.distributions import make_dist
from nofkit.functions import eval_gip, eval_mod3xor, gip_spec
from nofkit.harness import ExperimentConfig, simulate, verify
from nofkit.matrices import InputMatrix, format_matrix
from nofkit.protocols import (
    InfeasibleParameters,
    active_budget,
    ceil_log2,
    enumerate_masks,
    exact_gip_error,
    exact_mod3_error,
    expand_parity_poly,
    fold_rows,
    gip_base_outcome,
    gip_params,
    gip_protocol,
    mod3_base_value,
    mod3_params,
    mod3_protocol,
    parity_poly_eval,
)
from nofkit.tape import RandomTape

CHUNK = 1 << 19


def _done(num: int, label: str, t0: float, limit: float | None = None) -> None:
    elapsed = time.monotonic() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"
    print(f"[acceptance] criterion {num:02d} PASS ({elapsed:.1f}s): {label}")


def _popcount_lut(k: int) -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(1 << k)], dtype=np.int64)


def _row_arrays(codes: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    full = (1 << k) - 1
    return [(codes >> (j * k)) & full for j in range(n)]


def _distinct_count(rows: list[np.ndarray]) -> np.ndarray:
    """Number of distinct values among the per-code row tuples (n <= 3)."""
    d = np.zeros(len(rows[0]), dtype=np.int64)
    for j, r in enumerate(rows):
        first = np.ones(len(r), dtype=bool)
        for i in range(j):
            first &= rows[i] != r
        d += first
    return d


def _budget_or_full(n: int, k: int) -> int:
    # when no budget reaches the 3n threshold the full mask space still
    # defines the base run; the <= 1/3 guarantee is simply not claimed
    try:
        return active_budget(n, k)
    except InfeasibleParameters:
        return k


def test_c01_gip_base_run_exhaustive():
    t0 = time.monotonic()
    for n in range(1, 4):
        for k in range(1, 9):
            ell = _budget_or_full(n, k)
            masks = list(enumerate_masks(k, ell))
            total = binom_leq(k, ell)
            assert len(masks) == total
            full = (1 << k) - 1
            pc = _popcount_lut(k)
            space = 1 << (n * k)
            for start in range(0, space, CHUNK):
                codes = np.arange(start, min(start + CHUNK, space), dtype=np.int64)
                rows = _row_arrays(codes, n, k)
                ones = sum((r == full).astype(np.int64) for r in rows)
                truth = ones & 1
                heavy = [(k - pc[r]) <= ell for r in rows]
                dh = np.zeros(len(codes), dtype=np.int64)
                for j, r in enumerate(rows):
                    first = np.ones(len(codes), dtype=bool)
                    for i in range(j):
                        first &= rows[i] != r
                    dh += first & heavy[j]
                hits = np.zeros(len(codes), dtype=np.int64)
                for m in masks:
                    zs = m.zero_positions
                    out = np.zeros(len(codes), dtype=np.int64)
                    for ordinal in range(1, len(zs) + 1):
                        me = zs[ordinal - 1]
                        lo = 0
                        for z in zs[: ordinal - 1]:
                            lo |= 1 << (z - 1)
                        rest = full & ~lo & ~(1 << (me - 1))
                        bit = np.zeros(len(codes), dtype=np.int64)
                        for r in rows:
                            bit += ((r & lo) == 0) & ((r & rest) == rest)
                        out ^= bit & 1
                    hit = np.zeros(len(codes), dtype=bool)
                    for r in rows:
                        hit |= r == m.bits
                    fine = ~hit
                    assert np.array_equal(out[fine], truth[fine])
                    assert not np.any((out != truth) & fine)
                    hits += hit
                # collision probability equals the distinct-heavy count / total
                assert np.array_equal(hits, dh)
                if total >= 3 * n:
                    assert int(hits.max()) * 3 <= total

    # the library base run, exhaustively at small shapes
    for n, k in [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4)]:
        ell = _budget_or_full(n, k)
        masks = list(enumerate_masks(k, ell))
        total = binom_leq(k, ell)
        for code in range(1 << (n * k)):
            x = InputMatrix.from_code(n, k, code)
            truth = eval_gip(x)
            hits = 0
            for m in masks:
                out, bits = gip_base_outcome(x, m)
                assert len(bits) == len(m.zero_positions) <= ell
                if m.bits in x.rows:
                    hits += 1
                else:
                    assert out == truth
            assert Fraction(hits, total) == exact_gip_error(x, ell)

    # and on samples at the big ones
    rng = np.random.default_rng(11)
    for n, k in [(3, 7), (3, 8), (2, 8)]:
        ell = _budget_or_full(n, k)
        masks = list(enumerate_masks(k, ell))
        total = binom_leq(k, ell)
        for code in rng.integers(0, 1 << (n * k), size=200):
            x = InputMatrix.from_code(n, k, int(code))
            truth = eval_gip(x)
            hits = 0
            for m in masks:
                out, _ = gip_base_outcome(x, m)
                if m.bits in x.rows:
                    hits += 1
                else:
                    assert out == truth
            assert Fraction(hits, total) == exact_gip_error(x, ell)
    _done(1, "gip base runs: conditional correctness, exact collision rate", t0, 60)


def test_c02_gip_cost_budget_and_anchors():
    t0 = time.monotonic()
    assert active_budget(8, 16) == 2
    assert active_budget(8, 64) == 1
    assert active_budget(256, 256) == 2
    # every mask in a budget-ell space yields a base run of <= ell bits
    for n, k in [(8, 16), (8, 64), (2, 3), (1, 2), (6, 5)]:
        ell = _budget_or_full(n, k)
        for m in enumerate_masks(k, ell):
            assert len(m.zero_positions) <= ell
    # live single-block runs never exceed ell bits
    for n, k in [(8, 16), (8, 64), (2, 3)]:
        params = gip_params(n, k)
        assert params["reps"] == [1] and len(params["blocks"]) == 1
        ell = params["ells"][0]
        proto = gip_protocol(n, k)
        master = RandomTape(21)
        for t in range(80):
            x = InputMatrix.from_code(n, k, (t * 7919) % (1 << min(n * k, 60)))
            assert run(proto, x, master.sub(f"t{t}")).cost_bits <= ell
    _done(2, "gip cost within the mask budget, anchors 2/1/2", t0, 30)


def test_c03_parity_polynomial_identity_and_degree():
    t0 = time.monotonic()
    for k in range(1, 11):
        xs = np.arange(1 << k, dtype=np.int64)
        pc = _popcount_lut(k)[xs]
        parity = pc & 1
        pow2 = 1 + parity  # 2^popcount mod 3
        for u in range(1 << k):
            prod2 = np.ones(len(xs), dtype=np.int64)
            for j in range(k):
                term = ((xs >> j) & 1) + ((u >> j) & 1) + 2
                prod2 = (prod2 * term) % 3
            vals = (pow2 - prod2 - 1) % 3
            off = xs != u
            assert np.array_equal(vals[off], parity[off])
            poly = expand_parity_poly(u, k)
            assert poly.degree() <= max(k - 1, 0)
    # tie the numpy mirror to the library evaluators on samples
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        u = int(rng.integers(0, 1 << k))
        x = int(rng.integers(0, 1 << k))
        direct = parity_poly_eval(u, x, k)
        assert direct == expand_parity_poly(u, k).evaluate(x)
        if x != u:
            assert direct == bin(x).count("1") & 1
    _done(3, "p_u identity for k <= 10, expanded degree <= k-1", t0, 60)


def _mod3_point_luts(k_eff: int) -> list[np.ndarray]:
    """Per-point GF(3) value tables over the folded row space, checked
    against the library polynomial evaluator."""
    space = np.arange(1 << k_eff, dtype=np.int64)
    pc = _popcount_lut(k_eff)[space]
    pow2 = 1 + (pc & 1)
    luts = []
    for u in range(1 << k_eff):
        prod2 = np.ones(len(space), dtype=np.int64)
        for j in range(k_eff):
            term = ((space >> j) & 1) + ((u >> j) & 1) + 2
            prod2 = (prod2 * term) % 3
        lut = (pow2 - prod2 - 1) % 3
        assert lut.tolist() == [parity_poly_eval(u, v, k_eff) for v in range(1 << k_eff)]
        luts.append(lut)
    return luts


def test_c04_mod3_base_run_exhaustive_and_regimes():
    t0 = time.monotonic()
    for n in range(1, 4):
        for k in range(2, 9):
            if 3 * n > (1 << k):
                continue  # gap regime, exercised below at the protocol level
            k_eff = ceil_log2(3 * n)
            assert k_eff <= k
            foldlut_list = []
            low = (1 << (k_eff - 1)) - 1
            for r in range(1 << k):
                fold = bin(r >> (k_eff - 1)).count("1") & 1
                foldlut_list.append((r & low) | (fold << (k_eff - 1)))
            assert tuple(foldlut_list) == fold_rows(range(1 << k), k_eff)
            foldlut = np.array(foldlut_list, dtype=np.int64)
            pc_full = _popcount_lut(k)
            pc_eff = _popcount_lut(k_eff)
            # folding preserves row parity
            assert np.array_equal(pc_full & 1, pc_eff[foldlut] & 1)
            luts = _mod3_point_luts(k_eff)
            space = 1 << (n * k)
            for start in range(0, space, CHUNK):
                codes = np.arange(start, min(start + CHUNK, space), dtype=np.int64)
                rows = _row_arrays(codes, n, k)
                frows = [foldlut[r] for r in rows]
                total = sum(pc_full[r] & 1 for r in rows) % 3
                truth = (total == 0).astype(np.int64)
                d = _distinct_count(frows)
                assert int(d.max()) <= n
                hits = np.zeros(len(codes), dtype=np.int64)
                for u in range(1 << k_eff):
                    val = sum(luts[u][fr] for fr in frows) % 3
                    out = (val == 0).astype(np.int64)
                    hit = np.zeros(len(codes), dtype=bool)
                    for fr in frows:
                        hit |= fr == u
                    fine = ~hit
                    assert np.array_equal(out[fine], truth[fine])
                    assert not np.any((out != truth) & fine)
                    hits += hit
                # collision probability is (#distinct folded rows) / 2^k_eff
                assert np.array_equal(hits, d)

    # library cross-checks on samples, via the folded matrix oracle
    rng = np.random.default_rng(7)
    for n, k in [(2, 5), (3, 6), (3, 8)]:
        k_eff = ceil_log2(3 * n)
        for code in rng.integers(0, 1 << (n * k), size=120):
            x = InputMatrix.from_code(n, k, int(code))
            folded = InputMatrix(k=k_eff, rows=fold_rows(x.rows, k_eff))
            truth = eval_mod3xor(x)
            assert eval_mod3xor(folded) == truth
            hits = 0
            for u in range(1 << k_eff):
                if u in folded.rows:
                    hits += 1
                else:
                    assert (mod3_base_value(folded, u) == 0) == (truth == 1)
            assert Fraction(hits, 1 << k_eff) == exact_mod3_error(folded)

    # all three width regimes, with the fixed 2 * k_eff bits per block rep
    direct = mod3_params(3, 4)
    assert direct["k_effs"] == [4] and direct["reps"] == [1]
    folded = mod3_params(3, 8)
    assert folded["k_effs"] == [4] and folded["cost_ceiling"] == 8
    gap = mod3_params(3, 2)
    assert gap["blocks"] == [1, 1, 1] and gap["k_effs"] == [2, 2, 2]
    for n, k in [(3, 4), (3, 8), (3, 2)]:
        params = mod3_params(n, k)
        ceiling = sum(2 * ke * rp for ke, rp in zip(params["k_effs"], params["reps"]))
        assert ceiling == params["cost_ceiling"]
        proto = mod3_protocol(n, k)
        master = RandomTape(33)
        for t in range(30):
            x = InputMatrix.from_code(n, k, (t * 2654435761) % (1 << (n * k)))
            assert run(proto, x, master.sub(f"t{t}")).cost_bits == ceiling
    _done(4, "mod3 base runs: exact conditional correctness, 2k' bits", t0, 120)


def test_c05_disj_empirical_error():
    t0 = time.monotonic()
    reports = {}
    cfg = ExperimentConfig(protocol="disj", n=16, k=16, source="dist:sigma",
                           trials=2000, seed=41)
    reports["sigma"] = simulate(cfg)

    rows = [[1] * 16]
    for i in range(15):
        rows.append([0 if j == i else 1 for j in range(16)])
    x = InputMatrix.from_bits(rows)
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "adversarial.txt")
        with open(path, "w") as fh:
            fh.write(format_matrix(x))
        cfg = ExperimentConfig(protocol="disj", n=16, k=16, source=f"file:{path}",
                               trials=2000, seed=42)
        reports["single-row"] = simulate(cfg)

    for name, rep in reports.items():
        assert rep["cost_ceiling_bits"] == 672
        assert rep["worst_cost_bits"] <= 672
        assert rep["emp_error"] <= 1 / 3, name
        # 99% upper confidence bound stays under the design error
        assert rep["ci_high"] <= 1 / 3, (name, rep["ci_high"])
    _done(5, "disj at (16,16): error within 1/3 at 99% confidence", t0, 60)


def test_c06_gip_discrepancy_bound():
    t0 = time.monotonic()
    anchor = exact_disc(CorrelationQuery(gip_spec(1, 2)))
    assert anchor == Fraction(1, 2) < Fraction(3, 4)
    for n, k in [(1, 2), (2, 2), (1, 3)]:
        value = exact_disc(CorrelationQuery(gip_spec(n, k)))
        bound = (1 - Fraction(4) ** (1 - k)) ** n
        assert value <= bound
    assert exact_disc(CorrelationQuery(gip_spec(2, 2))) == Fraction(5, 16)
    _done(6, "exact disc(gip, uniform) under the (1-4^(1-k))^n bound", t0, 60)


def test_c07_gip_budget_restricted_discrepancy():
    t0 = time.monotonic()
    for n, k in [(1, 2), (2, 2)]:
        weight = make_dist("upsilon", n, k, ell=1)
        q = CorrelationQuery(gip_spec(n, k), weight=weight, family=1)
        value = exact_disc(q)
        bound = (1 - Fraction(1, binom_leq(k, 1))) ** n
        assert value <= bound
    _done(7, "exact disc_1(gip, upsilon_1) under (1 - 1/C(k,<=1))^n", t0, 30)


def test_c08_character_correlation_bounds():
    t0 = time.monotonic()
    for n in range(1, 4):
        for k in range(1, 4):
            assert bns_rhs("mod3char", n, k) == (1 - Fraction(3, 2 ** (k + 1))) ** n
    assert bns_rhs("mod3char", 1, 1) == Fraction(1, 4)

    for n, k in [(1, 1), (1, 2), (2, 2)]:
        rhs = bns_rhs("mod3char", n, k)
        q = CorrelationQuery(CharacterSpec(n, k))
        players = tuple(range(1, k + 1))
        for chi in enumerate_cylinders(n, k, players):
            c = float(correlation(q, chi))
            assert c ** (1 << k) <= rhs + 1e-9

    # the budget-restricted correlation bound holds with room to spare
    for ell in (1, 2):
        value = float(exact_disc(CorrelationQuery(CharacterSpec(2, 2), family=ell)))
        assert value < math.exp(-2 / 4**ell) - 0.1
    _done(8, "character correlations within the closed-form bounds", t0, 60)


def test_c09_bound_suite_has_no_violations():
    t0 = time.monotonic()
    documented_vacuous = {"disj-mu-xor", "disj-sigma-xor", "disj-sigma-ell-xor",
                          "mod3-nu"}
    for n, k, ell, m in [(2, 2, 1, 1), (2, 2, 2, 1), (1, 3, 1, 1), (2, 2, 2, 2)]:
        rows = bound_suite(n, k, ell, m=m)
        assert len(rows) == 7
        for row in rows:
            assert row["status"] != "VIOLATION", row
            if row["status"] == "VACUOUS":
                assert row["bound"] >= 1
                assert row["name"] in documented_vacuous, row
    _done(9, "bound suite: zero violations, vacuous rows documented", t0)


def test_c10_facts_identities_decompositions():
    t0 = time.monotonic()
    for suite in ("facts", "identities", "decompose"):
        rows, ok = verify(suite)
        assert ok, [r for r in rows if not r["ok"]]

    # mixing weights never increases the optimum more than linearly
    uni = make_dist("upsilon", 2, 2, ell=2)
    ups = make_dist("upsilon", 2, 2, ell=1)
    target = gip_spec(2, 2)
    d_uni = exact_disc(CorrelationQuery(target, weight=uni))
    d_ups = exact_disc(CorrelationQuery(target, weight=ups))
    for lam in (Fraction(1, 4), Fraction(1, 2)):
        mix = {}
        for code in range(16):
            x = InputMatrix.from_code(2, 2, code)
            w = lam * uni.pmf(x) + (1 - lam) * ups.pmf(x)
            if w:
                mix[code] = w
        d_mix = exact_disc(CorrelationQuery(target, weight=mix))
        assert d_mix <= lam * d_uni + (1 - lam) * d_ups

    # and the optimum is 1-Lipschitz in the total-variation move
    base = {code: Fraction(1, 16) for code in range(16)}
    bumped = dict(base)
    bumped[3] += Fraction(1, 32)
    bumped[5] -= Fraction(1, 32)
    d_base = exact_disc(CorrelationQuery(target, weight=base))
    d_bump = exact_disc(CorrelationQuery(target, weight=bumped))
    assert abs(d_base - d_bump) <= Fraction(2, 32)
    _done(10, "fact grid, composition identities, decompositions, props", t0, 120)


def test_c11_reproducibility_and_worker_invariance():
    t0 = time.monotonic()

    def trimmed(report):
        return json.dumps({k: v for k, v in report.items() if k != "wall_clock_s"},
                          sort_keys=True, default=str)

    cases = [
        ExperimentConfig(protocol="gip", n=8, k=16, trials=120, seed=17),
        ExperimentConfig(protocol="disj", n=4, k=4, trials=60, seed=5),
        ExperimentConfig(protocol="mod3", n=4, k=8, trials=120, seed=8,
                         source="dist:sigma"),
    ]
    for cfg in cases:
        first = trimmed(simulate(cfg))
        assert trimmed(simulate(cfg)) == first
        assert trimmed(simulate(cfg, workers=3)) == first
    _done(11, "simulate reruns byte-identical, worker-count invariant", t0)

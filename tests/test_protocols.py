from fractions import Fraction
from itertools import combinations

import pytest

from nofkit import protocols
from nofkit.combinatorics import binom_leq
from nofkit.core import run
from nofkit.functions import eval_disj, eval_gip, eval_mod3xor
from nofkit.matrices import InputMatrix, View, all_inputs
from nofkit.protocols import (
    DISJ_SUBCALL_ERROR,
    InfeasibleParameters,
    MaskVector,
    _Plan,
    _mask_bits,
    _mask_labels,
    _plan_message,
    active_budget,
    ceil_log2,
    disj_params,
    disj_protocol,
    enumerate_masks,
    exact_gip_error,
    exact_mod3_error,
    expand_parity_poly,
    fold_rows,
    gip_base_outcome,
    gip_broadcast_bit,
    gip_params,
    gip_protocol,
    layout,
    mod3_base_value,
    mod3_params,
    mod3_protocol,
    monomial_partition,
    parity_poly_eval,
    zero_positions,
)
from nofkit.tape import RandomTape


def M(*rows):
    return InputMatrix.from_bits(rows)


# -- mask budget -------------------------------------------------------------


def test_active_budget_anchors():
    assert active_budget(8, 16) == 2
    assert active_budget(8, 64) == 1
    assert active_budget(256, 256) == 2
    assert active_budget(16, 16) == 2


def test_active_budget_exact_threshold():
    # binom_leq(2,1) = 3 = n/delta exactly; a float comparison could miss it
    assert active_budget(1, 2) == 1


def test_active_budget_infeasible():
    with pytest.raises(InfeasibleParameters):
        active_budget(1, 1)
    with pytest.raises(InfeasibleParameters):
        active_budget(9, 3)


def test_active_budget_monotone():
    for n in (1, 4, 16):
        vals = [active_budget(n, k) for k in range(6, 24)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for k in (8, 12):
        vals = [active_budget(n, k) for n in (1, 2, 4, 8, 16, 32)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# -- masks -------------------------------------------------------------------


def test_mask_rank_order_and_zero_positions():
    # rank 0 is the all-ones mask; ranks then sweep zero sets lexicographically
    m0 = MaskVector.from_rank(3, 2, 0)
    assert m0.zero_positions == ()
    m1 = MaskVector.from_rank(3, 2, 1)
    assert m1.zero_positions == (1,)
    last = MaskVector.from_rank(3, 2, binom_leq(3, 2) - 1)
    assert last.zero_positions == (2, 3)


def test_mask_from_rank_matches_enumeration_exhaustively():
    for k in range(1, 11):
        for ell in range(k + 1):
            zero_sets = [z for j in range(ell + 1) for z in combinations(range(1, k + 1), j)]
            got = [MaskVector.from_rank(k, ell, r).zero_positions for r in range(len(zero_sets))]
            assert got == zero_sets, (k, ell)
            with pytest.raises(ValueError):
                MaskVector.from_rank(k, ell, len(zero_sets))


def test_enumerate_masks_complete_and_distinct():
    masks = list(enumerate_masks(4, 2))
    assert len(masks) == binom_leq(4, 2) == 11
    assert len({m.bits for m in masks}) == 11
    for m in masks:
        assert len(m.zero_positions) <= 2
        for z in m.zero_positions:
            assert (m.bits >> (z - 1)) & 1 == 0


# -- gip ---------------------------------------------------------------------


def test_exact_gip_error_anchors():
    assert exact_gip_error(M([0, 0, 0, 0]), 2) == 0
    x = InputMatrix(k=16, rows=((1 << 16) - 1,) * 8)
    assert exact_gip_error(x, 2) == Fraction(1, 137)
    assert exact_gip_error(M([1, 1, 1], [0, 1, 1]), 2) == Fraction(2, 7)


def test_exact_gip_error_at_most_third_when_budget_holds():
    for n, k in [(1, 2), (2, 3), (8, 16)]:
        ell = active_budget(n, k)
        assert binom_leq(k, ell) >= 3 * n
        for code in range(min(1 << (n * k), 256)):
            x = InputMatrix.from_code(n, k, code)
            assert exact_gip_error(x, ell) <= Fraction(1, 3)


def test_gip_base_conditional_correctness_exhaustive():
    n, k = 2, 3
    for code in range(1 << (n * k)):
        x = InputMatrix.from_code(n, k, code)
        truth = eval_gip(x)
        for mask in enumerate_masks(k, k):
            out, bits = gip_base_outcome(x, mask)
            assert len(bits) == len(mask.zero_positions)
            if mask.bits not in x.rows:
                assert out == truth, (code, mask.bits)


def test_gip_base_wrong_only_on_odd_collisions():
    n, k = 2, 3
    for code in range(1 << (n * k)):
        x = InputMatrix.from_code(n, k, code)
        truth = eval_gip(x)
        for mask in enumerate_masks(k, k):
            out, _ = gip_base_outcome(x, mask)
            mult = sum(1 for r in x.rows if r == mask.bits)
            if mult % 2 == 0:
                assert out == truth


def test_the_telescoped_identity_is_the_base_run_exhaustively():
    # every input and every mask with n*k <= 9: the broadcast bits of a base
    # run XOR to m(full) + m(d) mod 2, with m the multiplicity of each row
    # value, and the run has width - popcount(d) of them
    for n in range(1, 10):
        for k in range(1, 9 // n + 1):
            full = (1 << k) - 1
            masks = list(enumerate_masks(k, k))
            for x in all_inputs(n, k):
                for mask in masks:
                    out, bits = gip_base_outcome(x, mask)
                    d = mask.bits
                    assert (x.rows.count(full) + x.rows.count(d)) % 2 == out, (x.rows, d)
                    assert sum(bits) % 2 == out
                    assert k - d.bit_count() == len(bits)


def test_lookup_piece_equals_the_broadcast_scan_exhaustively():
    # every mask, every speaker and every input with n*k <= 9: a one-block
    # plan with every mask as one repetition gives, in each player's
    # message, the scanned broadcast bit of every mask the player speaks in
    for n in range(1, 10):
        for k in range(1, 9 // n + 1):
            masks = list(enumerate_masks(k, k))
            zero_sets = [m.zero_positions for m in masks]
            plan = _Plan(q=2, calls=1, decide=lambda calls: calls[0])
            plan.add(0, tuple(range(n)), k, [m.bits for m in masks])
            for code in range(1 << (n * k)):
                x = InputMatrix.from_code(n, k, code)
                for z in range(1, k + 1):
                    masked = [r & ~(1 << (z - 1)) for r in x.rows]
                    want = "".join(
                        str(gip_broadcast_bit(masked, zeros, zeros.index(z) + 1, k))
                        for zeros in zero_sets
                        if z in zeros
                    )
                    assert _plan_message(z, View(x, z), (), plan) == want, (code, z)


def test_gip_patterns_match_the_mask_zero_positions():
    # a draw is its mask d: player i speaks iff bit i-1 of d is 0, and
    # speaker z_j counts the row that is 0 exactly on zero positions
    # z_1..z_j, which is d with every column above z_j set
    for k in range(1, 11):
        full = (1 << k) - 1
        for ell in range(k + 1):
            for rank in range(binom_leq(k, ell)):
                mask = MaskVector.from_rank(k, ell, rank)
                d = _mask_bits(k, ell, rank)
                assert d == mask.bits
                zeros = mask.zero_positions
                assert zero_positions(d, k) == zeros
                assert [i for i in range(1, k + 1) if not d >> (i - 1) & 1] == list(zeros)
                for j, z in enumerate(zeros):
                    want = sum(1 << (c - 1) for c in range(1, k + 1) if c not in zeros[: j + 1])
                    assert d | (full ^ ((1 << z) - 1)) == want, (k, ell, rank, z)


def test_the_mask_and_layout_memos_are_bounded():
    for memo in (_mask_bits, zero_positions, _mask_labels, layout):
        assert memo.cache_info().maxsize is not None
    # the masks cover every one of disj 64 x 64's subcalls, not 256 x 256's
    assert binom_leq(64, 2) == 2081 <= _mask_bits.cache_info().maxsize < binom_leq(256, 2)


def test_a_wide_plan_unranks_only_the_masks_it_draws(monkeypatch):
    # 256 x 256 draws from 32,897 masks; no table of the mask space is built
    p = gip_protocol(256, 256)
    unranked = []
    real = MaskVector.from_rank.__func__

    def counted(cls, k, ell, rank):
        unranked.append((k, ell, rank))
        return real(cls, k, ell, rank)

    monkeypatch.setattr(MaskVector, "from_rank", classmethod(counted))
    _mask_bits.cache_clear()
    plan = p.plan(RandomTape(3))
    draws = [d for block in plan.blocks for d in block.draws]
    assert binom_leq(256, 2) == 32897
    assert all(type(d) is int and 0 <= d < 1 << 256 for d in draws)
    assert 1 <= len(unranked) <= len(draws)
    assert _mask_bits.cache_info().currsize <= len(draws)


def test_gip_params_regimes():
    p = gip_params(8, 16)
    assert p == {"blocks": [8], "ells": [2], "reps": [1], "cost_ceiling": 2}
    p = gip_params(16, 4)  # 3n > 2^k: blocked, floor(16/3) = 5 rows per block
    assert p["blocks"] == [5, 5, 5, 1]
    assert p["cost_ceiling"] == sum(t * e for t, e in zip(p["reps"], p["ells"]))
    with pytest.raises(InfeasibleParameters):
        gip_params(8, 2)
    with pytest.raises(InfeasibleParameters):
        gip_params(2, 1)


def test_gip_protocol_replay_and_cost():
    proto = gip_protocol(4, 3)
    x = M([1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0])
    tape = RandomTape(77)
    a = run(proto, x, tape)
    b = run(proto, x, tape)
    assert a == b  # same tape, bit-identical outcome
    assert a.cost_bits <= proto.cost_ceiling
    assert run(proto, x, RandomTape(78)).transcript != a.transcript or True


def test_gip_protocol_error_rate_single_block():
    # n=2, k=3: ell=2, one rep; wrong-output rate equals the odd-multiplicity
    # collision mass, here 2/7
    proto = gip_protocol(2, 3)
    assert gip_params(2, 3) == {"blocks": [2], "ells": [2], "reps": [1], "cost_ceiling": 2}
    x = M([1, 1, 1], [0, 1, 1])
    truth = eval_gip(x)
    master = RandomTape(5)
    trials = 4000
    wrong = sum(run(proto, x, master.sub(f"t{i}")).output != truth for i in range(trials))
    assert abs(wrong / trials - 2 / 7) < 0.03


def test_gip_protocol_blocked_regime_error_band():
    # n=6, k=3 forces blocks of 2 with per-block amplification
    proto = gip_protocol(6, 3)
    params = gip_params(6, 3)
    assert len(params["blocks"]) == 3
    x = InputMatrix(k=3, rows=(7, 7, 7, 7, 7, 7))
    truth = eval_gip(x)
    master = RandomTape(15)
    trials = 600
    wrong = 0
    for i in range(trials):
        out = run(proto, x, master.sub(f"t{i}"))
        assert out.cost_bits <= proto.cost_ceiling
        wrong += out.output != truth
    assert wrong / trials <= 1 / 3 + 0.05


def test_gip_namespaces_give_independent_draws():
    proto = gip_protocol(2, 16)
    x = InputMatrix(k=16, rows=(65535, 1))
    tape = RandomTape(3)
    a = run(proto, x, tape.sub("a"))
    b = run(proto, x, tape.sub("b"))
    assert (a.transcript, a.output) != (b.transcript, b.output) or a.cost_bits != b.cost_bits


# -- disj --------------------------------------------------------------------


def test_disj_params_anchor():
    p = disj_params(16, 16)
    assert p["trials"] == 16
    assert p["subcall_reps"] == 21
    assert p["cost_ceiling"] == 672


def test_disj_params_subcall_reps_follow_the_blocked_layout():
    # 2^4 < 3 * 16, so a full-row subcall runs 4 blocks, each voted to 1/64
    assert gip_params(16, 4, Fraction(1, 16))["reps"] == [39] * 4
    assert disj_params(16, 4)["subcall_reps"] == 39
    assert disj_params(16, 16)["subcall_reps"] == 21


def test_a_disj_build_looks_up_each_subcall_row_count_once(monkeypatch):
    # the subcall layouts are resolved on first use, never per trial and
    # never for a row count no plan has drawn
    p = disj_protocol(16, 16)
    looked_up = []
    real = protocols.layout

    def counted(*args):
        looked_up.append(args)
        return real(*args)

    monkeypatch.setattr(protocols, "layout", counted)
    assert looked_up == []
    plans = [p.plan(RandomTape(seed)) for seed in range(20)]
    sizes = {len(block.rows) for plan in plans for block in plan.blocks}
    assert sorted(looked_up) == [("gip", r, 16, DISJ_SUBCALL_ERROR) for r in sorted(sizes)]


def test_disj_params_infeasible():
    with pytest.raises(InfeasibleParameters):
        disj_params(4, 1)
    with pytest.raises(InfeasibleParameters):
        disj_params(32, 3)


def test_disj_subset_separation_exact():
    # P_S[gip(X|_S) = 0] is exactly 1 on disjoint inputs and exactly 1/2 on
    # any input with >= 1 all-ones row; with subcall error e <= 1/16 the
    # zero-answer probability lands >= 15/16 vs <= 9/16
    for n in (1, 4, 9, 12):
        full = 7
        for ones in range(n + 1):
            rows = tuple(full if i < ones else 0b011 for i in range(n))
            x = InputMatrix(k=3, rows=rows)
            zero = 0
            for bits in range(1 << n):
                sub = [r for i, r in enumerate(rows) if (bits >> i) & 1]
                parity = sum(1 for r in sub if r == full) & 1
                zero += parity == 0
            p0 = Fraction(zero, 1 << n)
            if ones == 0:
                assert p0 == 1
                assert p0 * Fraction(15, 16) >= Fraction(15, 16)
            else:
                assert p0 == Fraction(1, 2)
                assert p0 + Fraction(1, 16) <= Fraction(9, 16)


def test_disj_protocol_extremes():
    proto = disj_protocol(4, 4)
    master = RandomTape(8)
    disjoint = M([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    hit = M([1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    assert eval_disj(disjoint) == 1 and eval_disj(hit) == 0
    wrong_d = wrong_h = 0
    for i in range(120):
        out_d = run(proto, disjoint, master.sub(f"d{i}"))
        out_h = run(proto, hit, master.sub(f"h{i}"))
        assert out_d.cost_bits <= proto.cost_ceiling
        assert out_h.cost_bits <= proto.cost_ceiling
        wrong_d += out_d.output != 1
        wrong_h += out_h.output != 0
    assert wrong_d / 120 <= 1 / 3
    assert wrong_h / 120 <= 1 / 3


def test_disj_empty_subsets_count_as_zero_answers():
    # n=1: half the trials draw the empty subset and must vote "disjoint"
    proto = disj_protocol(1, 2)
    x = M([0, 1])
    out = run(proto, x, RandomTape(2))
    assert out.output == 1


# -- mod3 --------------------------------------------------------------------


def test_parity_poly_anchors():
    assert parity_poly_eval(0b0, 0b1, 1) == 1
    assert parity_poly_eval(0b00, 0b11, 2) == 0


def test_parity_poly_identity_exhaustive_small():
    for k in range(1, 7):
        for u in range(1 << k):
            for x in range(1 << k):
                if x == u:
                    continue
                want = bin(x).count("1") % 2
                assert parity_poly_eval(u, x, k) == want, (k, u, x)


def test_expanded_poly_degree_and_agreement():
    for k in range(1, 5):
        for u in range(1 << k):
            poly = expand_parity_poly(u, k)
            assert poly.degree() <= k - 1
            for x in range(1 << k):
                assert poly.evaluate(x) == parity_poly_eval(u, x, k)


def test_monomial_partition_anchor_and_property():
    part = monomial_partition(0b00, 2)
    assert part[0b00] == 1  # constant monomial to player 1
    assert part[0b01] == 2  # monomial x1 omits column 2
    assert part[0b10] == 1  # monomial x2 omits column 1
    for k in range(1, 6):
        for u in (0, (1 << k) - 1, 0b10101 & ((1 << k) - 1)):
            part = monomial_partition(u, k)
            poly = expand_parity_poly(u, k)
            assert set(part) == {m for m, c in poly.coeffs if c % 3}
            for mono, player in part.items():
                assert (mono >> (player - 1)) & 1 == 0  # owner omits the var
                # and every lower-indexed variable is present in the monomial
                for j in range(1, player):
                    assert (mono >> (j - 1)) & 1 == 1


def test_mod3_base_value_conditional():
    for n, k in [(1, 2), (2, 3), (2, 4)]:
        for code in range(1 << (n * k)):
            x = InputMatrix.from_code(n, k, code)
            truth = eval_mod3xor(x)
            for u in range(1 << k):
                if u in x.rows:
                    continue
                val = mod3_base_value(x, u)
                assert (1 if val == 0 else 0) == truth


def test_exact_mod3_error_counts_distinct():
    assert exact_mod3_error(M([1, 1], [1, 1])) == Fraction(1, 4)
    assert exact_mod3_error(M([0, 0], [1, 1])) == Fraction(1, 2)


def test_fold_rows_preserves_parity():
    for k_eff in (2, 3):
        for r in range(1 << 5):
            folded = fold_rows((r,), k_eff)[0]
            assert folded < 1 << k_eff
            assert bin(folded).count("1") % 2 == bin(r).count("1") % 2


def test_mod3_params_three_regimes():
    exact = mod3_params(3, 4)  # ceil(log 9) = 4 = k
    assert exact["blocks"] == [3] and exact["k_effs"] == [4]
    assert exact["cost_ceiling"] == 8

    folded = mod3_params(4, 8)  # k above the direct width
    assert folded["blocks"] == [4] and folded["k_effs"] == [4]
    assert folded["cost_ceiling"] == 8

    gap = mod3_params(4, 2)  # 2^k >= n but < 3n: blocked
    assert gap["blocks"] == [1, 1, 1, 1]
    assert gap["k_effs"] == [2, 2, 2, 2]

    with pytest.raises(InfeasibleParameters):
        mod3_params(9, 3)


def test_mod3_protocol_cost_is_fixed():
    for n, k in [(3, 4), (4, 8), (4, 2)]:
        proto = mod3_protocol(n, k)
        x = InputMatrix.from_code(n, k, 0)
        out = run(proto, x, RandomTape(1))
        assert out.cost_bits == proto.cost_ceiling


def test_mod3_protocol_error_band_direct_case():
    proto = mod3_protocol(2, 3)  # ceil(log 6) = 3 = k, no fold
    x = M([1, 1, 0], [1, 0, 0])
    truth = eval_mod3xor(x)
    ceiling = float(exact_mod3_error(x))
    master = RandomTape(41)
    trials = 3000
    wrong = sum(run(proto, x, master.sub(f"t{i}")).output != truth for i in range(trials))
    assert wrong / trials <= ceiling + 0.03


def test_mod3_protocol_folded_case_matches_folded_oracle():
    proto = mod3_protocol(2, 6)  # k_eff = 3
    params = mod3_params(2, 6)
    assert params["k_effs"] == [3]
    x = M([1, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 0])
    truth = eval_mod3xor(x)
    folded = InputMatrix(k=3, rows=fold_rows(x.rows, 3))
    ceiling = float(exact_mod3_error(folded))
    master = RandomTape(43)
    trials = 3000
    wrong = sum(run(proto, x, master.sub(f"t{i}")).output != truth for i in range(trials))
    assert wrong / trials <= ceiling + 0.03


def test_mod3_protocol_blocked_case_correctness_band():
    proto = mod3_protocol(4, 2)
    master = RandomTape(47)
    for code in (0, 5, 37, 255):
        x = InputMatrix.from_code(4, 2, code)
        truth = eval_mod3xor(x)
        wrong = sum(run(proto, x, master.sub(f"{code}/{i}")).output != truth for i in range(400))
        assert wrong / 400 <= 1 / 3 + 0.06, code


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(12) == 4
    with pytest.raises(ValueError):
        ceil_log2(0)

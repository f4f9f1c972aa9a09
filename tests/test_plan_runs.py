"""Plan-first runs: a protocol's plan is built once per run and is the only
thing its rules read.

The references here rebuild the plan for every rule call, which is only
sound because building a plan is pure in the tape, or rebuild gip and
disj runs from the protocol's own draws and the single-run reference
``gip_base_outcome``.
"""

from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit.combinatorics import binom_leq
from nofkit.core import Transcript, plurality, run
from nofkit.harness import PROTOCOL_BUILDERS
from nofkit.matrices import InputMatrix, View, all_inputs, player_view
from nofkit.protocols import (
    DEFAULT_ERROR,
    DISJ_SUBCALL_ERROR,
    DISJ_ZERO_THRESHOLD,
    InfeasibleParameters,
    MaskVector,
    _Plan,
    _partition_rows,
    _plan_output,
    disj_params,
    disj_protocol,
    gip_base_outcome,
    gip_params,
    gip_protocol,
    mask_label,
    mod3_protocol,
    subset_label,
    zero_positions,
)
from nofkit.tape import RandomTape

BUILDS = {"gip": gip_protocol, "disj": disj_protocol, "mod3": mod3_protocol}
SMALL = [("gip", 3, 2), ("gip", 5, 4), ("disj", 3, 2), ("disj", 4, 3),
         ("mod3", 3, 2), ("mod3", 6, 4)]


@lru_cache(maxsize=None)
def spec(name, n, k):
    return BUILDS[name](n, k)


def random_input(rng, n, k):
    """Uniform rows below 2^63; a wider row is all ones but for 0, 1 or 2
    random zero columns, so that it still meets the masks' patterns."""
    if k < 63:
        return InputMatrix(k=k, rows=tuple(int(r) for r in rng.integers(0, 1 << k, size=n)))
    rows = []
    for _ in range(n):
        zeros = rng.choice(k, size=int(rng.integers(0, 3)), replace=False)
        rows.append(((1 << k) - 1) & ~sum(1 << int(c) for c in zeros))
    return InputMatrix(k=k, rows=tuple(rows))


def count_draws(monkeypatch):
    counts = {"draws": 0}
    for name in ("randbelow", "randbelow_each", "bitvector", "stream"):
        real = getattr(RandomTape, name)

        def counted(self, *args, _real=real):
            counts["draws"] += 1
            return _real(self, *args)

        monkeypatch.setattr(RandomTape, name, counted)
    return counts


@pytest.mark.parametrize("name, n, k", [("mod3", 128, 8), ("gip", 16, 4), ("disj", 8, 3)])
def test_one_run_draws_what_one_plan_build_draws(name, n, k, monkeypatch):
    p = spec(name, n, k)
    x = random_input(np.random.default_rng(n + k), n, k)
    tape = RandomTape(master_seed=77)
    counts = count_draws(monkeypatch)
    p.plan(tape)
    per_plan = counts["draws"]
    counts["draws"] = 0
    run(p, x, tape)
    assert per_plan > 0 and counts["draws"] == per_plan


def rebuilt_plan_run(p, x, tape):
    """(transcript entries, output) with a fresh plan for every rule call."""
    entries = []
    for i in range(1, p.k + 1):
        msg = p.message_rule(i, player_view(x, i), (), p.plan(tape))
        assert len(msg) == p.length_rule(i, p.plan(tape))
        if msg:
            entries.append((i, msg))
    transcript = Transcript(entries=tuple(entries))
    return transcript.entries, p.output_rule(transcript, p.plan(tape))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_run_equals_a_run_that_rebuilds_the_plan_per_rule_call(shape, seed, input_seed):
    name, n, k = shape
    p = spec(name, n, k)
    x = random_input(np.random.default_rng(input_seed), n, k)
    tape = RandomTape(master_seed=seed)
    out = run(p, x, tape)
    assert (out.transcript.entries, out.output) == rebuilt_plan_run(p, x, tape)


def reference_gip_call(x, tape, row_ids, eps, scope):
    """(bits per player, value) of one gip call on the given rows: every
    block's repetitions redraw the protocol's masks from the tape and run
    gip_base_outcome on the block's rows; the blocks XOR their majorities."""
    k = x.k
    params = gip_params(len(row_ids), k, eps)
    said = dict.fromkeys(range(1, k + 1), "")
    value = 0
    for b, (block, ell) in enumerate(zip(_partition_rows(row_ids, k), params["ells"])):
        sub = InputMatrix(k=k, rows=tuple(x.rows[r] for r in block))
        outputs = []
        for r in range(params["reps"][b]):
            rank = tape.randbelow(mask_label(scope, b, r), binom_leq(k, ell))
            mask = MaskVector.from_rank(k, ell, rank)
            out, bits = gip_base_outcome(sub, mask)
            for z, bit in zip(mask.zero_positions, bits):
                said[z] += str(bit)
            outputs.append(out)
        value ^= plurality(outputs, 2)
    return said, value


def reference_run(name, x, tape):
    """(bits per player, output) of a gip or disj run, call by call."""
    n, k = x.n, x.k
    if name == "gip":
        return reference_gip_call(x, tape, range(n), DEFAULT_ERROR, "")
    said = dict.fromkeys(range(1, k + 1), "")
    trials = disj_params(n, k)["trials"]
    zeros = 0
    for t in range(trials):
        picks = tape.bitvector(subset_label(t), n)
        rows = tuple(i for i in range(n) if picks[i])
        value = 0
        if rows:
            sub_said, value = reference_gip_call(x, tape, rows, DISJ_SUBCALL_ERROR, f"disj/t{t}/")
            for i, bits in sub_said.items():
                said[i] += bits
        zeros += value == 0
    return said, int(zeros >= DISJ_ZERO_THRESHOLD * trials)


def assert_matches_reference(name, x, tape):
    out = run(spec(name, x.n, x.k), x, tape)
    said, output = reference_run(name, x, tape)
    assert out.transcript.entries == tuple((i, bits) for i, bits in said.items() if bits)
    assert out.output == output


@pytest.mark.parametrize("name, n, k, runs", [("gip", 16, 4, 8), ("gip", 40, 16, 4),
                                               ("disj", 16, 16, 3), ("disj", 8, 3, 8),
                                               ("gip", 6, 70, 8), ("disj", 5, 70, 3)])
def test_gip_and_disj_pieces_match_the_reference_on_seeded_samples(name, n, k, runs):
    rng = np.random.default_rng(43)
    master = RandomTape(master_seed=11)
    for t in range(runs):
        assert_matches_reference(name, random_input(rng, n, k), master.sub(f"{name}{n}x{k}/{t}"))


def feasible(name, n, k):
    try:
        spec(name, n, k)
    except InfeasibleParameters:
        return False
    return True


TINY = [(name, n, k) for name in ("gip", "disj") for n in range(1, 13) for k in range(1, 13)
        if n * k <= 12 and feasible(name, n, k)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TINY), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_gip_and_disj_pieces_match_the_reference_property(shape, seed, input_seed):
    name, n, k = shape
    x = random_input(np.random.default_rng(input_seed), n, k)
    assert_matches_reference(name, x, RandomTape(master_seed=seed))


@pytest.mark.parametrize("name, n, k", [("gip", 16, 4), ("gip", 40, 16), ("mod3", 128, 8),
                                         ("mod3", 6, 4), ("disj", 16, 16), ("disj", 8, 3)])
def test_a_run_reads_each_view_row_at_most_once_per_call(name, n, k, monkeypatch):
    # at most once per run, however many calls and blocks hold the row, and
    # only by players that speak in some block
    p = spec(name, n, k)
    x = random_input(np.random.default_rng(n * k), n, k)
    reads = Counter()
    real = View.masked_row

    def counted(self, row):
        reads[self.player, row] += 1
        return real(self, row)

    monkeypatch.setattr(View, "masked_row", counted)
    tape = RandomTape(master_seed=5)
    run(p, x, tape)
    plan = p.plan(tape)
    # a gip draw is its mask, whose speakers are its zero positions
    speakers = {i for block in plan.blocks for draw in block.draws
                for i in (zero_positions(draw, k) if plan.q == 2 else draw)}
    assert max(reads.values()) == 1
    assert {player for player, _ in reads} == speakers


@pytest.mark.parametrize("name, n, k", [("gip", 16, 4), ("disj", 8, 3), ("mod3", 6, 4)])
def test_the_output_rule_refuses_a_transcript_shorter_than_its_plan(name, n, k):
    # q = 2 (gip, disj) and q = 3 (mod3): one bit short, or a speaker missing
    p = spec(name, n, k)
    tape = RandomTape(master_seed=8)
    entries = run(p, random_input(np.random.default_rng(k), n, k), tape).transcript.entries
    player, bits = entries[-1]
    for short in (entries[:-1] + ((player, bits[:-1]),), entries[:-1]):
        with pytest.raises(ValueError, match="shorter"):
            p.output_rule(Transcript(entries=short), p.plan(tape))


def plan_of_draws(q, draws):
    """A plan whose every draw is a call of its own, one block of one
    repetition, and whose decide returns the calls: each draw's piece sum
    mod q reaches the output. A q = 2 draw is the 2-column mask that is 0
    exactly at the draw's speakers."""
    plan = _Plan(q=q, calls=len(draws), decide=lambda calls: calls)
    for call, draw in enumerate(draws):
        plan.add(call, (0,), 2, [0b11 & ~sum(1 << (i - 1) for i in draw) if q == 2 else draw])
    return plan


# six pieces that alternate between players 2 and 1, player 2 first: one
# speaker a draw, or draws {2}, {1, 2}, {1} and {2, 1}
ALTERNATING = [{2: 0}, {1: 0}, {2: 0}, {1: 0}, {2: 0}, {1: 0}]
INTERLEAVED = [{2: 0}, {1: 0, 2: 0}, {1: 0}, {2: 0, 1: 0}]


def test_the_output_rule_cuts_each_speaker_in_its_plan_order():
    # three pieces per player, player 2's first; a player's bits may span
    # several entries and run past its pieces
    t = Transcript(entries=((1, "10"), (2, "011"), (1, "11")))
    assert _plan_output(t, plan_of_draws(2, ALTERNATING)) == [0, 1, 1, 0, 1, 1]
    t = Transcript(entries=((1, "1000"), (2, "011000"), (1, "01")))
    assert _plan_output(t, plan_of_draws(3, ALTERNATING)) == [1, 2, 2, 0, 0, 1]
    assert _plan_output(t, plan_of_draws(3, INTERLEAVED)) == [1, 1, 0, 1]
    with pytest.raises(ValueError, match="shorter"):
        _plan_output(Transcript(entries=((1, "1000"), (2, "01100"))), plan_of_draws(3, INTERLEAVED))


# The direct vote is checked against core.run for every protocol simulate
# builds with one, found by building each at a shape all three serve, so a
# new fast path joins these tests as soon as its builder sets it.
DIRECT = [name for name, build in PROTOCOL_BUILDERS.items() if build(4, 3).direct_vote is not None]
SAMPLED = {"gip": [(16, 4, 8), (6, 70, 8), (256, 256, 2)],
           "disj": [(16, 16, 3), (8, 3, 8), (5, 70, 3)]}


def assert_direct_vote_is_run(p, x, tape):
    out = run(p, x, tape)
    assert p.direct_vote(p.plan(tape), x) == (out.output, out.cost_bits)


def test_every_direct_vote_has_sampled_shapes():
    assert {"gip", "disj"} <= set(DIRECT) <= set(SAMPLED)


EXHAUSTIVE = [(name, n, k) for name in DIRECT for n in range(1, 9) for k in range(1, 9)
              if n * k <= 8 and feasible(name, n, k)]


@pytest.mark.parametrize("name, n, k", EXHAUSTIVE)
def test_direct_vote_equals_run_on_every_input(name, n, k):
    for seed in (0, 1, 2026):
        tape = RandomTape(master_seed=seed).sub(f"{name}{n}x{k}")
        # the plan is pure in the tape, so every input's run reuses one build
        plan = spec(name, n, k).plan(tape)
        p = replace(spec(name, n, k), plan=lambda _: plan)
        for x in all_inputs(n, k):
            assert_direct_vote_is_run(p, x, tape)


@pytest.mark.parametrize("name, n, k, runs",
                         [(name, *shape) for name in DIRECT for shape in SAMPLED.get(name, ())])
def test_direct_vote_equals_run_on_seeded_samples(name, n, k, runs):
    rng = np.random.default_rng(47)
    master = RandomTape(master_seed=13)
    p = spec(name, n, k)
    for t in range(runs):
        assert_direct_vote_is_run(p, random_input(rng, n, k), master.sub(f"{name}{n}x{k}/{t}"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([shape for shape in SMALL if shape[0] in DIRECT]),
       st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_direct_vote_equals_run_property(shape, seed, input_seed):
    name, n, k = shape
    x = random_input(np.random.default_rng(input_seed), n, k)
    assert_direct_vote_is_run(spec(name, n, k), x, RandomTape(master_seed=seed))

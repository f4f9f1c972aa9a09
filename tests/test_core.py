from fractions import Fraction

import pytest

from nofkit.core import (
    CylinderIntersection,
    ProtocolSpec,
    Transcript,
    all_ones_cylinder,
    amplify,
    decompose_to_cylinders,
    plurality,
    run,
)
from nofkit.matrices import InputMatrix
from nofkit.tape import RandomTape


def M(*rows):
    return InputMatrix.from_bits(rows)


def and_protocol():
    """n=1, k=2: each player announces the other's bit; output = AND."""

    def message_rule(i, view, prefix, tape, ns):
        return str(view.bit(0, 3 - i))

    def output_rule(transcript, tape, ns):
        return int(transcript.player_bits(1) == "1" and transcript.player_bits(2) == "1")

    return ProtocolSpec(
        family="and",
        n=1,
        k=2,
        error=0.0,
        simultaneous=True,
        deterministic=True,
        message_rule=message_rule,
        output_rule=output_rule,
        length_rule=lambda i, tape, ns: 1,
        cost_ceiling=2,
    )


def noisy_and_protocol(err_num: int, err_den: int):
    """Like and_protocol but the referee flips the answer with probability
    err_num/err_den using a tape draw namespaced per repetition."""
    base = and_protocol()

    def output_rule(transcript, tape, ns):
        val = base.output_rule(transcript, tape, ns)
        flip = tape.randbelow(f"{ns}flip", err_den) < err_num
        return val ^ int(flip)

    return ProtocolSpec(
        family="noisy-and",
        n=1,
        k=2,
        error=err_num / err_den,
        simultaneous=True,
        deterministic=False,
        message_rule=base.message_rule,
        output_rule=output_rule,
        length_rule=base.length_rule,
        cost_ceiling=2,
    )


def test_run_produces_transcript_and_cost():
    out = run(and_protocol(), M([1, 1]), RandomTape(0))
    assert out.output == 1
    assert out.cost_bits == 2
    assert out.transcript.entries == ((1, "1"), (2, "1"))


def test_run_rejects_wrong_shape():
    with pytest.raises(ValueError):
        run(and_protocol(), M([1, 1, 0]), RandomTape(0))


def test_run_validates_messages_and_output():
    bad_bits = ProtocolSpec(
        family="bad", n=1, k=1, error=0.0, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t, ns: "2",
        output_rule=lambda tr, t, ns: 0,
    )
    with pytest.raises(ValueError, match="non-bit"):
        run(bad_bits, M([1]), RandomTape(0))

    bad_len = ProtocolSpec(
        family="bad", n=1, k=1, error=0.0, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t, ns: "01",
        output_rule=lambda tr, t, ns: 0,
        length_rule=lambda i, t, ns: 1,
    )
    with pytest.raises(ValueError, match="length rule"):
        run(bad_len, M([1]), RandomTape(0))

    bad_out = ProtocolSpec(
        family="bad", n=1, k=1, error=0.0, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t, ns: "",
        output_rule=lambda tr, t, ns: 2,
    )
    with pytest.raises(ValueError, match="output"):
        run(bad_out, M([1]), RandomTape(0))


def test_empty_messages_leave_no_entry():
    quiet = ProtocolSpec(
        family="quiet", n=1, k=3, error=0.0, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t, ns: "1" if i == 2 else "",
        output_rule=lambda tr, t, ns: 1,
    )
    out = run(quiet, M([0, 0, 0]), RandomTape(0))
    assert out.transcript.entries == ((2, "1"),)
    assert out.cost_bits == 1


def test_simultaneous_players_see_empty_prefix():
    seen = []

    def message_rule(i, view, prefix, tape, ns):
        seen.append((i, prefix))
        return "0"

    p = ProtocolSpec(
        family="spy", n=1, k=3, error=0.0, simultaneous=True, deterministic=True,
        message_rule=message_rule, output_rule=lambda tr, t, ns: 0,
    )
    run(p, M([1, 1, 1]), RandomTape(0))
    assert seen == [(1, ()), (2, ()), (3, ())]


def test_sequential_players_see_growing_prefix():
    seen = []

    def message_rule(i, view, prefix, tape, ns):
        seen.append((i, prefix))
        return "1"

    p = ProtocolSpec(
        family="seq", n=1, k=2, error=0.0, simultaneous=False, deterministic=True,
        message_rule=message_rule, output_rule=lambda tr, t, ns: 0,
    )
    run(p, M([1, 1]), RandomTape(0))
    assert seen == [(1, ()), (2, ((1, "1"),))]


def test_transcript_player_bits_concatenates_in_order():
    t = Transcript(entries=((1, "10"), (2, "0"), (1, "11")))
    assert t.player_bits(1) == "1011"
    assert t.cost_bits == 5


def test_amplify_requires_odd_t_and_length_rule():
    with pytest.raises(ValueError):
        amplify(and_protocol(), 2)
    lame = ProtocolSpec(
        family="l", n=1, k=1, error=0.0, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t, ns: "",
        output_rule=lambda tr, t, ns: 0,
    )
    with pytest.raises(ValueError):
        amplify(lame, 3)


def test_amplify_t1_is_identity():
    p = and_protocol()
    assert amplify(p, 1) is p


def test_amplify_splits_concatenated_messages_correctly():
    p = amplify(and_protocol(), 5)
    assert p.cost_ceiling == 10
    for code in range(4):
        x = InputMatrix.from_code(1, 2, code)
        out = run(p, x, RandomTape(3))
        assert out.output == (1 if code == 3 else 0)
        assert out.cost_bits == 10


def test_amplify_majority_hits_exact_tail():
    # base error exactly 1/3; 3 reps -> majority wrong w.p. 7/27
    p = amplify(noisy_and_protocol(1, 3), 3)
    master = RandomTape(17)
    trials = 3000
    wrong = 0
    x = M([1, 1])
    for t in range(trials):
        wrong += run(p, x, master.sub(f"t{t}")).output == 0
    rate = wrong / trials
    assert abs(rate - 7 / 27) < 0.03


def test_amplify_error_decreases_with_reps():
    master = RandomTape(23)
    x = M([1, 1])
    rates = []
    for t in (1, 5, 11):
        p = amplify(noisy_and_protocol(1, 3), t)
        wrong = sum(run(p, x, master.sub(f"{t}/{i}")).output == 0 for i in range(800))
        rates.append(wrong / 800)
    assert rates[0] > rates[1] > rates[2]


def test_plurality_is_majority_for_odd_binary_votes():
    for t in (1, 3, 5, 7):
        for code in range(1 << t):
            votes = [(code >> j) & 1 for j in range(t)]
            assert plurality(votes, 2) == (1 if 2 * sum(votes) > t else 0)


def test_plurality_breaks_ties_toward_the_smallest_value():
    assert plurality([2, 1], 3) == 1
    assert plurality([2, 0, 1], 3) == 0
    assert plurality([2, 2, 1, 1, 0], 3) == 1
    assert plurality([2, 2, 1], 3) == 2
    assert plurality([], 3) == 0


def test_cylinder_evaluate_ignores_unconstrained_players():
    chi = all_ones_cylinder(2, 3)
    assert chi.evaluate(M([1, 0, 1], [0, 0, 0])) == 1


def test_decompose_reconstructs_protocol_pointwise():
    p = and_protocol()
    terms = decompose_to_cylinders(p)
    assert len(terms) <= 1 << p.cost_ceiling
    tape = RandomTape(0)
    for code in range(4):
        x = InputMatrix.from_code(1, 2, code)
        got = sum(a * chi.evaluate(x) for a, chi in terms)
        assert got == run(p, x, tape).output
    for _, chi in terms:
        assert len(chi.players) <= min(p.cost_ceiling, p.k)


def test_decompose_rejects_randomized_protocols():
    with pytest.raises(ValueError):
        decompose_to_cylinders(noisy_and_protocol(1, 3))


def test_decompose_cap():
    with pytest.raises(ValueError, match="cap"):
        decompose_to_cylinders(and_protocol(), cap=2)

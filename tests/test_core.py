import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit.core import (
    CylinderIntersection,
    ProtocolSpec,
    Transcript,
    all_ones_cylinder,
    decompose_to_cylinders,
    plurality,
    run,
)
from nofkit.harness import _announce_protocol, _constant_protocol
from nofkit.matrices import InputMatrix, all_inputs
from nofkit.tape import RandomTape


def M(*rows):
    return InputMatrix.from_bits(rows)


def and_protocol():
    """n=1, k=2: each player announces the other's bit; output = AND."""

    def message_rule(i, view, prefix, tape):
        return str(view.bit(0, 3 - i))

    def output_rule(transcript, tape):
        return int(transcript.player_bits(1) == "1" and transcript.player_bits(2) == "1")

    return ProtocolSpec(
        n=1,
        k=2,
        simultaneous=True,
        deterministic=True,
        message_rule=message_rule,
        output_rule=output_rule,
        length_rule=lambda i, tape: 1,
        cost_ceiling=2,
    )


def noisy_and_protocol(err_num: int, err_den: int):
    """Like and_protocol but the referee flips the answer with probability
    err_num/err_den using one tape draw."""
    base = and_protocol()

    def output_rule(transcript, tape):
        val = base.output_rule(transcript, tape)
        flip = tape.randbelow("flip", err_den) < err_num
        return val ^ int(flip)

    return ProtocolSpec(
        n=1,
        k=2,
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
        n=1, k=1, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t: "2",
        output_rule=lambda tr, t: 0,
    )
    with pytest.raises(ValueError, match="non-bit"):
        run(bad_bits, M([1]), RandomTape(0))

    bad_len = ProtocolSpec(
        n=1, k=1, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t: "01",
        output_rule=lambda tr, t: 0,
        length_rule=lambda i, t: 1,
    )
    with pytest.raises(ValueError, match="length rule"):
        run(bad_len, M([1]), RandomTape(0))

    bad_out = ProtocolSpec(
        n=1, k=1, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t: "",
        output_rule=lambda tr, t: 2,
    )
    with pytest.raises(ValueError, match="output"):
        run(bad_out, M([1]), RandomTape(0))


def test_empty_messages_leave_no_entry():
    quiet = ProtocolSpec(
        n=1, k=3, simultaneous=True, deterministic=True,
        message_rule=lambda i, v, pre, t: "1" if i == 2 else "",
        output_rule=lambda tr, t: 1,
    )
    out = run(quiet, M([0, 0, 0]), RandomTape(0))
    assert out.transcript.entries == ((2, "1"),)
    assert out.cost_bits == 1


def test_simultaneous_players_see_empty_prefix():
    seen = []

    def message_rule(i, view, prefix, tape):
        seen.append((i, prefix))
        return "0"

    p = ProtocolSpec(
        n=1, k=3, simultaneous=True, deterministic=True,
        message_rule=message_rule, output_rule=lambda tr, t: 0,
    )
    run(p, M([1, 1, 1]), RandomTape(0))
    assert seen == [(1, ()), (2, ()), (3, ())]


def test_sequential_players_see_growing_prefix():
    seen = []

    def message_rule(i, view, prefix, tape):
        seen.append((i, prefix))
        return "1"

    p = ProtocolSpec(
        n=1, k=2, simultaneous=False, deterministic=True,
        message_rule=message_rule, output_rule=lambda tr, t: 0,
    )
    run(p, M([1, 1]), RandomTape(0))
    assert seen == [(1, ()), (2, ((1, "1"),))]


def test_transcript_player_bits_concatenates_in_order():
    t = Transcript(entries=((1, "10"), (2, "0"), (1, "11")))
    assert t.player_bits(1) == "1011"
    assert t.cost_bits == 5


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


def test_cylinders_compare_equal_and_hash():
    chi = CylinderIntersection(n=1, k=2, players=(1,), tables=(0b10,))
    twin = CylinderIntersection(n=1, k=2, players=(1,), tables=(0b10,))
    assert chi == twin and hash(chi) == hash(twin)
    assert chi != CylinderIntersection(n=1, k=2, players=(1,), tables=(0b01,))
    # player 1 sees column 2: only inputs with x_2 = 1 pass
    assert [chi.evaluate(InputMatrix.from_code(1, 2, c)) for c in range(4)] == [0, 0, 1, 1]
    terms = decompose_to_cylinders(and_protocol())
    assert len(set(terms)) == len(terms)


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


def relay_protocol():
    """n=2, k=3, sequential: player 1 says x[0][2] ^ x[1][3]; player 2 says
    that bit AND x[1][1], reading it off the blackboard; output = player 2's bit."""

    def message_rule(i, view, prefix, tape):
        if i == 1:
            return str(view.bit(0, 2) ^ view.bit(1, 3))
        if i == 2:
            return str(int(prefix[0][1]) & view.bit(1, 1))
        return ""

    return ProtocolSpec(
        n=2,
        k=3,
        simultaneous=False,
        deterministic=True,
        message_rule=message_rule,
        output_rule=lambda transcript, tape: int(transcript.player_bits(2)),
        length_rule=lambda i, tape: 1 if i < 3 else 0,
        cost_ceiling=2,
    )


@pytest.mark.parametrize(
    "protocol, want",
    [
        (
            _announce_protocol(2),
            [(0, (1,), (1,)), (1, (1,), (2,)), (1, (1,), (4,)), (0, (1,), (8,))],
        ),
        (
            _announce_protocol(3),
            [(0, (1,), (1,)), (1, (1,), (2,)), (1, (1,), (4,)), (0, (1,), (8,)),
             (1, (1,), (16,)), (0, (1,), (32,)), (0, (1,), (64,)), (1, (1,), (128,))],
        ),
        (_constant_protocol(2, 2, 0), [(0, (), ())]),
        (_constant_protocol(1, 3, 1), [(1, (), ())]),
        (
            and_protocol(),
            [(0, (1, 2), (1, 1)), (0, (1, 2), (1, 2)), (0, (1, 2), (2, 1)), (1, (1, 2), (2, 2))],
        ),
        (
            relay_protocol(),
            [(0, (1,), (43605,)), (0, (1, 2), (21930, 13107)), (1, (1, 2), (21930, 52428))],
        ),
    ],
    ids=["announce2", "announce3", "constant0", "constant1", "and", "relay"],
)
def test_decompose_terms_are_pinned(protocol, want):
    terms = decompose_to_cylinders(protocol)
    assert [(a, chi.players, chi.tables) for a, chi in terms] == want
    assert all((chi.n, chi.k) == (protocol.n, protocol.k) for _, chi in terms)


def speaking_protocol(speaks, n, k):
    """A deterministic simultaneous n x k protocol whose players send
    speaks(i, view) and whose output is 0."""
    return ProtocolSpec(
        n=n, k=k, simultaneous=True, deterministic=True,
        message_rule=lambda i, view, prefix, tape: speaks(i, view),
        output_rule=lambda transcript, tape: 0,
    )


def test_decompose_rejects_more_transcripts_than_two_to_the_cost():
    # player 1 sends "", "0" or "1" by its view: 3 transcripts of cost 1
    p = speaking_protocol(lambda i, view: ["", "0", "1", "1"][view.encode()] if i == 1 else "", 2, 2)
    with pytest.raises(ValueError, match=r"more transcripts than 2\^cost"):
        decompose_to_cylinders(p)


def test_decompose_rejects_a_transcript_constraining_more_than_min_cost_k_players():
    # player i sends "11" iff x_(i+1) = 1 and x_(i+2) = 0, around the circle,
    # where neither other player can: 4 transcripts of cost 2, and the silent
    # one constrains all 3 players
    def speaks(i, view):
        after, next_after = i % 3 + 1, (i + 1) % 3 + 1
        return "11" if view.bit(0, after) and not view.bit(0, next_after) else ""

    with pytest.raises(ValueError, match="constrains more players than min"):
        decompose_to_cylinders(speaking_protocol(speaks, 1, 3))


def test_decompose_rejects_transcripts_that_do_not_partition_the_domain():
    # each player announces the other's bit AND NOT its own, read off the
    # source: input 11 sends 00, but decompose reads each view with its hidden
    # bit 0, where that player sends 1, so 11 lies in no term
    def speaks(i, view):
        return str(view.bit(0, 3 - i) & (1 - view.source.bit(0, i)))

    with pytest.raises(ValueError, match="do not partition the domain"):
        decompose_to_cylinders(speaking_protocol(speaks, 1, 2))


def table_protocol(n, k, simultaneous, seed):
    """A deterministic protocol drawn from seed: player i sends a fixed
    0-2 bits, looked up by its view index and, when sequential, its
    blackboard; the output is looked up by the transcript."""
    lengths = [random.Random(f"{seed}:len:{i}").randrange(3) for i in range(1, k + 1)]

    def message_rule(i, view, prefix, tape):
        bits = random.Random(f"{seed}:msg:{i}:{view.encode()}:{prefix}").getrandbits(2)
        return format(bits, "02b")[2 - lengths[i - 1]:]

    def output_rule(transcript, tape):
        return random.Random(f"{seed}:out:{transcript.entries}").randrange(2)

    return ProtocolSpec(
        n=n, k=k, simultaneous=simultaneous, deterministic=True,
        message_rule=message_rule, output_rule=output_rule,
        length_rule=lambda i, tape: lengths[i - 1],
    )


SMALL_SHAPES = [(n, k) for n in range(1, 7) for k in range(1, 7) if n * k <= 6]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.booleans(), st.integers(0, 2**32 - 1))
def test_decompose_matches_run_on_random_small_protocols(shape, simultaneous, seed):
    p = table_protocol(*shape, simultaneous, seed)
    terms = decompose_to_cylinders(p)
    tape = RandomTape(0)
    transcripts = set()
    for x in all_inputs(*shape):
        out = run(p, x, tape)
        transcripts.add(out.transcript.entries)
        hits = [a for a, chi in terms if chi.evaluate(x)]
        assert hits == [out.output]
    assert len(terms) == len(transcripts)
    cost = max(Transcript(entries=key).cost_bits for key in transcripts)
    assert len(terms) <= 1 << cost

"""Protocol execution model.

A protocol is a single pass over players 1..k in increasing order. Each player
contributes one (possibly empty) bit string to a public blackboard; the output
is then a function of the blackboard and the shared tape alone. Message rules
see their player's View, the entries already on the blackboard (always empty
for protocols declared simultaneous) and the tape (or the run's plan, see
ProtocolSpec). A run's only randomness is its tape; runs that must be
independent take tapes derived with ``tape.sub(label)``.

Message lengths must not depend on the input: protocols declare a length_rule
(player, tape) -> bits so that a message made of several pieces can be
split deterministically. Every built-in protocol satisfies this; it is also
what makes the cost accounting meaningful, since an input-dependent length
would smuggle information around the bit count. Repetition and voting live
in the protocols' plans (``protocols``), and ``plurality`` is their vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .matrices import InputMatrix, View, all_inputs, player_view
from .tape import RandomTape

TranscriptEntry = tuple[int, str]
MessageRule = Callable[[int, View, tuple[TranscriptEntry, ...], Any], str]
OutputRule = Callable[["Transcript", Any], int]  # Any: the tape, or the plan
LengthRule = Callable[[int, Any], int]


@dataclass(frozen=True)
class Transcript:
    """Blackboard content: (player, bits) entries in speaking order.

    Players with empty messages contribute no entry. Cost is the total number
    of broadcast bits.
    """

    entries: tuple[TranscriptEntry, ...]

    @property
    def cost_bits(self) -> int:
        return sum(len(bits) for _, bits in self.entries)

    def player_bits(self, player: int) -> str:
        return "".join(bits for p, bits in self.entries if p == player)


@dataclass(frozen=True)
class ProtocolOutcome:
    output: int
    transcript: Transcript
    cost_bits: int


@dataclass(frozen=True)
class ProtocolSpec:
    """A k-party protocol for n x k inputs.

    cost_ceiling is the declared worst-case bit count over all tape draws.
    deterministic protocols must ignore the tape entirely (that is what
    makes them eligible for cylinder decomposition).

    plan, when set, builds the input-independent part of one run (the shared
    draws of a public-coin protocol) from the tape. run() builds it once,
    and the rules receive it where callback protocols receive the tape.

    direct_vote, when set, maps (plan, input) to the (output, cost_bits)
    that run() gives on the same plan, without building any message: the
    fast trial path of a harness that keeps nothing else of a run. run()
    stays the oracle it is tested against.
    """

    n: int
    k: int
    simultaneous: bool
    deterministic: bool
    message_rule: MessageRule
    output_rule: OutputRule
    length_rule: Optional[LengthRule] = None
    cost_ceiling: Optional[int] = None
    plan: Optional[Callable[[RandomTape], Any]] = None
    direct_vote: Optional[Callable[[Any, InputMatrix], tuple[int, int]]] = None


def rule_context(p: ProtocolSpec, tape: RandomTape) -> Any:
    """What p's rules receive for one run on this tape: its plan, built
    here, or the tape itself when p has no plan."""
    return tape if p.plan is None else p.plan(tape)


def run(p: ProtocolSpec, x: InputMatrix, tape: RandomTape) -> ProtocolOutcome:
    """Execute one protocol instance. Pure in (p, x, tape).

    This is the scalar path and the oracle of every fast one: simulate's
    trials take ``p.direct_vote`` where the spec sets one (gip and disj,
    whose vote per mask d is the telescoped m(full) + m(d) mod 2), which
    must give this run's output and cost_bits. mod3 trials still run here;
    they join once the benchmark's traced pass stops pinning their run and
    message counts."""
    if x.n != p.n or x.k != p.k:
        raise ValueError(f"input is {x.n}x{x.k}, protocol wants {p.n}x{p.k}")
    ctx = rule_context(p, tape)
    entries: list[TranscriptEntry] = []
    for i in range(1, p.k + 1):
        prefix = () if p.simultaneous else tuple(entries)
        msg = p.message_rule(i, player_view(x, i), prefix, ctx)
        if set(msg) - {"0", "1"}:
            raise ValueError(f"player {i} produced non-bit message {msg!r}")
        if p.length_rule is not None:
            want = p.length_rule(i, ctx)
            if len(msg) != want:
                raise ValueError(
                    f"player {i} sent {len(msg)} bits, length rule declares {want}"
                )
        if msg:
            entries.append((i, msg))
    transcript = Transcript(entries=tuple(entries))
    output = p.output_rule(transcript, ctx)
    if output not in (0, 1):
        raise ValueError(f"output rule produced {output!r}")
    return ProtocolOutcome(output=output, transcript=transcript, cost_bits=transcript.cost_bits)


def plurality(values: Iterable[int], q: int) -> int:
    """The most frequent value in range(q), the smallest on ties: the one
    vote of the package. For q = 2 and an odd count it is the majority."""
    counts = [0] * q
    for v in values:
        counts[v] += 1
    return counts.index(max(counts))


# ---------------------------------------------------------------------------
# cylinder intersections and the transcript decomposition


@dataclass(frozen=True)
class CylinderIntersection:
    """Product of per-player indicators: chi(x) = prod_{i in S} table_i[view_i(x)].

    table_i is a bitmask over View.encode() of player i, i.e. the joint
    assignment of all columns except i: bit v set means view v passes. An
    empty S is the constant-1 cylinder.
    """

    n: int
    k: int
    players: tuple[int, ...]
    tables: tuple[int, ...]  # view bitmasks, aligned with players

    def evaluate(self, x: InputMatrix) -> int:
        for i, table in zip(self.players, self.tables):
            if not (table >> player_view(x, i).encode()) & 1:
                return 0
        return 1


def all_ones_cylinder(n: int, k: int) -> CylinderIntersection:
    return CylinderIntersection(n=n, k=k, players=(), tables=())


DEFAULT_DECOMPOSE_CAP = 1 << 16


def decompose_to_cylinders(
    p: ProtocolSpec, cap: int = DEFAULT_DECOMPOSE_CAP
) -> list[tuple[int, CylinderIntersection]]:
    """Write a deterministic protocol as sum_t a_t * chi_t over its transcripts.

    One walk of the n x k domain maps each transcript to its output. Each
    transcript gives a cylinder: player i's table accepts a view iff i would
    send its message in it on the blackboard read off it (none if the
    protocol is simultaneous, else its entries before i). Players whose
    table accepts everything are dropped. The result satisfies, for every x,

        sum over terms of a_t * chi_t(x) == protocol output on x,

    with at most 2^cost terms, each constraining at most min(cost, k) players.
    """
    if not p.deterministic:
        raise ValueError("decomposition needs a deterministic protocol")
    n, k = p.n, p.k
    if 1 << (n * k) > cap:
        raise ValueError(f"domain 2^{n * k} exceeds cap {cap}")

    tape = RandomTape(0)  # deterministic protocols never touch it
    ctx = rule_context(p, tape)
    outputs: dict[tuple[TranscriptEntry, ...], int] = {}  # in first-seen order
    # per player, the first view in code order with each index: the hidden
    # column of its input is all zeros
    shown: dict[int, dict[int, View]] = {i: {} for i in range(1, k + 1)}
    view_idx: list[tuple[int, ...]] = []  # per input, every player's view index
    for x in all_inputs(n, k):
        views = [player_view(x, i) for i in shown]
        view_idx.append(tuple(v.encode() for v in views))
        for i, v, idx in zip(shown, views, view_idx[-1]):
            shown[i].setdefault(idx, v)
        out = run(p, x, tape)
        outputs[out.transcript.entries] = out.output

    cost = max(Transcript(entries=key).cost_bits for key in outputs)
    if len(outputs) > 2**cost:
        raise ValueError("more transcripts than 2^cost; protocol is ill-formed")

    view_size = 1 << (n * (k - 1))
    terms: list[tuple[int, CylinderIntersection]] = []
    for key, output in outputs.items():
        said = dict(key)
        players = []
        tables = []
        for i in range(1, k + 1):
            board = () if p.simultaneous else tuple(e for e in key if e[0] < i)
            table = 0
            # consistency of player i with this transcript, view by view
            for idx in range(view_size):
                if p.message_rule(i, shown[i][idx], board, ctx) == said.get(i, ""):
                    table |= 1 << idx
            if table != (1 << view_size) - 1:
                players.append(i)
                tables.append(table)
        if len(players) > min(cost, k):
            raise ValueError(
                "transcript constrains more players than min(cost, k); "
                "message lengths leak input bits"
            )
        chi = CylinderIntersection(n=n, k=k, players=tuple(players), tables=tuple(tables))
        terms.append((output, chi))

    # every input must lie in exactly one term, which makes sum a_t * chi_t
    # reproduce the output pointwise; membership looks up its view indices
    for idx in view_idx:
        members = (all(t >> idx[i - 1] & 1 for i, t in zip(c.players, c.tables)) for _, c in terms)
        if sum(members) != 1:
            raise ValueError("transcripts do not partition the domain; protocol is ill-formed")
    return terms

"""Protocol execution model.

A protocol is a single pass over players 1..k in increasing order. Each player
contributes one (possibly empty) bit string to a public blackboard; the output
is then a function of the blackboard and the shared tape alone. Message rules
see their player's View, the entries already on the blackboard (always empty
for protocols declared simultaneous), the tape, and a namespace string that
keeps nested draws independent.

Message lengths must not depend on the input: protocols declare a length_rule
(player, tape, ns) -> bits so that concatenated repetitions can be split
deterministically. Every built-in protocol satisfies this; it is also what
makes the cost accounting meaningful, since an input-dependent length would
smuggle information around the bit count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .matrices import InputMatrix, View, player_view
from .tape import RandomTape

TranscriptEntry = tuple[int, str]
MessageRule = Callable[[int, View, tuple[TranscriptEntry, ...], RandomTape, str], str]
OutputRule = Callable[["Transcript", RandomTape, str], int]
LengthRule = Callable[[int, RandomTape, str], int]


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

    error is the designed worst-case failure probability over the tape;
    cost_ceiling the declared worst-case bit count over all tape draws.
    deterministic protocols must ignore the tape entirely (that is what
    makes them eligible for cylinder decomposition).
    """

    family: str
    n: int
    k: int
    error: float
    simultaneous: bool
    deterministic: bool
    message_rule: MessageRule
    output_rule: OutputRule
    length_rule: Optional[LengthRule] = None
    cost_ceiling: Optional[int] = None


def run(p: ProtocolSpec, x: InputMatrix, tape: RandomTape, ns: str = "") -> ProtocolOutcome:
    """Execute one protocol instance. Pure in (p, x, tape, ns)."""
    if x.n != p.n or x.k != p.k:
        raise ValueError(f"input is {x.n}x{x.k}, protocol wants {p.n}x{p.k}")
    entries: list[TranscriptEntry] = []
    for i in range(1, p.k + 1):
        prefix = () if p.simultaneous else tuple(entries)
        msg = p.message_rule(i, player_view(x, i), prefix, tape, ns)
        if set(msg) - {"0", "1"}:
            raise ValueError(f"player {i} produced non-bit message {msg!r}")
        if p.length_rule is not None:
            want = p.length_rule(i, tape, ns)
            if len(msg) != want:
                raise ValueError(
                    f"player {i} sent {len(msg)} bits, length rule declares {want}"
                )
        if msg:
            entries.append((i, msg))
    transcript = Transcript(entries=tuple(entries))
    output = p.output_rule(transcript, tape, ns)
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


def amplify(p: ProtocolSpec, t: int) -> ProtocolSpec:
    """Majority vote over t independent repetitions.

    t must be odd; t=1 returns p unchanged. Each repetition r draws its
    randomness under the namespace "rep{r}/", so repetitions are independent
    and any player can re-derive the split points from the tape.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be odd and >= 1")
    if t == 1:
        return p
    if p.length_rule is None:
        raise ValueError("amplify needs a protocol with a declared length rule")

    base = p

    def message_rule(i, view, prefix, tape, ns):
        return "".join(base.message_rule(i, view, prefix, tape, f"{ns}rep{r}/") for r in range(t))

    def length_rule(i, tape, ns):
        return sum(base.length_rule(i, tape, f"{ns}rep{r}/") for r in range(t))

    def output_rule(transcript, tape, ns):
        per_player = {i: transcript.player_bits(i) for i in range(1, base.k + 1)}
        offsets = dict.fromkeys(per_player, 0)
        votes = []
        for r in range(t):
            rep_ns = f"{ns}rep{r}/"
            entries = []
            for i in range(1, base.k + 1):
                ln = base.length_rule(i, tape, rep_ns)
                if ln:
                    piece = per_player[i][offsets[i] : offsets[i] + ln]
                    offsets[i] += ln
                    entries.append((i, piece))
            votes.append(base.output_rule(Transcript(entries=tuple(entries)), tape, rep_ns))
        return plurality(votes, 2)

    return ProtocolSpec(
        family=base.family,
        n=base.n,
        k=base.k,
        error=base.error,  # callers account for the amplified error themselves
        simultaneous=base.simultaneous,
        deterministic=base.deterministic,
        message_rule=message_rule,
        output_rule=output_rule,
        length_rule=length_rule,
        cost_ceiling=None if base.cost_ceiling is None else t * base.cost_ceiling,
    )


# ---------------------------------------------------------------------------
# cylinder intersections and the transcript decomposition


@dataclass(frozen=True)
class CylinderIntersection:
    """Product of per-player indicators: chi(x) = prod_{i in S} table_i[view_i(x)].

    table_i is indexed by View.encode() of player i, i.e. the joint assignment
    of all columns except i. An empty S is the constant-1 cylinder.
    """

    n: int
    k: int
    players: tuple[int, ...]
    tables: tuple[np.ndarray, ...]  # uint8 arrays, aligned with players

    def evaluate(self, x: InputMatrix) -> int:
        for i, table in zip(self.players, self.tables):
            if not table[player_view(x, i).encode()]:
                return 0
        return 1


def all_ones_cylinder(n: int, k: int) -> CylinderIntersection:
    return CylinderIntersection(n=n, k=k, players=(), tables=())


DEFAULT_DECOMPOSE_CAP = 1 << 16


def decompose_to_cylinders(
    p: ProtocolSpec, cap: int = DEFAULT_DECOMPOSE_CAP
) -> list[tuple[int, CylinderIntersection]]:
    """Write a deterministic protocol as sum_t a_t * chi_t over its transcripts.

    Enumerates the whole n x k domain, groups inputs by transcript, and builds
    one cylinder per transcript from per-player consistency tables: player i's
    table accepts a view iff i would reproduce its transcript messages given
    the on-blackboard prefix. Players whose table accepts everything are
    dropped. The result satisfies, for every input x,

        sum over terms of a_t * chi_t(x) == protocol output on x,

    with at most 2^cost terms, each constraining at most min(cost, k) players.
    """
    if not p.deterministic:
        raise ValueError("decomposition needs a deterministic protocol")
    n, k = p.n, p.k
    domain_size = 1 << (n * k)
    if domain_size > cap:
        raise ValueError(f"domain 2^{n * k} exceeds cap {cap}")

    tape = RandomTape(0)  # deterministic protocols never touch it
    by_transcript: dict[tuple[TranscriptEntry, ...], list[int]] = {}
    outputs: dict[tuple[TranscriptEntry, ...], int] = {}
    for code in range(domain_size):
        x = InputMatrix.from_code(n, k, code)
        out = run(p, x, tape)
        key = out.transcript.entries
        by_transcript.setdefault(key, []).append(code)
        outputs[key] = out.output

    cost = max(Transcript(entries=key).cost_bits for key in by_transcript)
    if len(by_transcript) > 2**cost:
        raise ValueError("more transcripts than 2^cost; protocol is ill-formed")

    view_size = 1 << (n * (k - 1))
    terms: list[tuple[int, CylinderIntersection]] = []
    for key in by_transcript:
        prefix_of: dict[int, tuple[TranscriptEntry, ...]] = {}
        seen: list[TranscriptEntry] = []
        said = dict.fromkeys(range(1, k + 1), "")
        for player, bits in key:
            said[player] = bits
        for i in range(1, k + 1):
            prefix_of[i] = () if p.simultaneous else tuple(seen)
            if said[i]:
                seen.append((i, said[i]))

        players = []
        tables = []
        for i in range(1, k + 1):
            table = np.zeros(view_size, dtype=np.uint8)
            # consistency of player i with this transcript, view by view;
            # the hidden column is irrelevant so any filler works
            for idx in range(view_size):
                v = player_view(_matrix_with_view(n, k, i, idx), i)
                if p.message_rule(i, v, prefix_of[i], tape, "") == said[i]:
                    table[idx] = 1
            if not table.all():
                players.append(i)
                tables.append(table)
        if len(players) > min(cost, k):
            raise ValueError(
                "transcript constrains more players than min(cost, k); "
                "message lengths leak input bits"
            )
        chi = CylinderIntersection(n=n, k=k, players=tuple(players), tables=tuple(tables))
        terms.append((outputs[key], chi))

    # every input must be consistent with exactly one transcript, which also
    # makes sum a_t * chi_t reproduce the protocol output pointwise
    for code in range(domain_size):
        x = InputMatrix.from_code(n, k, code)
        if sum(chi.evaluate(x) for _, chi in terms) != 1:
            raise ValueError("transcripts do not partition the domain; protocol is ill-formed")
    return terms


def _matrix_with_view(n: int, k: int, player: int, idx: int) -> InputMatrix:
    """A matrix whose visible columns for ``player`` decode ``idx`` (View.encode
    order: visible columns ascending, n bits each); the hidden column is 0."""
    rows = [0] * n
    t = 0
    for col in range(1, k + 1):
        if col == player:
            continue
        for r in range(n):
            rows[r] |= ((idx >> (t * n + r)) & 1) << (col - 1)
        t += 1
    return InputMatrix(k=k, rows=tuple(rows))

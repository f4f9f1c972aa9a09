"""The three randomized protocols, with bit-exact cost accounting.

All three factories return a ProtocolSpec whose per-execution structure (which
player speaks how many bits, and what each bit means) is derived from the tape
alone, never from the input. Each spec's ``plan`` describes one run as flat
data, built in one pass over the layout and the tape: its row blocks (row
ids, width, call and one draw per repetition). ``core.run`` builds it once
per run and hands it to one message, one length and one output rule shared
by all three protocols, which read nothing else; that keeps the transcript
splittable and the declared cost ceilings honest.
gip and disj also set a direct vote, ``plan_outcome``: the same output and
cost read off the same plan and the whole input, with no transcript, for
trials that keep nothing else. Every reader walks the blocks and their
draws in (call, block, repetition) order, a speaker's message order, and
the output rule and ``plan_outcome`` both vote through ``_vote``. What
(n, k, eps) alone fixes of a run is one memoized ``Layout``
record from ``layout``: the plans, the cost ceilings, the ``*_params``
views and the harness all read it.

gip_protocol    parity of all-ones rows. Samples a row mask with few zeros;
                the players sitting at the zero positions each broadcast one
                parity bit, and the XOR of the broadcasts telescopes to the
                all-ones row count mod 2 unless some input row equals the
                mask. Rows are split into blocks when 2^k < 3n, and every
                block is repeated for a majority vote. A draw is the mask d
                as one int: player i speaks iff bit i-1 of d is 0, and its
                bit counts, mod 2, its masked block rows equal to d with
                the columns above i set. The XOR is m(full) + m(d) mod 2
                (Grolmusz 1994), m counting the block's row values: the
                direct vote.

disj_protocol   set disjointness. Estimates P over random row subsets S of
                [gip on the S-rows = 0]: exactly 1 when the columns are
                disjoint and 1/2 otherwise; declares disjoint when at least
                3/4 of the subcalls answer zero. A subcall on r rows reads
                ``layout("gip", r, k, 1/16)``, looked up once per row count
                and protocol build; disj's own record holds the
                full-row subcall's blocks, with the trials as its calls.

mod3_protocol   1 iff the sum of row XORs is divisible by 3. Broadcasts the
                GF(3) sum of a degree-(k-1) polynomial that agrees with XOR
                everywhere except at a secret point, two bits per player.
                The polynomial's coefficients have a closed form, and each
                player's share of it is tabulated once per point (a GF(3)
                subset-sum table), so a message costs one table lookup per
                block row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import compress
from fractions import Fraction
from math import ceil, log
from typing import Callable, Optional, Sequence, Union

from .combinatorics import binom_leq, smallest_odd_majority, unrank_band_row
from .core import ProtocolSpec, Transcript, plurality
from .matrices import InputMatrix, View
from .tape import RandomTape

Rational = Union[int, float, Fraction]

DEFAULT_ERROR = Fraction(1, 3)
GIP_BASE_ERROR = Fraction(1, 3)  # per-mask collision budget the blocks are sized for
DISJ_SUBCALL_ERROR = Fraction(1, 16)
DISJ_ZERO_THRESHOLD = Fraction(3, 4)
DISJ_GAP = Fraction(3, 16)  # distance from 15/16 and 9/16 to the threshold


class InfeasibleParameters(ValueError):
    """The construction does not exist at these (n, k, error) values."""


def active_budget(n: int, k: int, delta: Rational = Fraction(1, 3)) -> int:
    """Smallest ell <= k with binom_leq(k, ell) >= n/delta.

    This is the zero-budget of the sampled mask: at most ell of its k entries
    are zero, so at most ell players speak per base run, while the mask space
    stays large enough that hitting any fixed row has probability <= delta/n.
    Pass delta as a Fraction when equality at the threshold matters.
    """
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    threshold = Fraction(n) / delta
    for ell in range(k + 1):
        if binom_leq(k, ell) >= threshold:
            return ell
    raise InfeasibleParameters(
        f"no mask budget works: 2^{k} = {1 << k} < n/delta = {threshold}"
    )


# ---------------------------------------------------------------------------
# masks


@dataclass(frozen=True)
class MaskVector:
    """A row vector with at most ell zeros, the shared sample of a base run."""

    k: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.k):
            raise ValueError("bits out of range")

    @property
    def zero_positions(self) -> tuple[int, ...]:
        return zero_positions(self.bits, self.k)

    @classmethod
    def from_rank(cls, k: int, ell: int, rank: int) -> "MaskVector":
        """rank in [0, binom_leq(k, ell)) -> mask, ordered by zero count then
        lexicographic zero positions; unranked by the shared
        ``combinatorics.unrank_band_row``."""
        return cls(k=k, bits=unrank_band_row(k, 0, min(ell, k), rank))


@lru_cache(maxsize=4096)
def zero_positions(bits: int, k: int) -> tuple[int, ...]:
    """The zero positions (1-based, increasing) of a k-column mask, the
    speakers of a gip draw: one step per set bit of full & ~bits."""
    free = ((1 << k) - 1) & ~bits
    zeros = []
    while free:
        low = free & -free
        zeros.append(low.bit_length())
        free ^= low
    return tuple(zeros)


@lru_cache(maxsize=4096)
def _mask_bits(k: int, ell: int, rank: int) -> int:
    """The mask of this rank as one int. Unranking costs about ten memo
    hits; the bound covers every mask of disj 64 x 64's subcalls."""
    return MaskVector.from_rank(k, ell, rank).bits


def enumerate_masks(k: int, ell: int):
    """All masks with at most ell zeros, in rank order."""
    for rank in range(binom_leq(k, ell)):
        yield MaskVector.from_rank(k, ell, rank)


# ---------------------------------------------------------------------------
# plan machinery

Draw = Union[int, dict[int, list[int]]]  # gip: the mask; mod3: speaker -> GF(3) table
_GF3_BITS = ("00", "01", "10")


@dataclass(frozen=True, eq=False)
class Block:
    """One row block of a voted call: its row ids, the width its rows are
    read at (k for gip, the folded k_eff for mod3), the call it belongs to
    and one draw per repetition. A gip draw is its mask d as an int, whose
    speakers are the zero positions; a mod3 draw maps its speakers, in
    speaking order, to their GF(3) tables."""

    rows: tuple[int, ...]
    width: int
    call: int
    draws: tuple[Draw, ...]


@dataclass
class _Plan:
    """One run as data, built block by block in (call, block) order by
    ``add``: the field Z_q a repetition sums in, the number of calls (one
    for gip and mod3, one per row subset for disj; a call without blocks has
    value 0) and decide, the output from the per-call values. Every speaker
    of every draw sends one piece of ``bits`` bits. Every reader walks the
    blocks and their draws in order, which is (call, block, repetition)
    order, the order of each speaker's message; the output rule and
    ``plan_outcome`` then vote through ``_vote``."""

    q: int
    calls: int
    decide: Callable[[list[int]], int]
    blocks: list[Block] = field(default_factory=list)

    @property
    def bits(self) -> int:
        return ceil_log2(self.q)

    def add(self, call: int, rows: tuple[int, ...], width: int, draws: Sequence[Draw]) -> None:
        """Append a block of ``call`` with these row ids and width and one
        draw per repetition: a q = 2 (gip) draw is the mask as an int, a
        mod3 draw maps each speaker to its ``mod3_message_tables`` table."""
        self.blocks.append(Block(rows, width, call, tuple(draws)))


def _vote(plan: _Plan, sums: Callable[[Block], list[int]]) -> int:
    """The vote of a run: ``sums(block)`` gives each repetition's piece
    sum, a repetition's value is its sum mod q, a block takes the plurality
    of its repetitions, a call sums its blocks mod q, and decide reads the
    calls. ``sums`` is called once per block, in plan order."""
    q = plan.q
    calls = [0] * plan.calls
    for block in plan.blocks:
        calls[block.call] += plurality([s % q for s in sums(block)], q)
    return plan.decide([value % q for value in calls])


def _plan_message(i: int, view: View, prefix, plan: _Plan) -> str:
    """Player i's pieces in (call, block, repetition) order. It masks its
    rows once per run, on its first piece. A gip piece, for each mask d
    with bit i-1 clear, is the parity of the count of the block's masked
    rows equal to i's pattern: d with the view's columns above i set. A mod3
    piece sums one table lookup per block row that holds columns 1..i-1,
    over the rows folded once per block."""
    masked = None
    gip = plan.q == 2
    bit = 1 << (i - 1)
    need = bit - 1
    above = ((1 << view.k) - 1) ^ ((bit << 1) - 1)  # the columns above i
    pieces = []
    for block in plan.blocks:
        if gip:
            mine = [d | above for d in block.draws if not d & bit]
        else:
            mine = [draw[i] for draw in block.draws if i in draw]
        if not mine:
            continue
        if masked is None:
            masked = [view.masked_row(r) for r in range(view.n)]
        rows = [masked[r] for r in block.rows]
        if gip:
            pieces += ["01"[rows.count(pattern) & 1] for pattern in mine]
        else:
            tops = [eff >> i for eff in fold_rows(rows, block.width) if eff & need == need]
            pieces += [_GF3_BITS[sum(table[w] for w in tops) % 3] for table in mine]
    return "".join(pieces)


def _plan_length(i: int, plan: _Plan) -> int:
    if plan.q == 2:
        bit = 1 << (i - 1)
        return plan.bits * len([1 for block in plan.blocks for d in block.draws if not d & bit])
    return plan.bits * len([1 for block in plan.blocks for draw in block.draws if i in draw])


def _plan_output(transcript: Transcript, plan: _Plan) -> int:
    """The vote over the transcript's pieces: each speaker's bits, joined
    across its entries, are read in consecutive ``plan.bits``-bit pieces in
    plan order, a gip mask's speakers being its zero positions. A speaker
    with fewer bits than its pieces declare is an error."""
    said: dict[int, str] = {}
    for i, bits in transcript.entries:
        said[i] = said.get(i, "") + bits
    width = plan.bits
    read: dict[int, int] = {}  # bits of each speaker read so far

    def piece(i: int) -> int:
        start = read.get(i, 0)
        bits = said.get(i, "")[start : start + width]
        if len(bits) < width:
            raise ValueError(f"transcript is shorter than its plan declares for player {i}")
        read[i] = start + width
        return int(bits, 2)

    if plan.q == 2:
        return _vote(plan, lambda block: [sum(map(piece, zero_positions(d, block.width)))
                                          for d in block.draws])
    return _vote(plan, lambda block: [sum(map(piece, draw)) for draw in block.draws])


def plan_outcome(plan: _Plan, x: InputMatrix) -> tuple[int, int]:
    """(output, cost_bits) of ``core.run`` on a q = 2 plan, read off the
    input without a transcript. The speakers' bits under mask d telescope:
    speaker z_j's pattern is the one before it with column z_j cleared, so
    their sum is m(full) + m(d) mod 2, with m the block's multiplicity of
    each row value (2 m(full) when d is full and nobody speaks). ``_vote``
    reads these sums as it reads the output rule's, and each of the
    width - popcount(d) speakers sends ``plan.bits`` bits."""
    rows = x.rows
    pieces = 0

    def sums(block: Block) -> list[int]:
        nonlocal pieces
        m: dict[int, int] = {}
        for r in block.rows:
            v = rows[r]
            m[v] = m.get(v, 0) + 1
        truth = m.get((1 << block.width) - 1, 0)
        pieces += block.width * len(block.draws) - sum(d.bit_count() for d in block.draws)
        return [truth + m.get(d, 0) for d in block.draws]

    return _vote(plan, sums), plan.bits * pieces


# the fixed part of the three specs: simultaneous, public-coin, and every
# rule reads only the run's plan
_plan_protocol = partial(
    ProtocolSpec,
    simultaneous=True,
    deterministic=False,
    message_rule=_plan_message,
    output_rule=_plan_output,
    length_rule=_plan_length,
)


def _partition_rows(row_ids: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """One block when 2^k >= 3n, else consecutive blocks of floor(2^k / 3)."""
    n = len(row_ids)
    if 3 * n <= 1 << k:
        return [tuple(row_ids)]
    size = (1 << k) // 3
    if size == 0:
        raise InfeasibleParameters(f"k={k} leaves no room to partition rows")
    return [tuple(row_ids[a : a + size]) for a in range(0, n, size)]


@dataclass(frozen=True)
class Layout:
    """What (protocol, n, k, eps) alone fixes of a run. A call sums in Z_q
    over its blocks, each a (start, stop, width, space) tuple: its row
    offsets, the width its rows are read at (gip's mask budget ell, mod3's
    folded k_eff) and the size of the space its shared draw comes from
    (binom_leq(k, ell) masks, 2^k_eff points). Every block runs reps
    repetitions. ``calls`` counts the calls of a run: 1 for gip and mod3,
    and disj's trials, each a gip subcall at error 1/16 whose full-row
    blocks these are."""

    q: int
    blocks: tuple[tuple[int, int, int, int], ...]
    reps: int
    calls: int

    @property
    def cost_ceiling(self) -> int:
        """Bits of a run: every speaker of every draw sends ceil(log2 q)."""
        return self.calls * self.reps * ceil_log2(self.q) * sum(w for _, _, w, _ in self.blocks)

    @property
    def ell(self) -> int:
        """The ell column of reports: the widest block's width."""
        return max(w for _, _, w, _ in self.blocks)

    @property
    def single_width(self) -> Optional[int]:
        """The width of the one base run, or None unless the run is one call
        of one block with one repetition (disj's subcalls always repeat)."""
        if self.calls == 1 and self.reps == 1 and len(self.blocks) == 1:
            return self.blocks[0][2]
        return None


@lru_cache(maxsize=1024)
def layout(protocol: str, n: int, k: int, eps: Rational = DEFAULT_ERROR) -> Layout:
    """The layout of ``protocol`` at (n, k, eps), after every feasibility
    check. Row blocks are small enough for the shared mask or point space,
    and the odd repetition count brings each block's vote to error
    eps / blocks, so the blocks sum to error <= eps. disj's Hoeffding trial
    count reads eps's numerator and denominator, so an eps below the float
    range still has a logarithm."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if protocol not in ("gip", "disj", "mod3"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "disj" and k < 2:
        raise InfeasibleParameters("subcalls need k >= 2")
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    if protocol == "disj":
        trials = ceil((log(eps.denominator) - log(eps.numerator)) / (2 * DISJ_GAP**2))
        # the full-row subcall has the most blocks, so the most repetitions
        # and the most bits of any row subset
        full = layout("gip", n, k, DISJ_SUBCALL_ERROR)
        return Layout(full.q, full.blocks, full.reps, trials)
    parts = _partition_rows(range(n), k)
    reps = smallest_odd_majority(GIP_BASE_ERROR, eps / len(parts))
    blocks = []
    for rows in parts:
        if protocol == "gip":
            width = active_budget(len(rows), k, GIP_BASE_ERROR)
            space = binom_leq(k, width)
        else:
            width = ceil_log2(3 * len(rows))  # effective column count
            space = 1 << width
        blocks.append((rows[0], rows[-1] + 1, width, space))
    return Layout(2 if protocol == "gip" else 3, tuple(blocks), reps, 1)


# ---------------------------------------------------------------------------
# GIP


def mask_label(scope: str, block: int, rep: int) -> str:
    """The mask draw's label: ``scope`` is "" for a gip run's own call and
    "disj/t{t}/" for disj's subcall t."""
    return f"{scope}gip/b{block}/r{rep}/mask"


def gip_broadcast_bit(rows: Sequence[int], zeros: Sequence[int], ordinal: int, k: int) -> int:
    """Broadcast bit of the ordinal-th zero-position player (1-based).

    Counts rows that are 0 on the earlier zero positions and 1 everywhere
    else except the player's own column, mod 2. Row values are plain ints;
    callers pass masked rows so the player's own bit is never consulted.
    """
    me = zeros[ordinal - 1]
    lo = 0
    for z in zeros[: ordinal - 1]:
        lo |= 1 << (z - 1)
    rest = ((1 << k) - 1) & ~lo & ~(1 << (me - 1))
    cnt = 0
    for r in rows:
        if r & lo == 0 and r & rest == rest:
            cnt ^= 1
    return cnt


@lru_cache(maxsize=1024)
def _mask_labels(scope: str, block: int, reps: int) -> tuple[str, ...]:
    """The mask labels of one block's repetitions, which no trial changes."""
    return tuple(mask_label(scope, block, r) for r in range(reps))


def _add_gip_call(
    plan: _Plan, call: int, row_ids: Sequence[int], k: int, lay: Layout,
    tape: RandomTape, scope: str,
) -> None:
    """Add to ``plan`` the blocks of one call computing GIP of the given
    rows, laid out by ``lay`` (gip's layout at that row count): every
    repetition of a block draws a mask within the block's budget."""
    for b, (start, stop, ell, space) in enumerate(lay.blocks):
        ranks = tape.randbelow_each(_mask_labels(scope, b, lay.reps), space)
        plan.add(call, tuple(row_ids[start:stop]), k, [_mask_bits(k, ell, r) for r in ranks])


def gip_params(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> dict:
    """Structural parameters of gip_protocol(n, k, eps), without building it."""
    lay = layout("gip", n, k, eps)
    return {
        "blocks": [stop - start for start, stop, _, _ in lay.blocks],
        "ells": [ell for _, _, ell, _ in lay.blocks],
        "reps": [lay.reps] * len(lay.blocks),
        "cost_ceiling": lay.cost_ceiling,
    }


def gip_protocol(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> ProtocolSpec:
    """Randomized simultaneous protocol for the parity of all-ones rows."""
    lay = layout("gip", n, k, eps)

    def plan(tape: RandomTape) -> _Plan:
        out = _Plan(q=2, calls=1, decide=lambda calls: calls[0])
        _add_gip_call(out, 0, range(n), k, lay, tape, "")
        return out

    return _plan_protocol(n, k, plan=plan, cost_ceiling=lay.cost_ceiling, direct_vote=plan_outcome)


def exact_gip_error(x: InputMatrix, ell: int) -> Fraction:
    """Probability the sampled mask equals some row of x.

    Counts distinct rows with at most ell zeros over the mask-space size.
    This is exact for the collision event and an upper bound on the chance
    the base run's output is wrong (a row colliding with the mask an even
    number of times leaves the telescoped parity intact).
    """
    if not 0 <= ell <= x.k:
        raise ValueError("need 0 <= ell <= k")
    heavy = {r for r in x.rows if x.k - bin(r).count("1") <= ell}
    return Fraction(len(heavy), binom_leq(x.k, ell))


def gip_base_outcome(x: InputMatrix, mask: MaskVector) -> tuple[int, tuple[int, ...]]:
    """(output, broadcast bits) of a single base run under ``mask``, unvoted."""
    if mask.k != x.k:
        raise ValueError("mask width must match k")
    zeros = mask.zero_positions
    bits = []
    for ordinal, z in enumerate(zeros, start=1):
        hide = ~(1 << (z - 1))
        masked = [r & hide for r in x.rows]
        bits.append(gip_broadcast_bit(masked, zeros, ordinal, x.k))
    out = 0
    for b in bits:
        out ^= b
    return out, tuple(bits)


# ---------------------------------------------------------------------------
# DISJ


def subset_label(trial: int) -> str:
    return f"disj/t{trial}/subset"


def disj_params(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> dict:
    lay = layout("disj", n, k, eps)
    return {
        "trials": lay.calls,
        "subcall_reps": lay.reps,
        "subcall_error": DISJ_SUBCALL_ERROR,
        "cost_ceiling": lay.cost_ceiling,
    }


def disj_protocol(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> ProtocolSpec:
    """Randomized simultaneous protocol deciding column disjointness.

    Each trial draws a uniform row subset S and runs the parity protocol on
    those rows with error 1/16; the fraction of zero answers separates
    disjoint (concentrates >= 15/16) from intersecting (<= 9/16) inputs, and
    the 3/4 threshold sits a 3/16 Hoeffding gap from both.
    """
    lay = layout("disj", n, k, eps)
    trials = lay.calls
    subcalls: dict[int, Layout] = {}  # row count -> gip layout, filled on first use

    def decide(calls: list[int]) -> int:
        return int(calls.count(0) >= DISJ_ZERO_THRESHOLD * trials)

    def plan(tape: RandomTape) -> _Plan:
        out = _Plan(q=2, calls=trials, decide=decide)
        for t in range(trials):
            picks = tape.bitvector(subset_label(t), n)
            rows = tuple(compress(range(n), picks))
            # an empty subset is a call without blocks, whose gip is 0
            if rows:
                sub = subcalls.get(len(rows))
                if sub is None:
                    sub = subcalls[len(rows)] = layout("gip", len(rows), k, DISJ_SUBCALL_ERROR)
                _add_gip_call(out, t, rows, k, sub, tape, f"disj/t{t}/")
        return out

    return _plan_protocol(n, k, plan=plan, cost_ceiling=lay.cost_ceiling, direct_vote=plan_outcome)


# ---------------------------------------------------------------------------
# MOD3 of row XORs


def ceil_log2(m: int) -> int:
    if m < 1:
        raise ValueError("need m >= 1")
    return (m - 1).bit_length()


def parity_poly_eval(point: int, x: int, k: int) -> int:
    """prod(x_i + 1) - prod(x_i + point_i - 1) - 1 over GF(3).

    Equals the XOR of the bits of x whenever x != point.
    """
    if not 0 <= point < (1 << k) or not 0 <= x < (1 << k):
        raise ValueError("inputs out of range")
    prod1 = pow(2, bin(x).count("1"), 3)  # x_i + 1 is 2 at ones, 1 at zeros
    prod2 = 1
    for j in range(k):
        term = ((x >> j) & 1) + ((point >> j) & 1) + 2  # x_j + point_j - 1 mod 3
        prod2 = (prod2 * term) % 3
    return (prod1 - prod2 - 1) % 3


@dataclass(frozen=True)
class Gf3Poly:
    """Multilinear polynomial over GF(3); monomials keyed by column bitmask."""

    coeffs: tuple[tuple[int, int], ...]  # (column bitmask, coeff in {1, 2})

    def evaluate(self, x: int) -> int:
        total = 0
        for mask, c in self.coeffs:
            if x & mask == mask:
                total += c
        return total % 3

    def degree(self) -> int:
        return max((bin(m).count("1") for m, _ in self.coeffs), default=0)


def expand_parity_poly(point: int, k: int) -> Gf3Poly:
    """Monomial expansion of parity_poly_eval(point, ., k), in closed form.

    prod(x_j + 1) gives every monomial x^S the coefficient 1. In
    prod(x_j + point_j - 1) a column left out of S contributes its constant
    point_j - 1, which is 0 where point_j = 1 and -1 elsewhere, so x^S gets
    (-1)^(k-|S|) when S holds every column where point is 1, else nothing:

        c_S = 1 - [S >= supp(point)] * (-1)^(k-|S|) - [S = {}]   (mod 3).
    """
    if not 0 <= point < (1 << k):
        raise ValueError("point out of range")
    coeffs = []
    for mask in range(1 << k):
        c = 0 if mask == 0 else 1
        if mask & point == point:
            c += 1 if (k - mask.bit_count()) & 1 else -1
        c %= 3
        if c:
            coeffs.append((mask, c))
    if k > 0 and coeffs and coeffs[-1][0] == (1 << k) - 1:
        raise AssertionError("full monomial should always cancel")
    return Gf3Poly(coeffs=tuple(coeffs))


def monomial_partition(point: int, k: int) -> dict[int, int]:
    """Map each monomial bitmask of the expansion to its assigned player:
    the lowest-index column the monomial omits (the lowest zero bit)."""
    return {
        mask: (~mask & (mask + 1)).bit_length()
        for mask, _ in expand_parity_poly(point, k).coeffs
    }


def mod3_base_value(x: InputMatrix, point: int) -> int:
    """GF(3) value one base run communicates: sum over rows of the parity
    polynomial at ``point``. Equals (sum of row XORs) mod 3 when no row
    equals the point."""
    return sum(parity_poly_eval(point, r, x.k) for r in x.rows) % 3


def exact_mod3_error(x: InputMatrix) -> Fraction:
    """Probability a uniform point of {0,1}^k equals some row of x, which is
    exactly the chance the base run's value is untrusted. Callers pass the
    effective (folded) matrix when columns were folded."""
    return Fraction(len(set(x.rows)), 1 << x.k)


def point_label(block: int, rep: int) -> str:
    return f"mod3/b{block}/r{rep}/point"


def fold_rows(rows: Sequence[int], k_eff: int) -> tuple[int, ...]:
    """Fold columns k_eff..k of each row into the single bit k_eff. The
    folded row keeps the overall parity, so the parity-polynomial identity
    still applies; the per-input error oracle measures collisions in the
    folded space, and a player folds its masked rows."""
    top = k_eff - 1
    low = (1 << top) - 1
    return tuple((r & low) | (((r >> top).bit_count() & 1) << top) for r in rows)


def mod3_params(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> dict:
    lay = layout("mod3", n, k, eps)
    return {
        "blocks": [stop - start for start, stop, _, _ in lay.blocks],
        "k_effs": [k_eff for _, _, k_eff, _ in lay.blocks],
        "reps": [lay.reps] * len(lay.blocks),
        "cost_ceiling": lay.cost_ceiling,
    }


def mod3_message_tables(point: int, k_eff: int) -> dict[int, list[int]]:
    """Per player i, the GF(3) table its message reads at this point.

    Player i owns the monomials that hold columns 1..i-1 and omit column i,
    so such a monomial lies inside an effective row v exactly when v holds
    columns 1..i-1 and the monomial's columns above i lie inside v >> i.
    ``tables[i][w]`` sums i's coefficients over the monomials whose columns
    above i form a subset of w: a subset-sum (zeta) transform over those
    k_eff - i columns, 2^k_eff - 1 entries in all. No table is indexed by
    column i, so the message never reads the hidden bit.
    """
    poly = expand_parity_poly(point, k_eff)
    owners = monomial_partition(point, k_eff)
    tables = {i: [0] * (1 << (k_eff - i)) for i in range(1, k_eff + 1)}
    for mask, coeff in poly.coeffs:
        i = owners[mask]
        tables[i][mask >> i] = coeff
    for i, table in tables.items():
        size = len(table)
        step = 1
        while step < size:
            for base in range(step, size, 2 * step):
                for v in range(base, base + step):
                    table[v] += table[v - step]
            step *= 2
        tables[i] = [t % 3 for t in table]
    return tables


def mod3_protocol(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> ProtocolSpec:
    """Randomized simultaneous protocol for [sum of row XORs divisible by 3].

    Per block and repetition, a shared point u of {0,1}^k_eff is drawn; every
    monomial of the parity polynomial omits some column, so each of players
    1..k_eff broadcasts the GF(3) sum of the monomials assigned to it (two
    bits). Columns k_eff..k are folded by XOR into one virtual column that
    every speaking player can compute from its view. The plan turns each
    player's monomials into one table (``mod3_message_tables``) at build
    time; the message then sums one table entry per block row. Per-block
    values are plurality-voted across repetitions, summed mod 3, and the
    output is 1 iff the sum is 0 (i.e. 1 - value^2 over GF(3)).
    """
    lay = layout("mod3", n, k, eps)

    def plan(tape: RandomTape) -> _Plan:
        out = _Plan(q=3, calls=1, decide=lambda calls: int(calls[0] == 0))
        for b, (start, stop, k_eff, space) in enumerate(lay.blocks):
            draws = [mod3_message_tables(tape.randbelow(point_label(b, r), space), k_eff)
                     for r in range(lay.reps)]
            out.add(0, tuple(range(start, stop)), k_eff, draws)
        return out

    return _plan_protocol(n, k, plan=plan, cost_ceiling=lay.cost_ceiling)

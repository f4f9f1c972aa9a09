"""The three randomized protocols, with bit-exact cost accounting.

All three factories return a ProtocolSpec whose per-execution structure (which
player speaks how many bits, and what each bit means) is derived from the tape
alone, never from the input. Each spec's ``plan`` describes one run: an
ordered list of slots (player, bit-width, view -> bits) plus an aggregator
from slot values to the output. ``core.run`` builds it once per run and
hands it to the message, length, and output rules, which read nothing
else; that keeps the transcript splittable and the declared cost ceilings
honest.

gip_protocol    parity of all-ones rows. Samples a row mask with few zeros;
                the players sitting at the zero positions each broadcast one
                parity bit, and the XOR of the broadcasts telescopes to the
                all-ones row count mod 2 unless some input row equals the
                mask. Rows are split into blocks when 2^k < 3n, and every
                block is repeated for a majority vote.

disj_protocol   set disjointness. Estimates P over random row subsets S of
                [gip on the S-rows = 0]: exactly 1 when the columns are
                disjoint and 1/2 otherwise; declares disjoint when at least
                3/4 of the amplified subcalls answer zero.

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
    return _active_budget_cached(n, k, delta)


@lru_cache(maxsize=4096)
def _active_budget_cached(n: int, k: int, delta: Fraction) -> int:
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
        return tuple(j for j in range(1, self.k + 1) if not (self.bits >> (j - 1)) & 1)

    @classmethod
    def from_rank(cls, k: int, ell: int, rank: int) -> "MaskVector":
        """rank in [0, binom_leq(k, ell)) -> mask, ordered by zero count then
        lexicographic zero positions; unranked by the shared
        ``combinatorics.unrank_band_row``."""
        return cls(k=k, bits=unrank_band_row(k, 0, min(ell, k), rank))


def enumerate_masks(k: int, ell: int):
    """All masks with at most ell zeros, in rank order."""
    for rank in range(binom_leq(k, ell)):
        yield MaskVector.from_rank(k, ell, rank)


# ---------------------------------------------------------------------------
# plan machinery

Slot = tuple[int, int, Callable[[View], str]]  # (player, bit width, compute)


@dataclass
class _Plan:
    slots: list[Slot]
    output: Callable[[list[int]], int]  # slot values, each decoded as a binary int
    by_player: dict[int, list[Slot]] = field(init=False)  # slots in plan order

    def __post_init__(self):
        self.by_player = {}
        for slot in self.slots:
            self.by_player.setdefault(slot[0], []).append(slot)


def _plan_message(i: int, view: View, prefix, plan: _Plan, ns: str) -> str:
    return "".join(fn(view) for _, _, fn in plan.by_player.get(i, ()))


def _plan_length(i: int, plan: _Plan, ns: str) -> int:
    return sum(width for _, width, _ in plan.by_player.get(i, ()))


def _plan_output(transcript: Transcript, plan: _Plan, ns: str) -> int:
    pieces = transcript.pieces((player, width) for player, width, _ in plan.slots)
    return plan.output([int(piece, 2) for piece in pieces])


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


def _blocks_and_reps(
    row_ids: Sequence[int], k: int, eps: Fraction
) -> tuple[list[tuple[int, ...]], int]:
    """The layout every protocol runs: row blocks small enough for the shared
    mask or point space, and the odd repetition count that brings each
    block's vote to error eps / blocks, so the blocks sum to error <= eps."""
    blocks = _partition_rows(row_ids, k)
    return blocks, smallest_odd_majority(GIP_BASE_ERROR, eps / len(blocks))


def _voted_blocks(
    blocks: Sequence[tuple[int, ...]],
    reps: int,
    q: int,
    rep_slots: Callable[[int, tuple[int, ...], int], list[Slot]],
) -> tuple[list[Slot], Callable[[Sequence[int]], int]]:
    """Slots plus value function of the block-and-vote skeleton over Z_q.

    rep_slots(b, block, r) gives the slots of repetition r of block b, called
    in block-then-repetition order (the order of the tape draws). A
    repetition's answer is the sum of its slot values mod q, a block's
    answer the plurality of its repetitions, the value the sum of the block
    answers mod q.
    """
    slots: list[Slot] = []
    spans: list[list[tuple[int, int]]] = []  # per block, per rep: slot range
    for b, block in enumerate(blocks):
        block_spans = []
        for r in range(reps):
            start = len(slots)
            slots.extend(rep_slots(b, block, r))
            block_spans.append((start, len(slots)))
        spans.append(block_spans)

    def value(vals: Sequence[int]) -> int:
        return sum(
            plurality((sum(vals[a:z]) % q for a, z in block_spans), q)
            for block_spans in spans
        ) % q

    return slots, value


# ---------------------------------------------------------------------------
# GIP


def mask_label(ns: str, block: int, rep: int) -> str:
    return f"{ns}gip/b{block}/r{rep}/mask"


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


def _gip_rows_plan(
    row_ids: Sequence[int], k: int, eps: Fraction, tape: RandomTape, ns: str
) -> tuple[list[Slot], Callable[[Sequence[int]], int]]:
    """Slots plus value function computing GIP of the given rows, err <= eps."""
    blocks, reps = _blocks_and_reps(row_ids, k, eps)
    ells = [active_budget(len(block), k, GIP_BASE_ERROR) for block in blocks]
    spaces = [binom_leq(k, ell) for ell in ells]

    def rep_slots(b: int, block: tuple[int, ...], r: int) -> list[Slot]:
        rank = tape.randbelow(mask_label(ns, b, r), spaces[b])
        zeros = MaskVector.from_rank(k, ells[b], rank).zero_positions
        slots = []
        for ordinal, z in enumerate(zeros, start=1):
            def fn(view, _rows=block, _zeros=zeros, _ord=ordinal, _k=k):
                masked = [view.masked_row(i) for i in _rows]
                return str(gip_broadcast_bit(masked, _zeros, _ord, _k))

            slots.append((z, 1, fn))
        return slots

    return _voted_blocks(blocks, reps, 2, rep_slots)


def gip_params(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> dict:
    """Structural parameters of gip_protocol(n, k, eps), without building it."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    blocks, reps = _blocks_and_reps(range(n), k, eps)
    ells = [active_budget(len(b), k, GIP_BASE_ERROR) for b in blocks]
    return {
        "blocks": [len(b) for b in blocks],
        "ells": ells,
        "reps": [reps] * len(blocks),
        "cost_ceiling": reps * sum(ells),
    }


def gip_protocol(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> ProtocolSpec:
    """Randomized simultaneous protocol for the parity of all-ones rows."""
    eps = Fraction(eps)
    params = gip_params(n, k, eps)

    def plan(tape: RandomTape, ns: str) -> _Plan:
        slots, value = _gip_rows_plan(tuple(range(n)), k, eps, tape, ns)
        return _Plan(slots=slots, output=value)

    return _plan_protocol("gip", n, k, float(eps), plan=plan, cost_ceiling=params["cost_ceiling"])


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
    """(output, broadcast bits) of a single unamplified run under ``mask``."""
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


def subset_label(ns: str, trial: int) -> str:
    return f"{ns}disj/t{trial}/subset"


def disj_params(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> dict:
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if k < 2:
        raise InfeasibleParameters("subcalls need k >= 2")
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    trials = ceil(log(1 / float(eps)) / (2 * float(DISJ_GAP) ** 2))
    # the full-row subcall has the most blocks, so the most repetitions
    # and the most bits of any row subset
    full = gip_params(n, k, DISJ_SUBCALL_ERROR)
    return {
        "trials": trials,
        "subcall_reps": max(full["reps"]),
        "subcall_error": DISJ_SUBCALL_ERROR,
        "cost_ceiling": trials * full["cost_ceiling"],
    }


def disj_protocol(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> ProtocolSpec:
    """Randomized simultaneous protocol deciding column disjointness.

    Each trial draws a uniform row subset S and runs the parity protocol on
    those rows with error 1/16; the fraction of zero answers separates
    disjoint (concentrates >= 15/16) from intersecting (<= 9/16) inputs, and
    the 3/4 threshold sits a 3/16 Hoeffding gap from both.
    """
    eps = Fraction(eps)
    params = disj_params(n, k, eps)
    trials = params["trials"]

    def plan(tape: RandomTape, ns: str) -> _Plan:
        slots: list[Slot] = []
        finishers: list[tuple[tuple[int, int], Optional[Callable]]] = []
        for t in range(trials):
            picks = tape.bitvector(subset_label(ns, t), n)
            rows = tuple(i for i in range(n) if picks[i])
            if not rows:
                finishers.append(((len(slots), len(slots)), None))  # empty: gip = 0
                continue
            sub_slots, sub_value = _gip_rows_plan(
                rows, k, DISJ_SUBCALL_ERROR, tape, f"{ns}disj/t{t}/"
            )
            span = (len(slots), len(slots) + len(sub_slots))
            slots.extend(sub_slots)
            finishers.append((span, sub_value))

        def output(vals: list[int]) -> int:
            zeros = 0
            for (a, b), value in finishers:
                ans = 0 if value is None else value(vals[a:b])
                zeros += 1 if ans == 0 else 0
            return 1 if zeros >= DISJ_ZERO_THRESHOLD * trials else 0

        return _Plan(slots=slots, output=output)

    return _plan_protocol("disj", n, k, float(eps), plan=plan, cost_ceiling=params["cost_ceiling"])


# ---------------------------------------------------------------------------
# MOD3 of row XORs


_GF3_BITS = {0: "00", 1: "01", 2: "10"}


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

    k: int
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
    return Gf3Poly(k=k, coeffs=tuple(coeffs))


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


def point_label(ns: str, block: int, rep: int) -> str:
    return f"{ns}mod3/b{block}/r{rep}/point"


def _effective_row(masked: int, k_eff: int) -> int:
    """Fold columns k_eff..k of a masked row into the single bit k_eff."""
    low = (1 << (k_eff - 1)) - 1
    fold = (masked >> (k_eff - 1)).bit_count() & 1
    return (masked & low) | (fold << (k_eff - 1))


def fold_rows(rows: Sequence[int], k_eff: int) -> tuple[int, ...]:
    """Fold full (unmasked) rows down to k_eff columns. The folded row keeps
    the overall parity, so the parity-polynomial identity still applies; the
    per-input error oracle measures collisions in the folded space."""
    return tuple(_effective_row(r, k_eff) for r in rows)


def mod3_params(n: int, k: int, eps: Rational = DEFAULT_ERROR) -> dict:
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if (1 << k) < n:
        raise InfeasibleParameters(f"needs 2^k >= n, got 2^{k} < {n}")
    blocks, reps = _blocks_and_reps(range(n), k, eps)
    k_effs = [ceil_log2(3 * len(b)) for b in blocks]  # effective column counts
    if any(ke > k for ke in k_effs):
        raise InfeasibleParameters("block does not fit its effective width")
    return {
        "blocks": [len(b) for b in blocks],
        "k_effs": k_effs,
        "reps": [reps] * len(blocks),
        "cost_ceiling": reps * 2 * sum(k_effs),
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


def _mod3_message(
    rows: Sequence[int], table: Sequence[int], player: int, k_eff: int
) -> Callable[[View], str]:
    """Player ``player``'s two-bit GF(3) message for one block and point:
    one table lookup per block row that holds columns 1..player-1."""
    need = (1 << (player - 1)) - 1

    def fn(view: View) -> str:
        total = 0
        for ri in rows:
            eff = _effective_row(view.masked_row(ri), k_eff)
            if eff & need == need:
                total += table[eff >> player]
        return _GF3_BITS[total % 3]

    return fn


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
    eps = Fraction(eps)
    params = mod3_params(n, k, eps)
    blocks, reps = _blocks_and_reps(range(n), k, eps)
    k_effs = params["k_effs"]

    def plan(tape: RandomTape, ns: str) -> _Plan:
        def rep_slots(b: int, block: tuple[int, ...], r: int) -> list[Slot]:
            k_eff = k_effs[b]
            point = tape.randbelow(point_label(ns, b, r), 1 << k_eff)
            tables = mod3_message_tables(point, k_eff)
            return [(i, 2, _mod3_message(block, tables[i], i, k_eff)) for i in range(1, k_eff + 1)]

        slots, value = _voted_blocks(blocks, reps, 3, rep_slots)
        return _Plan(slots=slots, output=lambda vals: int(value(vals) == 0))

    return _plan_protocol("mod3", n, k, float(eps), plan=plan, cost_ceiling=params["cost_ceiling"])

"""Correlation and discrepancy oracles.

Discrepancy of F under weight mu, for a family of cylinder intersections, is
the maximum of |sum_x mu(x) (-1)^F(x) chi(x)| over the family. The family is
either a fixed player subset S (only those players get non-constant tables),
a budget ell (all subsets of size <= ell), or every player. The point is
exact desk-scale values to hold the analytic bounds against, not
scalability. exact_disc enumerates all table tuples, so it is doubly
exponential and guarded by a cap; heuristic_disc is a local search usable
far past that cap, under a cap of its own on the 2^(nk) inputs it sweeps;
bns_rhs gives, as a Fraction, the tensor-product quantity that upper-bounds
|E phi chi|^(2^k) for every cylinder intersection chi, with phi the sign of
gip or disj or the mod-3 character, from the law of one row's column pairs.

correlation, exact_disc and the heuristic sweep share one family rule
(_subset_candidates) and one membership test (_passing), which reads each
input's view indices, computed once per query, against a table tuple. The
bound table's stacked weights are plain {code: weight} mappings.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Mapping, Optional, Sequence, Union

from .combinatorics import binom_leq
from .core import CylinderIntersection
from .distributions import DistributionSpec, make_dist
from .functions import (
    PartialFunctionSpec,
    UNDEFINED,
    gip_spec,
    mod3xor_spec,
    xor_of_disj_spec,
)
from .matrices import InputMatrix, all_inputs, player_view
from .tape import RandomTape

DEFAULT_DISC_CAP = 1 << 20


class CapExceeded(ValueError):
    """Requested enumeration is larger than the cap allows."""


@dataclass(frozen=True)
class CharacterSpec:
    """The complex character X -> e((number of odd-parity rows)/3)."""

    n: int
    k: int

    def evaluate(self, x: InputMatrix) -> complex:
        t = sum(r.bit_count() & 1 for r in x.rows)
        return cmath.exp(2j * cmath.pi * (t % 3) / 3)


Target = Union[PartialFunctionSpec, CharacterSpec]
Weight = Union[DistributionSpec, Mapping[int, object], None]
Family = Union[tuple, int, None]


@dataclass(frozen=True)
class CorrelationQuery:
    """What to correlate: a +-1 target (or complex character), a weight over
    inputs, and the cylinder family to maximize over.

    weight None means make_dist("uniform", n, k); a mapping is keyed
    by matrix code and may be any nonnegative values (used for mixtures and
    perturbations). family is a player tuple (that fixed S), an int budget
    ell, or None for all k players. For a partial target, the weight must
    vanish outside the domain; correlation sums over the domain only.
    """

    target: Target
    weight: Weight = None
    family: Family = None

    @property
    def n(self) -> int:
        return self.target.n

    @property
    def k(self) -> int:
        return self.target.k


def _subset_candidates(q: CorrelationQuery) -> list[tuple[int, ...]]:
    every = tuple(range(1, q.k + 1))
    if q.family is None:
        return [every]
    if isinstance(q.family, int):
        if q.family < 0:
            raise ValueError("budget must be >= 0")
        size = min(q.family, q.k)
        return [tuple(s) for s in combinations(every, size)]
    players = tuple(sorted(q.family))
    if any(not 1 <= i <= q.k for i in players) or len(set(players)) != len(players):
        raise ValueError(f"bad player subset {q.family}")
    return [players]


def _signed_items(q: CorrelationQuery) -> list[tuple[InputMatrix, object]]:
    """(input, weight * sign) pairs over the support; exact Fractions for
    Boolean targets with exact weights, complex for the character."""
    n, k = q.n, q.k
    is_char = isinstance(q.target, CharacterSpec)

    def signed(x, w):
        if is_char:
            return complex(w) * q.target.evaluate(x)
        v = q.target.evaluate(x)
        if v is UNDEFINED:
            raise ValueError(f"weight on code {x.code()} lies outside the target domain")
        return w if v == 0 else -w

    weight = make_dist("uniform", n, k) if q.weight is None else q.weight
    items = []
    if hasattr(weight, "pmf"):
        if (weight.n, weight.k) != (n, k):
            raise ValueError("weight shape does not match the target")
        for x in all_inputs(n, k):
            w = weight.pmf(x)
            if w:
                items.append((x, signed(x, w)))
    else:
        for code, w in sorted(weight.items()):
            if w:
                x = InputMatrix.from_code(n, k, code)
                items.append((x, signed(x, w)))
    return items


def _magnitude(total) -> Union[Fraction, float]:
    if isinstance(total, complex):
        return abs(total)
    return -total if total < 0 else total


def _view_rows(items, players: Sequence[int]) -> list[tuple[tuple[int, ...], object]]:
    """Each item as (its view index for every given player, signed weight),
    in item order: the precomputed input of _passing."""
    return [(tuple(player_view(x, i).encode() for i in players), c) for x, c in items]


def _passing(rows, tabs: Sequence[int], skip: Optional[int] = None):
    """Yield the rows whose every view passes its table in tabs (view
    bitmasks aligned with the rows' players), in row order; table number
    skip, if given, passes every view. The one membership test of the
    module."""
    if skip is not None:
        tabs = (*tabs[:skip], -1, *tabs[skip + 1 :])  # -1 has every bit set
    for views, c in rows:
        for table, v in zip(tabs, views):
            if not table >> v & 1:
                break
        else:
            yield views, c


def correlation(q: CorrelationQuery, chi: CylinderIntersection) -> Union[Fraction, float]:
    """|sum over the domain of weight * (-1)^target * chi|, computed exactly
    (a Fraction) for Boolean targets with exact weights."""
    if (chi.n, chi.k) != (q.n, q.k):
        raise ValueError(f"cylinder is {chi.n}x{chi.k}, query is {q.n}x{q.k}")
    if not any(set(chi.players) <= set(S) for S in _subset_candidates(q)):
        raise ValueError(f"cylinder players {chi.players} outside the query family")
    rows = _view_rows(_signed_items(q), chi.players)
    return _magnitude(sum(c for _, c in _passing(rows, chi.tables)))


def exact_disc(q: CorrelationQuery, cap: int = DEFAULT_DISC_CAP) -> Union[Fraction, float]:
    """Exact maximum correlation over the query's cylinder family.

    Enumerates every table tuple for each candidate subset S: player i has
    2^(2^((k-1) n)) possible tables, so the per-subset count is astronomically
    capped. Raises CapExceeded rather than degrade silently.
    """
    view_space = 1 << ((q.k - 1) * q.n)
    subsets = _subset_candidates(q)
    for S in subsets:
        # 2^bits tuples: checked from the shape before any item is built, and
        # worded as a power, whose decimal form can exceed int-to-str limits
        bits = view_space * len(S)
        if cap < 1 or bits >= cap.bit_length():
            raise CapExceeded(
                f"subset {S}: 2^{bits} table tuples exceed cap {cap}; "
                "use heuristic_disc or bns_rhs"
            )
    items = _signed_items(q)
    best = None
    for S in subsets:
        rows = _view_rows(items, S)
        for tabs in product(range(1 << view_space), repeat=len(S)):
            value = _magnitude(sum(c for _, c in _passing(rows, tabs)))
            if best is None or value > best:
                best = value
    return best


def enumerate_cylinders(n: int, k: int, players: Sequence[int]) -> Iterator[CylinderIntersection]:
    """Every cylinder intersection whose non-constant factors sit on the
    given players. Table order is numeric, so iteration is deterministic."""
    players = tuple(players)
    view_space = 1 << ((k - 1) * n)
    for tabs in product(range(1 << view_space), repeat=len(players)):
        yield CylinderIntersection(n=n, k=k, players=players, tables=tabs)


def heuristic_disc(
    q: CorrelationQuery,
    restarts: int = 4,
    tape: Optional[RandomTape] = None,
    cap: int = DEFAULT_DISC_CAP,
) -> Union[Fraction, float]:
    """Lower bound on exact_disc by alternating maximization.

    With every table but player j's fixed, the correlation is linear in the
    2^((k-1) n) entries of table j, so the best table sets each entry by the
    sign of its coefficient (after aligning with the current phase for the
    complex character; ties enlarge the cylinder). Sweeps players until no
    table changes. restarts=0 evaluates the all-ones cylinder only; the
    first restart starts from all-ones, later ones from random tables.
    Raises CapExceeded when the 2^(nk) items times the swept players
    exceed cap.
    """
    subsets = _subset_candidates(q)
    # checked from the shape before any item is built, as in exact_disc;
    # an empty family still reads every item once
    cells, players = q.n * q.k, max(1, sum(len(S) for S in subsets))
    if cap < 1 or cells >= cap.bit_length() or players << cells > cap:
        raise CapExceeded(f"2^{cells} inputs x {players} swept players exceed cap {cap}")
    items = _signed_items(q)
    allones = _magnitude(sum(c for _, c in items))
    if restarts <= 0:
        return allones
    if tape is None:
        tape = RandomTape(master_seed=0)
    view_space = 1 << ((q.k - 1) * q.n)
    best = allones
    # Boolean targets sweep toward either sign; the character re-aligns
    phases = (None,) if isinstance(q.target, CharacterSpec) else (1, -1)
    for S in subsets:
        rows = _view_rows(items, S)
        for r in range(restarts):
            if r == 0:
                tabs = [(1 << view_space) - 1] * len(S)
            else:
                tabs = [
                    tape.randbelow(f"disc/S{'_'.join(map(str, S))}/r{r}/p{i}", 1 << view_space)
                    for i in S
                ]
            for phase in phases:
                value = _sweep_to_fixed_point(rows, list(tabs), view_space, phase)
                if value > best:
                    best = value
    return best


def _sweep_to_fixed_point(rows, tabs, view_space, phase) -> Union[Fraction, float]:
    """Alternating entrywise optimization of the real part of the total
    times conj(phase); mutates tabs, returns |total|. phase None re-aligns
    it with the current total before each table (the complex character)."""
    realign = phase is None
    for _ in range(64):
        changed = False
        for j in range(len(tabs)):
            if realign:
                total = sum(c for _, c in _passing(rows, tabs))
                phase = total / abs(total) if abs(total) > 1e-15 else 1.0
            coeff = [0] * view_space
            for views, c in _passing(rows, tabs, skip=j):
                coeff[views[j]] += (c * phase.conjugate()).real
            new = 0
            for v, a in enumerate(coeff):
                if a >= 0:  # ties (and untouched entries) stay on
                    new |= 1 << v
            if new != tabs[j]:
                tabs[j] = new
                changed = True
        if not changed:
            break
    return _magnitude(sum(c for _, c in _passing(rows, tabs)))


# ---------------------------------------------------------------------------
# tensor-product bound


def _convolve(law: dict[int, int], step: dict[int, int], op) -> dict[int, int]:
    """The law of op(a, b) for independent a ~ law and b ~ step, both laws
    given as counts and the result merged by value."""
    out: dict[int, int] = {}
    for a, c in law.items():
        for b, d in step.items():
            key = op(a, b)
            out[key] = out.get(key, 0) + c * d
    return out


def bns_rhs(fn: str, n: int, k: int, cap: int = DEFAULT_DISC_CAP) -> Fraction:
    """E over independent uniform pairs (u_i^0, u_i^1) of n-bit columns of
    the product of phi(u^z) over z in {0,1}^k, conjugated at odd-weight z,
    with phi = (-1)^fn for "gip" and "disj" and the mod-3 character for
    "mod3char": the Babai-Nisan-Szegedy bound on |E phi chi|^(2^k) for every
    cylinder intersection chi.

    The rows are iid. At one row, column i's pair of bits is the set S_i of
    the z_i with u_i^(z_i) = 1, and the row of u^z is all ones iff z lies in
    S_1 x ... x S_k, odd iff an odd number of i have z_i in S_i. A walk over
    the columns gives the law of a row's z-mask; a walk over the rows folds
    the masks into the parity of the all-ones count summed over z (gip), the
    z with an all-ones row (disj), or sum_z (-1)^|z| [row odd] mod 3.
    """
    if fn not in ("gip", "disj", "mod3char"):
        raise ValueError(f"unknown fn {fn!r}")
    check_bns_pairs((1 << n,) * k, cap)
    char = fn == "mod3char"
    zs = range(1 << k)
    full = (1 << len(zs)) - 1
    row = {0 if char else full: 1}
    for i in range(k):
        ones = sum(1 << z for z in zs if z >> i & 1)  # S_i = {}, {0}, {1}, {0,1}:
        sets = dict.fromkeys((0, full ^ ones, ones, full), 1)
        row = _convolve(row, sets, operator.xor if char else operator.and_)
    if fn == "gip":
        fold = lambda parity, mask: parity ^ (mask.bit_count() & 1)
    elif fn == "disj":  # (-1)^(2^k - |union|) = (-1)^|union|
        fold = operator.or_
    else:
        even = sum(1 << z for z in zs if not z.bit_count() & 1)
        fold = lambda e, mask: (e + 2 * (mask & even).bit_count() - mask.bit_count()) % 3
    law = {0: 1}
    for _ in range(n):
        law = _convolve(law, row, fold)
    if char:  # sum_e c_e omega^e is real iff c_1 = c_2, and then it is c_0 - c_1
        c0, c1, c2 = (law.get(e, 0) for e in range(3))
        if c1 != c2:
            raise AssertionError(f"tensor average should be real, got counts {c0, c1, c2}")
        total = c0 - c1
    else:
        total = sum(-c if state.bit_count() & 1 else c for state, c in law.items())
    return Fraction(total, 4 ** (n * k))


def check_bns_pairs(sizes: Sequence[int], cap: int) -> None:
    """The cap check of bns_rhs, which averages over prod_i s_i^2 pairs
    (u^0, u^1) of a product set with player sizes s_i; it reads the sizes
    alone, so bns_rhs runs it before any walk."""
    pairs = math.prod(s * s for s in sizes)
    if pairs > cap:
        power = pairs.bit_length() - 1
        count = f"2^{power}" if pairs == 1 << power else str(pairs)
        raise CapExceeded(f"{count} (u0,u1) tuples exceed cap {cap}")


def mod3_char_bns_closed_form(n: int, k: int) -> Fraction:
    """bns_rhs("mod3char", n, k) in closed form: (1 - 3/2^(k+1))^n."""
    return (1 - Fraction(3, 2 ** (k + 1))) ** n


# ---------------------------------------------------------------------------
# bound suite


def _stacked(block: DistributionSpec, m: int) -> dict[int, Fraction]:
    """The product weight of m stacked copies of block, keyed by matrix code:
    copy b holds rows [b n, (b+1) n), so its code sits at bit b n k."""
    width = block.n * block.k
    support = {}
    for code, x in enumerate(all_inputs(block.n, block.k)):
        w = block.pmf(x)
        if w:
            support[code] = w
    out = {0: Fraction(1)}
    for b in range(m):
        out = {c | bc << (b * width): w * bw for c, w in out.items() for bc, bw in support.items()}
    return out


def _disc_value(q: CorrelationQuery, cap: int, tape: RandomTape):
    try:
        return float(exact_disc(q, cap)), "exact"
    except CapExceeded:
        return float(heuristic_disc(q, restarts=4, tape=tape, cap=cap)), "heuristic"


def bound_suite(n: int, k: int, ell: int, m: int = 1, cap: int = DEFAULT_DISC_CAP) -> list[dict]:
    """Evaluate every analytic discrepancy bound at one (n, k, ell, m) point.

    Each row compares the bound's numeric value against the exact (or, past
    the cap, heuristic lower-bound) discrepancy of the instance it speaks
    about. VACUOUS marks bounds >= 1; VIOLATION (which must never happen)
    marks a measured value above the bound.
    """
    if not 1 <= ell <= k:
        raise ValueError("need 1 <= ell <= k")
    tape = RandomTape(master_seed=20)
    rows = []

    def add(name, family, target, weight, bound, strict=False):
        q = CorrelationQuery(target=target, weight=weight, family=family)
        value, mode = _disc_value(q, cap, tape)
        bound = float(bound)
        if (value >= bound) if strict else (value > bound + 1e-12):
            status = "VIOLATION"
        elif bound >= 1:
            status = "VACUOUS"
        else:
            status = "OK"
        rows.append(
            {
                "name": name,
                "family": "all" if family is None else f"ell={family}",
                "value": value,
                "bound": bound,
                "mode": mode,
                "status": status,
            }
        )

    add(
        "gip-uniform",
        None,
        gip_spec(n, k),
        make_dist("uniform", n, k),
        (1 - Fraction(1, 4 ** (k - 1))) ** n,
    )
    add(
        "gip-upsilon-ell",
        ell,
        gip_spec(n, k),
        make_dist("upsilon", n, k, ell=ell),
        (1 - Fraction(1, 2 ** (ell - 1) * binom_leq(k, ell))) ** n,
    )
    if k > 1 or n == 1:  # mu has no support at k = 1, n > 1
        add(
            "disj-mu-xor",
            None,
            xor_of_disj_spec(m, n, k),
            _stacked(make_dist("mu", n, k), m),
            (2 ** (k - 1) - 1) ** m / math.sqrt(n ** m),
        )
    add(
        "disj-sigma-xor",
        None,
        xor_of_disj_spec(m, n, k),
        _stacked(make_dist("sigma", n, k), m),
        ((math.sqrt(2 ** k - 1) + 1) * math.sqrt(2 ** k - 2) / 2) ** m
        / math.sqrt(n ** m),
    )
    add(
        "disj-sigma-ell-xor",
        ell,
        xor_of_disj_spec(m, n, k),
        _stacked(make_dist("sigma_ell", n, k, ell=ell), m),
        (2 ** ell - 1) ** (m / 2)
        * (binom_leq(k, ell) - 1) ** (m / 2)
        / math.sqrt(n ** m),
    )
    add(
        "mod3-nu",
        ell,
        mod3xor_spec(n, k),
        make_dist("nu", n, k),
        2 * math.exp(-n / 4 ** ell),
    )
    add(
        "mod3-char",
        ell,
        CharacterSpec(n=n, k=k),
        None,
        math.exp(-n / 4 ** ell),
        strict=True,
    )
    return rows

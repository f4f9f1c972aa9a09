"""Correlation and discrepancy oracles.

Discrepancy of F under weight mu, for a family of cylinder intersections, is
the maximum of |sum_x mu(x) (-1)^F(x) chi(x)| over the family. The family is
either a fixed player subset S (only those players get non-constant tables),
a budget ell (all subsets of size <= ell), or every player. Everything here
is brute force: the point is exact desk-scale values to hold the analytic
bounds against, not scalability. exact_disc enumerates all table tuples, so
it is doubly exponential and guarded by a cap; heuristic_disc is a local
search usable far past that cap, under a cap of its own on the 2^(nk)
inputs it sweeps; bns_rhs evaluates the tensor-product quantity
that upper-bounds |E phi chi|^(2^k) for every cylinder intersection chi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .combinatorics import binom_leq
from .core import CylinderIntersection, all_ones_cylinder
from .distributions import DistributionSpec, make_dist
from .functions import (
    PartialFunctionSpec,
    UNDEFINED,
    gip_spec,
    mod3xor_spec,
    xor_of_disj_spec,
)
from .matrices import InputMatrix, player_view
from .tape import RandomTape

DEFAULT_DISC_CAP = 1 << 20


class CapExceeded(ValueError):
    """Requested enumeration is larger than the cap allows."""


@dataclass(frozen=True)
class CharacterSpec:
    """The complex character X -> e((number of odd-parity rows)/3)."""

    n: int
    k: int
    name: str = "mod3char"

    def evaluate(self, x: InputMatrix) -> complex:
        t = sum(bin(r).count("1") & 1 for r in x.rows)
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


def _chi_allowed(q: CorrelationQuery, chi: CylinderIntersection) -> bool:
    if isinstance(q.family, int):
        return len(chi.players) <= q.family
    if q.family is None:
        return True
    return set(chi.players) <= set(q.family)


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
        for code in range(1 << (n * k)):
            x = InputMatrix.from_code(n, k, code)
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


def correlation(q: CorrelationQuery, chi: CylinderIntersection) -> Union[Fraction, float]:
    """|sum over the domain of weight * (-1)^target * chi|, computed exactly
    (a Fraction) for Boolean targets with exact weights."""
    if (chi.n, chi.k) != (q.n, q.k):
        raise ValueError(f"cylinder is {chi.n}x{chi.k}, query is {q.n}x{q.k}")
    if not _chi_allowed(q, chi):
        raise ValueError(f"cylinder players {chi.players} outside the query family")
    total = 0
    for x, c in _signed_items(q):
        if chi.evaluate(x):
            total = total + c
    return _magnitude(total)


def _view_index_table(items, player: int) -> list[int]:
    return [player_view(x, player).encode() for x, _ in items]


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
    tables_per_player = 1 << view_space
    best = None
    for S in subsets:
        vidx = [_view_index_table(items, i) for i in S]
        for tabs in product(range(tables_per_player), repeat=len(S)):
            total = 0
            for pos, (_, c) in enumerate(items):
                if all((tabs[j] >> vidx[j][pos]) & 1 for j in range(len(S))):
                    total = total + c
            value = _magnitude(total)
            if best is None or value > best:
                best = value
    return best if best is not None else Fraction(0)


def enumerate_cylinders(n: int, k: int, players: Sequence[int]) -> Iterator[CylinderIntersection]:
    """Every cylinder intersection whose non-constant factors sit on the
    given players. Table order is numeric, so iteration is deterministic."""
    players = tuple(players)
    view_space = 1 << ((k - 1) * n)
    for tabs in product(range(1 << view_space), repeat=len(players)):
        tables = tuple(
            np.array([(t >> v) & 1 for v in range(view_space)], dtype=np.uint8)
            for t in tabs
        )
        yield CylinderIntersection(n=n, k=k, players=players, tables=tables)


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
    is_char = isinstance(q.target, CharacterSpec)
    view_space = 1 << ((q.k - 1) * q.n)
    best = allones
    for S in subsets:
        vidx = [_view_index_table(items, i) for i in S]
        for r in range(restarts):
            if r == 0:
                tabs = [(1 << view_space) - 1] * len(S)
            else:
                tabs = [
                    tape.randbelow(f"disc/S{'_'.join(map(str, S))}/r{r}/p{i}", 1 << view_space)
                    for i in S
                ]
            goals = ("complex",) if is_char else (1, -1)
            for goal in goals:
                cur = list(tabs)
                value = _sweep_to_fixed_point(items, vidx, cur, view_space, goal)
                if value > best:
                    best = value
    return best


def _sweep_to_fixed_point(items, vidx, tabs, view_space, goal) -> Union[Fraction, float]:
    """Alternating entrywise optimization; mutates tabs, returns |total|."""

    def passing(skip: Optional[int]):
        for pos, (_, c) in enumerate(items):
            if all(
                j == skip or (tabs[j] >> vidx[j][pos]) & 1 for j in range(len(tabs))
            ):
                yield pos, c

    for _ in range(64):
        changed = False
        for j in range(len(tabs)):
            if goal == "complex":
                total = sum(c for _, c in passing(None))
                phase = total / abs(total) if abs(total) > 1e-15 else 1.0
            coeff = [0] * view_space
            for pos, c in passing(j):
                if goal == "complex":
                    coeff[vidx[j][pos]] += (c * phase.conjugate()).real
                else:
                    coeff[vidx[j][pos]] += goal * c
            new = 0
            for v, a in enumerate(coeff):
                if a >= 0:  # ties (and untouched entries) stay on
                    new |= 1 << v
            if new != tabs[j]:
                tabs[j] = new
                changed = True
        if not changed:
            break
    total = sum(c for _, c in passing(None))
    return _magnitude(total)


# ---------------------------------------------------------------------------
# tensor-product bound


def bns_rhs(phi: np.ndarray, cap: int = DEFAULT_DISC_CAP) -> float:
    """E over independent pairs (u_i^0, u_i^1) of the 2^k-fold product of
    phi(u^z) over z in {0,1}^k, conjugated at odd-weight z.

    For every cylinder intersection chi on the same product set,
    |E phi chi|^(2^k) is at most this value, which makes it a discrepancy
    bound that needs no cylinder enumeration. phi is a complex array whose
    i-th axis ranges over player i's universe.
    """
    sizes = phi.shape
    k = phi.ndim
    check_bns_pairs(sizes, cap)
    grand = np.ones([1] * (2 * k), dtype=np.complex128)
    for z in range(1 << k):
        shape = [1] * (2 * k)
        for i in range(k):
            shape[2 * i + ((z >> i) & 1)] = sizes[i]
        term = phi.reshape(shape)
        if bin(z).count("1") & 1:
            term = np.conj(term)
        grand = grand * term
    value = complex(grand.mean())
    if abs(value.imag) > 1e-9:
        raise AssertionError(f"tensor average should be real, got {value}")
    return max(value.real, 0.0)


def check_bns_pairs(sizes: Sequence[int], cap: int) -> None:
    """The cap check of bns_rhs, which averages over prod_i s_i^2 pairs
    (u^0, u^1); it reads phi's shape alone, so callers run it before they
    build phi."""
    pairs = math.prod(s * s for s in sizes)
    if pairs > cap:
        power = pairs.bit_length() - 1
        count = f"2^{power}" if pairs == 1 << power else str(pairs)
        raise CapExceeded(f"{count} (u0,u1) tuples exceed cap {cap}")


def mod3_char_array(n: int, k: int) -> np.ndarray:
    """phi as a k-axis array over column values: phi(c_1..c_k) depends on the
    bitwise XOR of the columns (row XORs are exactly its bits)."""
    pop = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.int64)
    idx = np.zeros((1 << n,) * k, dtype=np.int64)
    for i in range(k):
        shape = [1] * k
        shape[i] = 1 << n
        idx = np.bitwise_xor(idx, np.arange(1 << n, dtype=np.int64).reshape(shape))
    return np.exp(2j * np.pi * (pop[idx] % 3) / 3)


def mod3_char_bns_closed_form(n: int, k: int) -> float:
    return float((1 - 3 * Fraction(1, 2 ** (k + 1))) ** n)


def uniform_char_correlation(n: int, k: int, chi: CylinderIntersection) -> float:
    """|E_X character * chi(X)| with X uniform, the quantity the strict
    exp(-n/4^ell) bound is about."""
    q = CorrelationQuery(target=CharacterSpec(n=n, k=k), weight=None, family=None)
    return float(correlation(q, chi))


# ---------------------------------------------------------------------------
# bound suite


@dataclass(frozen=True)
class _TensorWeight:
    """Product weight over stacked blocks of equal shape."""

    block: DistributionSpec
    m: int

    @property
    def n(self) -> int:
        return self.block.n * self.m

    @property
    def k(self) -> int:
        return self.block.k

    def pmf(self, x: InputMatrix):
        nb = self.block.n
        w = Fraction(1)
        for b in range(self.m):
            piece = InputMatrix(k=x.k, rows=x.rows[b * nb : (b + 1) * nb])
            w = w * self.block.pmf(piece)
            if not w:
                break
        return w


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
    add(
        "disj-mu-xor",
        None,
        xor_of_disj_spec(m, n, k),
        _TensorWeight(block=make_dist("mu", n, k), m=m),
        (2 ** (k - 1) - 1) ** m / math.sqrt(n ** m),
    )
    add(
        "disj-sigma-xor",
        None,
        xor_of_disj_spec(m, n, k),
        _TensorWeight(block=make_dist("sigma", n, k), m=m),
        ((math.sqrt(2 ** k - 1) + 1) * math.sqrt(2 ** k - 2) / 2) ** m
        / math.sqrt(n ** m),
    )
    add(
        "disj-sigma-ell-xor",
        ell,
        xor_of_disj_spec(m, n, k),
        _TensorWeight(block=make_dist("sigma_ell", n, k, ell=ell), m=m),
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

"""The Boolean targets the protocols compute, plus block composition.

All of these consume an InputMatrix. GIP is 1 iff the number of all-ones rows
is odd; DISJ is 1 iff there is no all-ones row; UDISJ is DISJ restricted to
the promise of at most one all-ones row (undefined elsewhere); MOD3_XOR is
1 iff the sum over rows of the row XOR is divisible by 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .matrices import InputMatrix


class _Undefined:
    """Out-of-promise marker; compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        raise TypeError("UNDEFINED has no truth value")


UNDEFINED = _Undefined()
Value = Union[int, _Undefined]


def _all_ones_rows(x: InputMatrix) -> int:
    return x.rows.count((1 << x.k) - 1)


def eval_gip(x: InputMatrix) -> int:
    """Parity of the number of all-ones rows."""
    return _all_ones_rows(x) & 1


def eval_disj(x: InputMatrix) -> int:
    """1 iff the columns are disjoint as sets, i.e. no all-ones row."""
    return 1 if _all_ones_rows(x) == 0 else 0


def eval_udisj(x: InputMatrix) -> Value:
    """DISJ under the unique-intersection promise: at most one all-ones row."""
    ones = _all_ones_rows(x)
    if ones > 1:
        return UNDEFINED
    return 1 if ones == 0 else 0


def eval_mod3xor(x: InputMatrix) -> int:
    """1 iff sum over rows of (XOR of the row) is 0 mod 3."""
    total = sum(r.bit_count() & 1 for r in x.rows)
    return 1 if total % 3 == 0 else 0


_INNER: dict[str, Callable[[InputMatrix], Value]] = {
    "gip": eval_gip,
    "disj": eval_disj,
    "udisj": eval_udisj,
    "mod3xor": eval_mod3xor,
}


def eval_composed(outer: str, inner: str, blocks: Sequence[InputMatrix]) -> Value:
    """Outer combiner applied to per-block inner values.

    outer is one of "xor", "and", "uand". A composed value is undefined when
    any inner value is undefined, or when the tuple of inner values falls
    outside the outer promise (uand needs at most one zero).
    """
    if not blocks:
        raise ValueError("need at least one block")
    if any(b.k != blocks[0].k for b in blocks):
        raise ValueError("blocks must share k")
    try:
        f = _INNER[inner]
    except KeyError:
        raise ValueError(f"unknown inner function {inner!r}") from None

    vals = [f(b) for b in blocks]
    if any(v is UNDEFINED for v in vals):
        return UNDEFINED
    if outer == "xor":
        return sum(vals) & 1
    if outer == "and":
        return 1 if all(vals) else 0
    if outer == "uand":
        zeros = sum(1 for v in vals if v == 0)
        if zeros >= 2:
            return UNDEFINED
        return 1 if zeros == 0 else 0
    raise ValueError(f"unknown outer combiner {outer!r}")


@dataclass(frozen=True)
class PartialFunctionSpec:
    """A (possibly partial) target on n x k matrices, usable by the
    discrepancy module: evaluate() returns 0/1/UNDEFINED, in_domain() tells
    whether the input satisfies the promise."""

    n: int
    k: int
    evaluate: Callable[[InputMatrix], Value]

    def in_domain(self, x: InputMatrix) -> bool:
        return self.evaluate(x) is not UNDEFINED


def gip_spec(n: int, k: int) -> PartialFunctionSpec:
    return PartialFunctionSpec(n, k, eval_gip)


def disj_spec(n: int, k: int) -> PartialFunctionSpec:
    return PartialFunctionSpec(n, k, eval_disj)


def udisj_spec(n: int, k: int) -> PartialFunctionSpec:
    return PartialFunctionSpec(n, k, eval_udisj)


def mod3xor_spec(n: int, k: int) -> PartialFunctionSpec:
    return PartialFunctionSpec(n, k, eval_mod3xor)


def xor_of_disj_spec(m: int, n: int, k: int) -> PartialFunctionSpec:
    """XOR of m DISJ blocks, each n x k, stacked vertically (m*n rows)."""

    def ev(x: InputMatrix) -> Value:
        if x.n != m * n:
            raise ValueError("row count must be m*n")
        blocks = [InputMatrix(k=x.k, rows=x.rows[i * n : (i + 1) * n]) for i in range(m)]
        return eval_composed("xor", "disj", blocks)

    return PartialFunctionSpec(m * n, k, ev)


__all__ = [
    "UNDEFINED",
    "eval_gip",
    "eval_disj",
    "eval_udisj",
    "eval_mod3xor",
    "eval_composed",
    "PartialFunctionSpec",
    "gip_spec",
    "disj_spec",
    "udisj_spec",
    "mod3xor_spec",
    "xor_of_disj_spec",
]

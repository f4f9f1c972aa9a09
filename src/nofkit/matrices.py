"""Boolean input matrices and per-player views.

An input is an n x k Boolean matrix: row i is the i-th item, column j is the
bits held on player j's forehead. Player j sees every column except its own.

Rows are stored as Python ints (bit j-1 of ``rows[i]`` is the cell in column
j), which keeps pattern tests cheap for the protocol implementations. A
matrix's code packs row i into bits [i*k, (i+1)*k); ``all_inputs`` is the one
whole-domain enumerator, yielding every input in code order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class InputMatrix:
    """Immutable n x k Boolean matrix; columns are numbered 1..k."""

    k: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one column")
        if not self.rows:
            raise ValueError("need at least one row")
        for r in self.rows:
            if not 0 <= r < (1 << self.k):
                raise ValueError(f"row {r} out of range for k={self.k}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_bits(cls, bits: Iterable[Iterable[int]]) -> "InputMatrix":
        """Build from a row-major list of 0/1 lists."""
        rows = []
        k = None
        for row in bits:
            row = list(row)
            if k is None:
                k = len(row)
            elif len(row) != k:
                raise ValueError("ragged rows")
            if any(b not in (0, 1) for b in row):
                raise ValueError("cells must be 0 or 1")
            rows.append(sum(b << j for j, b in enumerate(row)))
        if k is None:
            raise ValueError("need at least one row")
        return cls(k=k, rows=tuple(rows))

    @classmethod
    def from_code(cls, n: int, k: int, code: int) -> "InputMatrix":
        """Decode a row-major integer code: row i occupies bits [i*k, (i+1)*k)."""
        if not 0 <= code < 1 << (n * k):
            raise ValueError("code out of range")
        mask = (1 << k) - 1
        return cls(k=k, rows=tuple((code >> (i * k)) & mask for i in range(n)))

    def code(self) -> int:
        c = 0
        for i, r in enumerate(self.rows):
            c |= r << (i * self.k)
        return c

    def bit(self, row: int, col: int) -> int:
        """Cell at 0-based row, 1-based column."""
        if not 1 <= col <= self.k:
            raise IndexError(f"column {col} out of range")
        return (self.rows[row] >> (col - 1)) & 1

    def to_bits(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.k)] for r in self.rows]

    def stack(self, other: "InputMatrix") -> "InputMatrix":
        """Stack another matrix with the same k below this one."""
        if other.k != self.k:
            raise ValueError("column counts differ")
        return InputMatrix(k=self.k, rows=self.rows + other.rows)


def all_inputs(n: int, k: int) -> Iterator[InputMatrix]:
    """Every n x k input in code order, i.e. ``from_code(n, k, c)`` for
    c = 0, 1, ..., 2^(nk) - 1.

    Rows come from ``product``, reversed so that row 0 (a code's low bits)
    varies fastest; no code is decoded. Lazy: callers stream the domain.
    """
    for rows in product(range(1 << k), repeat=n):
        yield InputMatrix(k=k, rows=rows[::-1])


def stack_blocks(blocks: Sequence[InputMatrix]) -> InputMatrix:
    out = blocks[0]
    for b in blocks[1:]:
        out = out.stack(b)
    return out


class View:
    """What player ``player`` sees: every column of ``source`` except its own.

    Access to the hidden column raises, so protocol message rules cannot peek
    by accident. ``masked_row`` returns the row int with the hidden bit forced
    to zero; pattern masks used by the protocols never include that bit.
    """

    __slots__ = ("source", "player", "_hide")

    def __init__(self, source: InputMatrix, player: int):
        if not 1 <= player <= source.k:
            raise ValueError(f"player {player} out of range")
        self.source = source
        self.player = player
        self._hide = ~(1 << (player - 1))

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def k(self) -> int:
        return self.source.k

    @property
    def visible_columns(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.k + 1) if j != self.player)

    def bit(self, row: int, col: int) -> int:
        if col == self.player:
            raise PermissionError(f"player {self.player} cannot read its own column")
        return self.source.bit(row, col)

    def masked_row(self, row: int) -> int:
        return self.source.rows[row] & self._hide

    def encode(self) -> int:
        """Joint assignment index of the visible columns.

        Visible columns ascending, n bits each (row 0 is the LSB of its
        block). This is the table index used by cylinder intersections.
        """
        n = self.n
        out = 0
        for t, col in enumerate(self.visible_columns):
            for r in range(n):
                out |= self.source.bit(r, col) << (t * n + r)
        return out


def player_view(x: InputMatrix, player: int) -> View:
    return View(x, player)


def parse_matrix(text: str) -> InputMatrix:
    """Parse the text format: first line "n k", then n lines of k chars 0/1."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n k'")
    n, k = int(head[0]), int(head[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != k or set(ln) - {"0", "1"}:
            raise ValueError(f"bad row {ln!r}")
        rows.append([int(c) for c in ln])
    return InputMatrix.from_bits(rows)


def format_matrix(x: InputMatrix) -> str:
    body = "\n".join("".join(str(b) for b in row) for row in x.to_bits())
    return f"{x.n} {x.k}\n{body}\n"

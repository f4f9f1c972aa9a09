"""Table-driven mod3 pieces against the slow expansion and closures they
replace.

The references below are the earlier implementation kept as oracles: the
dict-based ``multiply_out`` expansion of the parity polynomial, the
``next(...)`` scan for a monomial's owner, and the per-monomial message
closure that tests every owned monomial against every block row.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit.core import run
from nofkit.matrices import InputMatrix, View
from nofkit.protocols import (
    _Plan,
    _partition_rows,
    _plan_message,
    expand_parity_poly,
    mod3_message_tables,
    mod3_params,
    mod3_protocol,
    monomial_partition,
    point_label,
)
from nofkit.tape import RandomTape

_GF3_BITS = {0: "00", 1: "01", 2: "10"}


def reference_coeffs(point, k):
    def multiply_out(consts):
        terms = {0: 1}
        for j, c in enumerate(consts):
            nxt = {}
            for mask, coeff in terms.items():
                nxt[mask | (1 << j)] = (nxt.get(mask | (1 << j), 0) + coeff) % 3
                if c:
                    nxt[mask] = (nxt.get(mask, 0) + coeff * c) % 3
            terms = {m: v for m, v in nxt.items() if v}
        return terms

    expanded = multiply_out([1] * k)
    second = multiply_out([(((point >> j) & 1) + 2) % 3 for j in range(k)])
    for mask, coeff in second.items():
        expanded[mask] = (expanded.get(mask, 0) - coeff) % 3
    expanded[0] = (expanded.get(0, 0) - 1) % 3
    return tuple(sorted((m, c) for m, c in expanded.items() if c))


def reference_items(point, k_eff):
    """Owned (monomial, coefficient) lists per player, owner found by scan."""
    assigned = {i: [] for i in range(1, k_eff + 1)}
    for mask, coeff in reference_coeffs(point, k_eff):
        owner = next(j for j in range(1, k_eff + 1) if not (mask >> (j - 1)) & 1)
        assigned[owner].append((mask, coeff))
    return assigned


def reference_message(view, rows, items, k_eff):
    low = (1 << (k_eff - 1)) - 1
    total = 0
    for ri in rows:
        masked = view.masked_row(ri)
        fold = bin(masked >> (k_eff - 1)).count("1") & 1
        eff = (masked & low) | (fold << (k_eff - 1))
        for mask, coeff in items:
            if eff & mask == mask:
                total += coeff
    return _GF3_BITS[total % 3]


def piece(view, rows, tables, player, k_eff):
    """The protocol's piece for one block and point: the player's message
    under a plan of one block over these rows, read at k_eff, with one
    repetition at this point."""
    plan = _Plan(q=3, calls=1, decide=lambda calls: int(calls[0] == 0))
    plan.add(0, rows, k_eff, [tables])
    return _plan_message(player, view, (), plan)


def test_closed_form_coefficients_match_multiply_out():
    for k in range(0, 9):
        for u in range(1 << k):
            assert expand_parity_poly(u, k).coeffs == reference_coeffs(u, k), (k, u)


def test_owner_bit_trick_matches_scan():
    for k in range(1, 9):
        for u in (0, (1 << k) - 1, 0b10110101 & ((1 << k) - 1)):
            owners = monomial_partition(u, k)
            for player, items in reference_items(u, k).items():
                assert all(owners[mask] == player for mask, _ in items)


def test_tables_match_their_closed_form():
    # T_i[w] = (-1)^|w| - [i = 1] + [u_i = 0][w = u >> i] (-1)^(k - i + |w|)
    for k in range(1, 9):
        for u in range(1 << k):
            tables = mod3_message_tables(u, k)
            assert sorted(tables) == list(range(1, k + 1))
            for i, table in tables.items():
                assert len(table) == 1 << (k - i)
                for w, value in enumerate(table):
                    want = (-1) ** w.bit_count() - (i == 1)
                    if not (u >> (i - 1)) & 1 and w == u >> i:
                        want += (-1) ** (k - i + w.bit_count())
                    assert value == want % 3, (k, u, i, w)


def test_messages_match_reference_exhaustively_at_small_shapes():
    # every input, point and speaking player at k_eff <= 4 and n <= 2, with
    # and without one folded column
    for k_eff in range(2, 5):
        for k in (k_eff, k_eff + 1):
            for n in (1, 2):
                rows = tuple(range(n))
                for u in range(1 << k_eff):
                    tables = mod3_message_tables(u, k_eff)
                    items = reference_items(u, k_eff)
                    for cells in product(range(1 << k), repeat=n):
                        x = InputMatrix(k=k, rows=cells)
                        for i in tables:
                            view = View(x, i)
                            assert piece(view, rows, tables, i, k_eff) == reference_message(
                                view, rows, items[i], k_eff
                            )


def reference_player_message(n, k, x, tape, player):
    """Player's whole message, rebuilt piece by piece from the reference
    closures and the protocol's own point draws."""
    params = mod3_params(n, k)
    view = View(x, player)
    out = []
    for b, block in enumerate(_partition_rows(range(n), k)):
        k_eff = params["k_effs"][b]
        if player > k_eff:
            continue
        for r in range(params["reps"][b]):
            point = tape.randbelow(point_label(b, r), 1 << k_eff)
            items = reference_items(point, k_eff)[player]
            out.append(reference_message(view, block, items, k_eff))
    return "".join(out)


def test_plan_slots_match_reference_on_seeded_samples():
    rng = np.random.default_rng(41)
    master = RandomTape(master_seed=9)
    for n, k, runs in [(128, 8, 3), (4, 8, 10), (3, 2, 10)]:
        protocol = mod3_protocol(n, k)
        for t in range(runs):
            x = InputMatrix(k=k, rows=tuple(int(r) for r in rng.integers(0, 1 << k, size=n)))
            tape = master.sub(f"{n}x{k}/{t}")
            entries = dict(run(protocol, x, tape).transcript.entries)
            for i in range(1, k + 1):
                want = reference_player_message(n, k, x, tape, i)
                assert entries.get(i, "") == want, (n, k, t, i)


@st.composite
def points_and_rows(draw):
    k_eff = draw(st.integers(1, 8))
    k = k_eff + draw(st.integers(0, 2))
    point = draw(st.integers(0, (1 << k_eff) - 1))
    rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=6))
    player = draw(st.integers(1, k_eff))
    return k_eff, k, point, tuple(rows), player


@settings(max_examples=60, deadline=None)
@given(points_and_rows())
def test_message_matches_reference_property(case):
    k_eff, k, point, cells, player = case
    x = InputMatrix(k=k, rows=cells)
    view = View(x, player)
    rows = tuple(range(len(cells)))
    tables = mod3_message_tables(point, k_eff)
    items = reference_items(point, k_eff)[player]
    assert piece(view, rows, tables, player, k_eff) == reference_message(
        view, rows, items, k_eff
    )

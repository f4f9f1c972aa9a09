import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit.matrices import (
    InputMatrix,
    View,
    all_inputs,
    format_matrix,
    parse_matrix,
    player_view,
    stack_blocks,
)


def test_from_bits_round_trip():
    x = InputMatrix.from_bits([[1, 0, 1], [0, 1, 1]])
    assert x.n == 2 and x.k == 3
    assert x.to_bits() == [[1, 0, 1], [0, 1, 1]]
    assert x.rows == (0b101, 0b110)


def test_code_round_trip_exhaustive_small():
    for code in range(1 << 6):
        x = InputMatrix.from_code(2, 3, code)
        assert x.code() == code
        assert InputMatrix.from_code(2, 3, x.code()).rows == x.rows


def test_all_inputs_is_from_code_in_code_order():
    for n in range(1, 13):
        for k in range(1, 12 // n + 1):
            decoded = [InputMatrix.from_code(n, k, c) for c in range(1 << (n * k))]
            assert list(all_inputs(n, k)) == decoded, (n, k)


def test_bit_addressing():
    x = InputMatrix.from_bits([[1, 0], [0, 1]])
    assert x.bit(0, 1) == 1
    assert x.bit(0, 2) == 0
    assert x.bit(1, 2) == 1
    with pytest.raises(IndexError):
        x.bit(0, 3)


def test_row_range_validated():
    with pytest.raises(ValueError):
        InputMatrix(k=2, rows=(4,))
    with pytest.raises(ValueError):
        InputMatrix(k=2, rows=())


def test_view_hides_own_column():
    x = InputMatrix.from_bits([[1, 1, 0]])
    v = player_view(x, 2)
    assert v.visible_columns == (1, 3)
    assert v.bit(0, 1) == 1
    with pytest.raises(PermissionError):
        v.bit(0, 2)


def test_masked_row_zeroes_hidden_bit():
    x = InputMatrix.from_bits([[1, 1, 1]])
    assert player_view(x, 1).masked_row(0) == 0b110
    assert player_view(x, 2).masked_row(0) == 0b101
    assert player_view(x, 3).masked_row(0) == 0b011


def test_view_encode_distinguishes_exactly_visible_content():
    # two inputs differing only in player 2's own column encode identically
    a = InputMatrix.from_bits([[1, 0, 1], [0, 1, 0]])
    b = InputMatrix.from_bits([[1, 1, 1], [0, 0, 0]])
    assert View(a, 2).encode() == View(b, 2).encode()
    assert View(a, 1).encode() != View(b, 1).encode()


def test_view_encode_covers_index_space():
    n, k = 2, 2
    seen = {View(InputMatrix.from_code(n, k, c), 1).encode() for c in range(1 << (n * k))}
    assert seen == set(range(1 << (n * (k - 1))))


def test_stack_blocks():
    a = InputMatrix.from_bits([[1, 0]])
    b = InputMatrix.from_bits([[0, 1], [1, 1]])
    s = stack_blocks([a, b])
    assert s.n == 3
    assert s.rows == a.rows + b.rows
    with pytest.raises(ValueError):
        a.stack(InputMatrix.from_bits([[1, 0, 0]]))


def test_parse_format_round_trip():
    text = "2 3\n101\n011\n"
    x = parse_matrix(text)
    assert format_matrix(x) == text
    assert x.rows == (0b101, 0b110)


@st.composite
def small_matrices(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=n, max_size=n))
    return InputMatrix.from_bits(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_parse_format_round_trip_property(x):
    assert parse_matrix(format_matrix(x)) == x


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n11\n")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n12\n")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n111\n")

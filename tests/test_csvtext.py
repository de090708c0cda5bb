from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm import csvtext
from tapearm.csvtext import BlockText

# one working set for every test: each call reuses what the last one left
TEXT = BlockText()


def _row(values):
    """One CSV row of the floats, each followed by a comma."""
    return TEXT.join_cells(TEXT.float_cells(np.array(values, dtype=np.float64)[None]))


def _reference(values):
    return "\n".join(map(repr, map(float, values))) + "\n"


_EDGES = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308,
    # powers of two (a lopsided rounding interval) and of ten
    0.5, 2.0, 1024.0, 2.0**-20, 2.0**49, 1e-5, 1e-4, 0.001, 0.1, 1.0, 10.0, 1e14, 1e15, 1e16,
    # either side of the fast path's bounds and of exponent notation
    np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 0.00010000000000000002,
    np.nextafter(1e15, 0.0), np.nextafter(1e15, 2e15), 999999999999999.9,
    np.nextafter(1e16, 0.0), np.nextafter(1e16, 2e16), 9999999999999998.0,
    # short decimals
    0.3, 0.7, 0.002 * 3, 0.002 * 7, 0.1 * 3, 0.1 * 7, 123.456, -0.0002, 0.29919999999999997,
    # the halfway values a tie sends to repr, at the last digit and one above
    1627795238560.5938, 562949953421312.25, 0.0010385513305664062, 0.17311477661132812,
    # sixteen and seventeen digits, large integers
    0.38397243543875437, -0.1498426373663655, 123456789012345.6, 999999999999999.0, 3.0,
]


def test_float_cells_match_repr_on_edge_values():
    assert _row(_EDGES) == "".join(f"{float(value)!r}," for value in _EDGES)
    for value in _EDGES:
        assert _row([value]) == f"{float(value)!r},", value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.1 * k for k in range(40)])
@example([0.002 * k for k in range(40)])
@example([k / 8 + 1 / 16 for k in range(2**49, 2**49 + 40)])
def test_float_cells_match_repr(values):
    assert _row(values) == "".join(f"{value!r}," for value in values)
    assert TEXT.join_cells(TEXT.float_cells(values, "\n")) == _reference(values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0, 2**63, 0x7FF0000000000000, 0xFFF8000000000000, 1, 0x000FFFFFFFFFFFFF])
def test_float_cells_match_repr_on_every_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert TEXT.join_cells(TEXT.float_cells(values, "\n")) == _reference(values.tolist())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-4, 1e15), min_size=1, max_size=40), st.booleans())
def test_float_cells_match_repr_on_the_fast_path(values, negate):
    values = [-v for v in values] if negate else values
    assert TEXT.join_cells(TEXT.float_cells(values, "\n")) == _reference(values)


def test_fast_path_calls_repr_only_off_it(monkeypatch):
    seen = []
    monkeypatch.setattr(csvtext, "repr", lambda value: seen.append(value) or repr(value),
                        raising=False)
    values = [0.1, -0.30000000000000004, 123.456, 0.0, 0.0, -0.0, 0.5, 1e-7, 1e-7,
              float("nan"), 1627795238560.5938]
    assert TEXT.join_cells(TEXT.float_cells(values, "\n")) == _reference(values)
    # each distinct value off the fast path once: a power of two, a tie, zeros,
    # exponent notation, NaN
    assert sorted(map(repr, seen)) == sorted(map(repr, [0.0, -0.0, 0.5, 1e-7, float("nan"),
                                                         1627795238560.5938]))


# Values only repr writes: zeros, exponent notation, subnormals, infinities,
# NaN, powers of two and a tie; and values the fast path writes.
_REPR_ONLY = [0.0, -0.0, 1e-17, 5e-324, -2.2250738585072014e-308, float("inf"), -float("inf"),
              float("nan"), 0.5, -1024.0, 2.0**-20, 1627795238560.5938]
_FAST = [0.1, -0.30000000000000004, 123.456, 0.38397243543875437, -0.0002, 999999999999999.0]


@pytest.mark.parametrize("block", [
    # columns of repr-only values, fast values, both, and one repeated zero
    np.stack([np.resize(_REPR_ONLY, 12), np.resize(_FAST, 12),
              np.resize(_REPR_ONLY[::2] + _FAST[::-2], 12), np.zeros(12)], axis=1),
    np.resize(_REPR_ONLY[::-1], (5, 3)),  # no fast-path value
    np.resize([0.0, 4.440892098500626e-16, 0.0, 1e-20], 9),  # a residual column's kind
], ids=["mixed-columns", "repr-only-table", "repr-only-column"])
def test_blocks_off_the_fast_path_call_repr_once_per_value(monkeypatch, block):
    seen = []
    monkeypatch.setattr(csvtext, "repr", lambda value: seen.append(value) or repr(value),
                        raising=False)
    rows = block.reshape(len(block), -1)
    cells = TEXT.float_cells(block, "," * (rows.shape[1] - 1) + "\n")
    assert TEXT.join_cells(cells.reshape(len(block), -1)) == "".join(
        ",".join(map(repr, row)) + "\n" for row in rows.tolist())
    # each distinct value off the fast path once, -0.0 and 0.0 apart
    distinct = np.unique(block.view(np.uint64)).view(np.float64).tolist()
    assert sorted(map(repr, seen)) == sorted(repr(value) for value in distinct
                                             if value not in _FAST)


def test_cells_of_a_table_join_row_by_row():
    table = np.array([[0.1, -2.5, 0.0], [1e-7, 3.0, 123456.789]])
    assert TEXT.join_cells(TEXT.float_cells(table)) == "0.1,-2.5,0.0,1e-07,3.0,123456.789,"
    texts = np.array(["a;μ".encode(), b""]).view(np.uint8).reshape(2, -1)
    newline = np.frombuffer(b"\n", np.uint8)
    assert TEXT.join_cells(TEXT.float_cells(table).reshape(2, -1), texts, newline) == (
        "0.1,-2.5,0.0,a;μ\n1e-07,3.0,123456.789,\n")
    assert TEXT.float_cells(np.empty((0, 3))).shape[:2] == (0, 3)
    assert TEXT.join_cells(TEXT.float_cells([])) == ""


def _join_reference(*cells):
    """join_cells's text from a mask over the joined frame: its NULs dropped by
    boolean indexing."""
    shape = np.broadcast_shapes(*(chars.shape[:-1] for chars in cells))
    frame = np.concatenate([np.broadcast_to(chars, shape + chars.shape[-1:]) for chars in cells],
                           axis=-1)
    return str(frame[frame != 0], "utf-8")


def _cells(texts, pad=0):
    """The UTF-8 of each text as a row of uint8, NUL-padded to the longest plus ``pad``."""
    encoded = [text.encode() for text in texts]
    cells = np.zeros((len(encoded), max(map(len, encoded), default=0) + pad), np.uint8)
    for row, chars in enumerate(encoded):
        cells[row, :len(chars)] = np.frombuffer(chars, np.uint8)
    return cells


@st.composite
def _cell_parts(draw):
    """One to four parts of cells with the same number of rows, or one row that
    broadcasts to every row. A cell is text of any characters, NUL among them,
    so NULs fall anywhere in a row and a row may be all NUL; a part's width is
    its longest cell plus 0-3 NUL columns, so a part may have zero width."""
    rows = draw(st.integers(0, 5))
    text = st.text(st.one_of(st.just("\0"), st.characters()), max_size=6)
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        shared = draw(st.booleans())
        cells = _cells(draw(st.lists(text, min_size=1 if shared else rows,
                                     max_size=1 if shared else rows)), draw(st.integers(0, 3)))
        parts.append(cells[0] if shared else cells)
    return parts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cell_parts())
@example([_cells(["a;μ", "", "\0\0"]), _cells(["", "", ""]), np.frombuffer(b"\n", np.uint8)])
@example([_cells(["\0€\0", "\0\0\0\0", "𝜃=0.1"], pad=2), np.zeros(0, np.uint8),
          _cells(["x\0y", "\0", "z"])])
@example([_cells([]), np.frombuffer(b"\0,", np.uint8)])
def test_join_cells_matches_the_mask_reference(parts):
    assert TEXT.join_cells(*parts) == _join_reference(*parts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_cell_parts(), st.sampled_from([1, 2, 7, 64]))
def test_join_cells_in_pieces_matches_the_mask_reference(parts, piece):
    # pieces of one row up to a few rows, not splitting a row's UTF-8
    with mock.patch.object(csvtext, "_JOIN_BYTES", piece):
        assert TEXT.join_cells(*parts) == _join_reference(*parts)

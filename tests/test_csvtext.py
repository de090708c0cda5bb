import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm import csvtext
from tapearm.csvtext import float_cells, join_cells


def _row(values):
    """One CSV row of the floats, each followed by a comma."""
    return join_cells(float_cells(np.array(values, dtype=np.float64)[None]))


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
    assert join_cells(float_cells(values, "\n")) == _reference(values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0, 2**63, 0x7FF0000000000000, 0xFFF8000000000000, 1, 0x000FFFFFFFFFFFFF])
def test_float_cells_match_repr_on_every_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert join_cells(float_cells(values, "\n")) == _reference(values.tolist())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-4, 1e15), min_size=1, max_size=40), st.booleans())
def test_float_cells_match_repr_on_the_fast_path(values, negate):
    values = [-v for v in values] if negate else values
    assert join_cells(float_cells(values, "\n")) == _reference(values)


def test_fast_path_calls_repr_only_off_it(monkeypatch):
    seen = []
    monkeypatch.setattr(csvtext, "repr", lambda value: seen.append(value) or repr(value),
                        raising=False)
    values = [0.1, -0.30000000000000004, 123.456, 0.0, 0.0, -0.0, 0.5, 1e-7, 1e-7,
              float("nan"), 1627795238560.5938]
    assert join_cells(float_cells(values, "\n")) == _reference(values)
    # each distinct value off the fast path once: a power of two, a tie, zeros,
    # exponent notation, NaN
    assert sorted(map(repr, seen)) == sorted(map(repr, [0.0, -0.0, 0.5, 1e-7, float("nan"),
                                                         1627795238560.5938]))


def test_cells_of_a_table_join_row_by_row():
    table = np.array([[0.1, -2.5, 0.0], [1e-7, 3.0, 123456.789]])
    assert join_cells(float_cells(table)) == "0.1,-2.5,0.0,1e-07,3.0,123456.789,"
    texts = np.array(["a;μ".encode(), b""]).view(np.uint8).reshape(2, -1)
    newline = np.frombuffer(b"\n", np.uint8)
    assert join_cells(float_cells(table).reshape(2, -1), texts, newline) == (
        "0.1,-2.5,0.0,a;μ\n1e-07,3.0,123456.789,\n")
    assert float_cells(np.empty((0, 3))).shape[:2] == (0, 3)
    assert join_cells(float_cells([])) == ""

"""CSV text of float64 blocks, byte for byte what ``repr`` gives each value.

A *cell* is one value's text and separator as uint8 columns, NUL where
unused. :func:`float_cells` finds the shortest round-trip digits of a block
with exact fixed-width arithmetic, as Ryu (Adams 2018) does for one value:
R = |x| * 10**k is an int64 plus a float (Dekker's product), with k putting R
in [1e16, 1e17), and the digits are R / 10**m rounded, for the largest m with
a multiple of 10**m within half an ulp of x, as Gay's (1990) shortest mode
gives ``repr``. Values outside 1e-4 <= |x| < 1e15, powers of two (a lopsided
interval), exponent notation, a bound within 1e-9 of an integer (its float
may round across it) and a tie between two candidates go to ``repr``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Floats a writer formats per block, at most: float_cells holds about 400
# bytes a float while it runs, so a block costs a few MB.
BLOCK_FLOATS = 8192

# Cell columns: a spare for the sign, the places 1e15..1e0, the point, the
# places 1e-1..1e-20 and the separator; a repr that falls back is <= 24 bytes.
_POINT, _TEXT, _WIDTH = 17, 38, 39
# Row start * (_WIDTH + 1) + end: keep the columns from start to end.
_KEEP = ((np.arange(_WIDTH) >= np.arange(_WIDTH)[:, None, None])
         & (np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None])).reshape(-1, _WIDTH)
# Four digit characters per uint32, in text order. A value's 20 digits sit
# between 16 and 36 '0's, so the 36 columns from 20 + (decimal exponent of
# its last digit) on hold the places 1e15..1e-20.
_DIGITS4 = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_DIGITS4 = (_DIGITS4 % 10 + ord("0")).astype(np.uint8).view("<u4")[:, 0]
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_SCALE = 10.0 ** np.arange(23)  # exact up to 1e22
# Veltkamp's split of each scale into two 26-bit halves, for Dekker's product.
_SCALE_HI = _SCALE * 134217729.0 - (_SCALE * 134217729.0 - _SCALE)


def float_cells(values, sep=","):
    """Cells of the ``repr`` of every float in ``values``, each followed by ``sep``:
    uint8, of shape values.shape + (width,)."""
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return np.full(values.shape + (1,), ord(sep), np.uint8)
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15) & (x.view(np.uint64) << np.uint64(12) != 0)
    a = np.where(fast, a, 1.5)  # a fast-path value keeps every row warning-free
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    p = a * _SCALE[k]
    k += (p < 1e16).astype(np.int64) - (p >= 1e17)
    scale = _SCALE[k]
    p = a * scale
    a_hi, b_hi = a * 134217729.0 - (a * 134217729.0 - a), _SCALE_HI[k]
    a_lo, b_lo = a - a_hi, scale - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo  # a * scale - p
    bounds = err + np.spacing(a) * 0.5 * scale * np.array([[-1.0], [1.0]])
    doubt = (np.abs(bounds - np.rint(bounds)) < 1e-9).any(axis=0)
    big = p.astype(np.int64)
    lo = big + np.ceil(bounds[0]).astype(np.int64)
    hi = big + np.floor(bounds[1]).astype(np.int64)

    # m: the largest power of ten with a multiple in [lo, hi]. hi - lo < 23,
    # so a multiple of 100 there is the only one of each higher power too,
    # and m is 2 + the trailing zeros of hundreds, found 8, 4, 2, 1 at a time.
    hundreds = hi // 100
    m = (hi // 10 * 10 >= lo).astype(np.int64)
    deep = np.flatnonzero(hundreds * 100 >= lo)
    hundreds = hundreds[deep]
    zeros = np.ones(deep.size, np.int64)
    for power in (8, 4, 2, 1):
        shorter = hundreds // 10**power
        whole = shorter * 10**power == hundreds
        hundreds = np.where(whole, shorter, hundreds)
        zeros += whole * power
    m[deep] += zeros

    # Round R / 10**m to the nearest integer, with R = near + frac exactly
    # (|frac| <= 1/2); an exact tie goes to repr.
    near = np.rint(err)
    frac = err - near
    near = big + near.astype(np.int64)
    step = _POW10[m]
    digits = near // step
    rest = near - digits * step
    half = step // 2
    digits += (m > 0) & ((rest > half) | ((rest == half) & (frac > 0)))
    tie = np.where(m == 0, np.abs(frac) == 0.5, (rest == half) & (frac == 0))
    # The value is 0.<digits> * 10**point, its last digit at 10**last.
    rounded = digits * step
    point = 17 + (rounded >= 10**17).astype(np.int64) - (rounded < 10**16) - k
    last = m - k
    fallback = ~fast | doubt | tie | (point < -3) | (point > 16)

    groups = np.empty((5, x.size), np.int64)
    for group in groups[::-1]:
        rest = digits // 10_000
        np.subtract(digits, rest * 10_000, out=group)
        digits = rest
    table = np.full((x.size, 18), _DIGITS4[0])
    table[:, 4:9] = _DIGITS4[groups].T
    window = sliding_window_view(table.view(np.uint8), 36, axis=1)[np.arange(x.size), 20 + last]
    chars = np.empty((x.size, _WIDTH), np.uint8)
    chars[:, 1:_POINT] = window[:, :_POINT - 1]
    chars[:, _POINT] = ord(".")
    chars[:, _POINT + 1:_TEXT] = window[:, _POINT - 1:]
    negative = x < 0
    start = _POINT - np.maximum(point, 1) - negative
    end = _POINT + 1 + np.maximum(-last, 1)
    chars[negative, start[negative]] = ord("-")

    slow = np.flatnonzero(fallback)
    if slow.size:
        # each distinct value once: a log column of zeros costs one repr
        distinct, which = np.unique(x[slow].view(np.uint64), return_inverse=True)
        texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=bytes)[which]
        # from the first column a fast-path cell starts at, if the text fits
        begin = min(start[~fallback].min(initial=_POINT - 1), _TEXT - texts.itemsize)
        chars[slow, begin:begin + texts.itemsize] = texts.view(np.uint8).reshape(slow.size, -1)
        start[slow] = begin
        end[slow] = begin + np.char.str_len(texts)
    first, stop = start.min(initial=_POINT - 1), end.max(initial=_POINT + 1)
    chars = chars[:, first:stop + 1]
    chars *= np.take(_KEEP, start * (_WIDTH + 1) + end, axis=0)[:, first:stop + 1]
    chars[:, -1] = ord(sep)
    return chars.reshape(values.shape + chars.shape[-1:])


def join_cells(*cells) -> str:
    """The text of rows of cells, uint8 arrays whose leading shapes broadcast to one."""
    shape = np.broadcast_shapes(*(chars.shape[:-1] for chars in cells))
    frame = np.concatenate([np.broadcast_to(c, shape + c.shape[-1:]) for c in cells], axis=-1)
    return frame[frame != 0].tobytes().decode()

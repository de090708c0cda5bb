"""CSV text of float64 blocks, byte for byte what ``repr`` gives each value.

A *cell* is one value's text and separator as uint8 columns, NUL where
unused. :meth:`BlockText.float_cells` finds the shortest round-trip digits of
a block with exact fixed-width arithmetic, as Ryu (Adams 2018) does for one
value: R = |x| * 10**k is an int64 plus a float (Dekker's product), with k
putting R in [1e16, 1e17), and the digits are R rounded to a multiple of
10**m, for the largest m with a multiple of 10**m within half an ulp of x, as
Gay's (1990) shortest mode gives ``repr``. The half ulp comes from x's
exponent bits. Values outside 1e-4 <= |x| < 1e15, powers of two (a lopsided
interval), exponent notation, a bound within 1e-9 of an integer (its float
may round across it) and a tie between two candidates go to ``repr``, once
per distinct value; a call with no value on the fast path goes there at
once, so a column such as the run log's eq. 3 residual, zero or below 1e-4,
is best formatted in a call of its own.

A cell is a row of little-endian uint32 words of four characters: the
integer part's places in groups of four, the last group of three followed by
the point, the fraction's places 1e-1..1e-20 in groups of four, and the
separator, with only the words some cell of the block uses. Each group comes
from one table lookup that writes NUL for the integer part's leading zeros
and the fraction's trailing zeros, so a cell needs no per-value shift or
mask. :meth:`BlockText.join_cells` drops the NULs of a frame of cells in one
``bytes.translate`` pass and decodes it once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Floats a writer formats per block, at most. A writer call allocates one
# BlockText, whose working set of about 300 bytes a float (5 MB) every block
# reuses. On the run log, half as many were 10 % slower, twice as many no
# faster for 4.5 MB more, and four times as many 9 % slower.
BLOCK_FLOATS = 16384

# join_cells drops the NULs of this many bytes of a frame at a time, at most: the
# bytes copies of larger pieces fault in fresh pages on every frame, where
# smaller ones reuse the allocator's free memory.
_JOIN_BYTES = 1 << 17

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_SCALE = 10.0 ** np.arange(23)  # exact up to 1e22
# Veltkamp's split of each scale into two 26-bit halves, for Dekker's product.
_SCALE_HI = _SCALE * 134217729.0 - (_SCALE * 134217729.0 - _SCALE)
# A fast-path value is R / 10**k with 1 <= k <= 20. The fraction f of R / 10**k,
# in units of 10**-k, splits into the places 1e-1..1e-4, the head
# (f * _UP[k]) // _DOWN[k], and 1e-5..1e-20, the tail: the remainder times _TAIL[k].
_DOWN = _POW10[np.maximum(np.arange(21) - 4, 0)]
_UP = _POW10[np.maximum(4 - np.arange(21), 0)]
_TAIL = 10**16 // _DOWN


@functools.cache
def _group_table():
    """Four-character groups of 0..9999, one table of 10_000 per kind: 0 every
    digit, 1 leading zeros NUL, 2 trailing zeros NUL, 3 the same but 0 is '0',
    4 the last three digits and the point, 5 the same with leading zeros NUL
    but 0 as '0.'; as read-only uint32 words. Built by the first BlockText, so
    a process that writes no CSV neither builds nor holds it."""
    group = np.arange(10_000, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], np.uint16)
    lead = group >= places
    trail = group % (places * 10) != 0
    chars = (group // places % 10).astype(np.uint8) + np.uint8(ord("0"))
    point = np.roll(chars, -1, axis=1)
    point[:, 3] = ord(".")
    table = np.concatenate([chars, chars * lead, chars * trail, chars * (trail | (places == 1000)),
                            point, point * (np.roll(lead, -1, axis=1) | (places <= 10))])
    table = table.view("<u4").reshape(-1)
    table.flags.writeable = False
    return table


# Offsets of kinds of _group_table. Kinds 1 and 5, 10_000 past kinds 0 and 4,
# are the same words with leading zeros NUL.
_TRAIL, _TRAIL_ZERO, _POINT = (10_000 * kind for kind in (2, 3, 4))


class BlockText:
    """One working set for formatting and joining blocks of cells.

    The buffers grow to the largest block seen and are reused for every
    block after it. The cells that :meth:`float_cells` returns are a view of
    them, valid until its next call: copy cells that must outlive it.
    """

    def __init__(self):
        self._groups = _group_table()
        self._size = 0
        self._frame = np.empty(0, np.uint8)

    def _reserve(self, size):
        if size > self._size:
            self._size = size
            self._floats = np.empty((10, size))
            self._ints = np.empty((8, size), np.int64)
            self._bools = np.empty((6, size), bool)
            # a cell has at most 11 words: 5 of the integer part and the point,
            # 5 of the fraction and the separator; a repr text fills at most 6
            self._words = np.empty(size * 11, "<u4")

    def float_cells(self, values, sep=","):
        """Cells of the ``repr`` of every float in ``values``, each followed by
        ``sep`` (one character, or one per column of ``values``): uint8, of
        shape values.shape + (width,)."""
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if not n:
            return np.zeros(values.shape + (4,), np.uint8)
        self._reserve(n)
        f, i, b = self._floats[:, :n], self._ints[:, :n], self._bools[:, :n]
        x = f[0]
        np.copyto(x.reshape(values.shape), values)
        a = np.abs(x, out=f[1])
        fast = np.greater_equal(a, 1e-4, out=b[0])
        fast &= np.less(a, 1e15, out=b[1])
        fast &= np.not_equal(np.left_shift(x.view(np.uint64), np.uint64(12),
                                           out=i[0].view(np.uint64)), 0, out=b[1])
        fallback = np.logical_not(fast, out=b[5])
        if fast.any():  # a block of zeros or residuals goes straight to repr
            whole, head, tail, negative = self._digits(x, a, fallback, f, i, b)

        # Words: the integer part's groups, the last of three places and the
        # point, the head, the tail's groups down to the last place any cell
        # uses, and the separator.
        slow = np.flatnonzero(fallback)
        body = 0
        if slow.size < n:
            sign = bool(negative.any())
            int_words = (len(str(int(whole.max()))) + sign + 4) // 4  # and the point
            # the fewest words past which every tail is zero; a tail not divisible
            # by 2**places is not by 10**places, and the bit test is cheaper
            tail_words = next((words for words, places in ((4, 4), (3, 8), (2, 12), (1, 16))
                               if np.bitwise_and(tail, 2**places - 1, out=i[3]).any()
                               or np.remainder(tail, 10**places, out=i[3]).any()), 0)
            body = int_words + 1 + tail_words
        if slow.size:
            # each distinct value once: a log column of zeros costs one repr
            keys = x[slow].view(np.uint64)
            distinct = np.sort(keys)
            distinct = distinct[np.insert(distinct[1:] != distinct[:-1], 0, True)]
            texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=bytes)
            texts = texts[np.searchsorted(distinct, keys)].view(np.uint8).reshape(slow.size, -1)
        width = max(body, -(-texts.shape[1] // 4) if slow.size else 0) + 1
        cells = self._words[:n * width].reshape(n, width)
        cells[:, body:] = 0
        if body:
            self._integer_words(cells[:, :int_words], whole, i[3], i[4], b[2])
            np.add(cells[:, 0], ord("-"), out=cells[:, 0], where=negative)
            self._fraction_words(cells[:, int_words:body], head, tail, i[3], i[4], b[2], b[3])
        if slow.size:
            rows = slow if body else slice(None)  # no body: every value is slow
            cells[rows, :body] = 0
            cells.view(np.uint8)[rows, :texts.shape[1]] = texts
        cells.reshape(values.shape + (width,))[..., -1] = np.frombuffer(sep.encode(), np.uint8)
        return cells.view(np.uint8).reshape(values.shape + (4 * width,))

    def _digits(self, x, a, fallback, f, i, b):
        """The fast-path values of ``x`` as an integer part, a fraction's head
        and tail and a sign, views of the working set; ORs those that must go
        to ``repr`` after all into ``fallback``. Overwrites ``a``."""
        # a fast-path value keeps every row warning-free
        np.copyto(a, 1.5, where=fallback)
        k = i[1]
        np.copyto(k, np.subtract(16.0, np.floor(np.log10(a, out=f[2]), out=f[2]), out=f[2]),
                  casting="unsafe")
        scale, p = np.take(_SCALE, k, mode="clip", out=f[2]), f[3]
        np.multiply(a, scale, out=p)
        k += np.less(p, 1e16, out=b[1])
        k -= np.greater_equal(p, 1e17, out=b[1])
        np.multiply(a, np.take(_SCALE, k, mode="clip", out=scale), out=p)
        # err = a * scale - p exactly, from Veltkamp's halves (Dekker's product)
        a_hi = np.multiply(a, 134217729.0, out=f[4])
        a_hi -= np.subtract(a_hi, a, out=f[5])
        a_lo = np.subtract(a, a_hi, out=f[5])
        b_hi = np.take(_SCALE_HI, k, mode="clip", out=f[6])
        # half an ulp of a normal a in [2**e, 2**(e + 1)) is 2**(e - 53): a's
        # exponent bits, 53 lower, where np.spacing takes as long as 9 multiplies
        half_ulp = f[7]
        ulp_bits = np.bitwise_and(a.view(np.int64), 0x7FF << 52, out=half_ulp.view(np.int64))
        ulp_bits -= 53 << 52
        half_ulp *= scale
        b_lo = np.subtract(scale, b_hi, out=scale)
        err, product = np.multiply(a_hi, b_hi, out=f[8]), f[9]
        err -= p
        err += np.multiply(a_hi, b_lo, out=product)
        err += np.multiply(a_lo, b_hi, out=product)
        err += np.multiply(a_lo, b_lo, out=product)
        low, high = np.subtract(err, half_ulp, out=f[4]), np.add(err, half_ulp, out=f[5])
        doubt = b[2]
        for bound, close in ((low, doubt), (high, b[1])):
            gap = np.subtract(bound, np.rint(bound, out=f[6]), out=f[6])
            np.less(np.abs(gap, out=gap), 1e-9, out=close)
        doubt |= b[1]
        big, lo, hi = i[2], i[3], i[4]
        np.copyto(big, p, casting="unsafe")
        np.copyto(lo, np.ceil(low, out=low), casting="unsafe")
        np.copyto(hi, np.floor(high, out=high), casting="unsafe")
        lo += big
        hi += big

        # m: the largest power of ten with a multiple in [lo, hi], up to 2. hi - lo
        # < 23, so a multiple of 100 there is the only one of each higher power
        # too: the nearest multiple of 100 is the shortest digits, its trailing
        # zeros the tables' NULs.
        m = i[5]
        m.fill(0)
        for power in (10, 100):
            m += np.greater_equal(np.multiply(np.floor_divide(hi, power, out=i[6]), power,
                                              out=i[6]), lo, out=b[1])

        # Round R / 10**m to the nearest integer, with R = near + frac exactly
        # (|frac| <= 1/2); an exact tie goes to repr.
        near = np.rint(err, out=f[4])
        frac = np.subtract(err, near, out=err)
        np.copyto(lo, near, casting="unsafe")
        near = np.add(big, lo, out=lo)
        step = np.take(_POW10, m, mode="clip", out=i[6])
        digits = np.floor_divide(near, step, out=i[2])
        rest = np.subtract(near, np.multiply(digits, step, out=i[4]), out=i[4])
        half = np.right_shift(step, 1, out=i[7])
        up, at_half, above = b[1], b[3], b[4]
        np.greater(rest, half, out=up)
        np.equal(rest, half, out=at_half)
        up |= np.logical_and(at_half, np.greater(frac, 0, out=above), out=above)
        up &= np.greater(m, 0, out=above)
        digits += up
        tie = np.logical_and(at_half, np.equal(frac, 0, out=above), out=at_half)
        np.copyto(tie, np.equal(np.abs(frac, out=frac), 0.5, out=above),
                  where=np.equal(m, 0, out=up))
        rounded = np.multiply(digits, step, out=i[2])
        fallback |= doubt
        fallback |= tie

        # The value is rounded / 10**k: an integer part (16 places) and a
        # fraction, split into head (4 places) and tail (16 places).
        np.copyto(rounded, 0, where=fallback)
        power = np.take(_POW10, k, mode="clip", out=i[6])
        whole = np.floor_divide(rounded, power, out=i[5])
        fraction = np.subtract(rounded, np.multiply(whole, power, out=power), out=rounded)
        fraction *= np.take(_UP, k, mode="clip", out=i[3])
        down = np.take(_DOWN, k, mode="clip", out=i[3])
        head = np.floor_divide(fraction, down, out=i[6])
        tail = np.subtract(fraction, np.multiply(head, down, out=down), out=fraction)
        tail *= np.take(_TAIL, k, mode="clip", out=i[3])
        negative = np.less(x, 0, out=b[0])
        negative &= np.logical_not(fallback, out=b[1])
        return whole, head, tail, negative

    def _integer_words(self, words, whole, rest, index, lead):
        """The groups of ``whole``, leading zeros NUL and 0 as '0', the last one
        of three places and the point, into ``words``; destroys ``whole`` and
        ``rest``."""
        for column in range(words.shape[1] - 1, -1, -1):
            size, kind = (1000, _POINT) if column == words.shape[1] - 1 else (10_000, 0)
            if column:
                above = np.floor_divide(whole, size, out=rest)
                whole -= np.multiply(above, size, out=index)
                np.multiply(np.equal(above, 0, out=lead), 10_000, out=index)
                index += whole
                whole, rest = above, whole
            else:
                np.add(whole, 10_000, out=index)
            np.take(self._groups[kind:], index, out=words[:, column], mode="clip")

    def _fraction_words(self, words, head, tail, rest, index, zero_below, zero):
        """The head and the tail's groups, trailing zeros NUL and a zero head
        as '0', into ``words``; destroys ``tail`` and ``rest``."""
        tail //= 10 ** (4 * (5 - words.shape[1]))
        zero_below.fill(True)
        for column in range(words.shape[1] - 1, 0, -1):
            above = np.floor_divide(tail, 10_000, out=rest)
            tail -= np.multiply(above, 10_000, out=index)
            np.multiply(zero_below, _TRAIL, out=index)
            index += tail
            np.take(self._groups, index, out=words[:, column], mode="clip")
            zero_below &= np.equal(tail, 0, out=zero)
            tail, rest = above, tail
        np.multiply(zero_below, _TRAIL_ZERO, out=index)
        index += head
        np.take(self._groups, index, out=words[:, 0], mode="clip")

    def packed_cells(self, values, sep=","):
        """The texts of :meth:`float_cells` with their NULs moved to the end,
        each NUL-padded only to the longest text: a new uint8 array of shape
        values.shape + (width,), which later calls do not overwrite."""
        cells = self.float_cells(values, sep)
        keep = cells != 0
        length = np.count_nonzero(keep, axis=-1)
        packed = np.zeros(length.shape + (int(length.max(initial=0)),), np.uint8)
        packed[np.arange(packed.shape[-1]) < length[..., None]] = cells[keep]
        return packed

    def join_cells(self, *cells) -> str:
        """The text of rows of cells, uint8 arrays whose leading shapes broadcast
        to one: the cells side by side in a frame of the working set, without
        its NULs, which are dropped _JOIN_BYTES at most at a time."""
        shape = np.broadcast_shapes(*(chars.shape[:-1] for chars in cells))
        shape += (sum(chars.shape[-1] for chars in cells),)
        size = math.prod(shape)
        if size > self._frame.size:
            self._frame = np.empty(size, np.uint8)
        frame = self._frame[:size].reshape(shape)
        start = 0
        for chars in cells:
            frame[..., start:start + chars.shape[-1]] = chars
            start += chars.shape[-1]
        rows = frame.reshape(math.prod(shape[:-1]), shape[-1])
        pieces = -(-size // _JOIN_BYTES) or 1
        step = -(-len(rows) // pieces) or 1
        return "".join([str(rows[first:first + step].tobytes().translate(None, b"\0"), "utf-8")
                        for first in range(0, len(rows), step)])

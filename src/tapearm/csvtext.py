"""CSV text of float64 blocks, byte for byte what ``repr`` gives each value.

A *cell* is one value's text and separator as uint8 columns, NUL where
unused. :meth:`BlockText.float_cells` finds the shortest round-trip digits of
a block with exact fixed-width arithmetic, as Ryu (Adams 2018) does for one
value: R = |x| * 10**k is an int64 plus a float (Dekker's product), with k
putting R in [1e16, 1e17), and the digits are R / 10**m rounded, for the
largest m with a multiple of 10**m within half an ulp of x, as Gay's (1990)
shortest mode gives ``repr``. Values outside 1e-4 <= |x| < 1e15, powers of two
(a lopsided interval), exponent notation, a bound within 1e-9 of an integer
(its float may round across it) and a tie between two candidates go to
``repr``.

A cell is a row of little-endian uint32 words of four characters: the
integer part's places in groups of four, the point, the fraction's places
1e-1..1e-20 in groups of four, and the separator, with only the words some
cell of the block uses. Each group comes from one table lookup that writes
NUL for the integer part's leading zeros and the fraction's trailing zeros,
so a cell needs no per-value shift or mask. :meth:`BlockText.join_cells`
drops the NULs of a frame of cells in one ``bytes.translate`` pass and
decodes it once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Floats a writer formats per block, at most. A writer call allocates one
# BlockText, whose working set of about 300 bytes a float (2.5 MB) every
# block reuses.
BLOCK_FLOATS = 8192

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
    digit, 1 leading zeros NUL, 2 the same but 0 is '0', 3 trailing zeros NUL,
    4 the same but 0 is '0'; as read-only uint32 words. Built by the first
    BlockText, so a process that writes no CSV neither builds nor holds it."""
    group = np.arange(10_000, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], np.uint16)
    lead = group >= places
    trail = group % (places * 10) != 0
    keep = np.stack([np.ones_like(lead), lead, lead | (places == 1), trail,
                     trail | (places == 1000)])
    chars = (group // places % 10).astype(np.uint8) + np.uint8(ord("0"))
    table = (chars * keep).view("<u4").reshape(-1)
    table.flags.writeable = False
    return table


_LEAD, _LEAD_ZERO, _TRAIL, _TRAIL_ZERO = (10_000 * kind for kind in range(1, 5))


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
            # a cell has at most 11 words: 4 of the integer part, the point, 5
            # of the fraction and the separator; a repr text fills at most 6
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
        # a fast-path value keeps every row warning-free
        np.copyto(a, 1.5, where=np.logical_not(fast, out=b[1]))
        k = i[1]
        np.copyto(k, np.subtract(16.0, np.floor(np.log10(a, out=f[2]), out=f[2]), out=f[2]),
                  casting="unsafe")
        scale, p = np.take(_SCALE, k, out=f[2]), f[3]
        np.multiply(a, scale, out=p)
        k += np.less(p, 1e16, out=b[1])
        k -= np.greater_equal(p, 1e17, out=b[1])
        np.multiply(a, np.take(_SCALE, k, out=scale), out=p)
        # err = a * scale - p exactly, from Veltkamp's halves (Dekker's product)
        a_hi = np.multiply(a, 134217729.0, out=f[4])
        a_hi -= np.subtract(a_hi, a, out=f[5])
        a_lo = np.subtract(a, a_hi, out=f[5])
        b_hi = np.take(_SCALE_HI, k, out=f[6])
        half_ulp = np.spacing(a, out=f[7])
        half_ulp *= 0.5
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

        # m: the largest power of ten with a multiple in [lo, hi]. hi - lo < 23,
        # so a multiple of 100 there is the only one of each higher power too,
        # and m is 2 + the trailing zeros of hundreds, found 8, 4, 2, 1 at a time.
        m = i[5]
        np.copyto(m, np.greater_equal(np.multiply(np.floor_divide(hi, 10, out=i[6]), 10, out=i[6]),
                                      lo, out=b[1]))
        hundreds = np.floor_divide(hi, 100, out=i[6])
        deep = np.flatnonzero(np.greater_equal(np.multiply(hundreds, 100, out=i[7]), lo, out=b[1]))
        if deep.size:
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
        near = np.rint(err, out=f[4])
        frac = np.subtract(err, near, out=err)
        np.copyto(lo, near, casting="unsafe")
        near = np.add(big, lo, out=lo)
        step = np.take(_POW10, m, out=i[6])
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
        # The value is 0.<digits> * 10**point.
        point = np.subtract(17, k, out=i[3])
        point += np.greater_equal(rounded, 10**17, out=up)
        point -= np.less(rounded, 10**16, out=up)
        fallback = np.logical_not(fast, out=b[5])
        fallback |= doubt
        fallback |= tie
        fallback |= np.less(point, -3, out=up)
        fallback |= np.greater(point, 16, out=up)

        # The value is rounded / 10**k: an integer part (16 places) and a
        # fraction, split into head (4 places) and tail (16 places).
        np.copyto(rounded, 0, where=fallback)
        power = np.take(_POW10, np.minimum(k, 18, out=i[4]), out=i[6])
        whole = np.floor_divide(rounded, power, out=i[5])
        fraction = np.subtract(rounded, np.multiply(whole, power, out=power), out=rounded)
        fraction *= np.take(_UP, k, out=i[3])
        down = np.take(_DOWN, k, out=i[3])
        head = np.floor_divide(fraction, down, out=i[6])
        tail = np.subtract(fraction, np.multiply(head, down, out=down), out=fraction)
        tail *= np.take(_TAIL, k, out=i[3])
        negative = np.less(x, 0, out=b[0])
        negative &= np.logical_not(fallback, out=b[1])

        # Words: the integer part's groups, the point, the head, the tail's
        # groups down to the last place any cell uses, and the separator.
        slow = np.flatnonzero(fallback)
        body = 0
        if slow.size < n:
            sign = bool(negative.any())
            int_words = (len(str(int(whole.max()))) + sign + 3) // 4
            tail_words = next((words for words, place in ((4, 10**4), (3, 10**8), (2, 10**12),
                                                          (1, 10**16))
                               if np.remainder(tail, place, out=i[3]).any()), 0)
            body = int_words + 2 + tail_words
        if slow.size:
            # each distinct value once: a log column of zeros costs one repr
            distinct, which = np.unique(x[slow].view(np.uint64), return_inverse=True)
            texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=bytes)
            texts = texts[which].view(np.uint8).reshape(slow.size, -1)
        width = max(body, -(-texts.shape[1] // 4) if slow.size else 0) + 1
        cells = self._words[:n * width].reshape(n, width)
        cells[:, body:] = 0
        if body:
            self._integer_words(cells[:, :int_words], whole, i[3], i[4], b[2])
            np.add(cells[:, 0], ord("-"), out=cells[:, 0], where=negative)
            cells[:, int_words] = ord(".")
            self._fraction_words(cells[:, int_words + 1:body], head, tail, i[3], i[4], b[2],
                                 b[3])
        if slow.size:
            cells[slow] = 0
            cells.view(np.uint8)[slow, :texts.shape[1]] = texts
        cells.reshape(values.shape + (width,))[..., -1] = np.frombuffer(sep.encode(), np.uint8)
        return cells.view(np.uint8).reshape(values.shape + (4 * width,))

    def _integer_words(self, words, whole, rest, index, lead):
        """The groups of ``whole``, leading zeros NUL and 0 as '0', into
        ``words``; destroys ``whole`` and ``rest``."""
        for column in range(words.shape[1] - 1, -1, -1):
            kind = _LEAD_ZERO if column == words.shape[1] - 1 else _LEAD
            if column:
                above = np.floor_divide(whole, 10_000, out=rest)
                whole -= np.multiply(above, 10_000, out=index)
                np.multiply(np.equal(above, 0, out=lead), kind, out=index)
                index += whole
                whole, rest = above, whole
            else:
                np.add(whole, kind, out=index)
            np.take(self._groups, index, out=words[:, column], mode="clip")

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

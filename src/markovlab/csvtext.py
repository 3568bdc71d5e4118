"""Exact ``'%.17g'`` text of float64 tables, vectorised with numpy.

:func:`csv_blocks` yields the bytes that ``'%.17g' % float(v)`` gives for
every cell, joined by ``,`` within a row and ending each row with ``\\n``.
It never rounds differently from Python: the fast path computes the
correctly rounded 17-digit decimal of each value, and a cell it cannot
decide is formatted by ``'%.17g' %`` itself.

Digits.  With x = floor(log10|v|), the product |v| * 10**(16 - x) lies in
[1e16, 1e17).  It is formed as an unevaluated double-double s + r from a
table of powers of ten stored as Dekker-split pairs (Dekker, Numer. Math.
18, 224, 1971): the product with the leading half is exact, the rest is
off by at most 2**-104 relative, about 5e-15 of the last digit.  x is
corrected on the pair itself, never on the rounded digits, and the
17-digit integer is s plus r rounded to the nearest integer.  Every
step is one ufunc, so no step can be contracted into a fused multiply-add.

Text.  Each cell owns 32 bytes, read as four uint64 words: the sign, the
``0.000`` lead, the leading digit and its point; the other 16 digits as
two words of ASCII from a table of the 4-digit groups 0000-9999; the
``e``, the exponent and the separator.  The digit count comes from the
trailing zeros of the last nonzero group.  A layout code (notation,
decimal exponent for fixed notation, digit count, sign, row end) picks a
pattern of fixed characters and byte masks.  In fixed notation with x >= 1
the point falls among the 16 digits: the digits after it move one byte on,
``(w << 8) | carry`` on the little-endian words, and per-position masks
blend the point in.  The unused bytes, zeros, are deleted from the block in
one ``bytes.translate`` pass.  The blocks of one table share their work
arrays.

Fallback domain (``'%.17g' %`` one cell at a time): NaN, +-inf, values
with |v| outside [1e-270, 1e270] other than +-0, and near-ties whose
fraction lies within 1e-9 of one half (exact ties such as 2**-25 among
them).  Zeros take the fast path.

Small tables, of fewer than ``_SMALL_CELLS`` cells, are written by the
definition itself: ``'%.17g' %`` of every cell, one ``%`` join per row.
"""

from __future__ import annotations

import functools

import numpy as np

#: Fast domain of |v| (besides zero): every scaled product stays normal.
_FAST_MIN, _FAST_MAX = 1e-270, 1e270
#: A fraction this close to one half is left to the exact fallback.
_TIE_GUARD = 1e-9
#: Dekker's splitting constant 2**27 + 1.
_SPLIT = 134217729.0
#: Cells formatted per block; a table's work arrays (:class:`_Work`) hold
#: one block, about 1.3 MB.
_BLOCK_CELLS = 8192
#: Tables of fewer cells are written by ``'%.17g' %`` itself, one ``%`` join
#: per row: below this size the fixed cost of the numpy calls of a block is
#: larger than formatting each cell.
_SMALL_CELLS = 160


def _split(a):
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


def _power_table(k_min: int, k_max: int):
    """10**k for k in [k_min, k_max] as (hi, lo, high half of hi, low half)."""
    hi, lo = [], []
    for k in range(k_min, k_max + 1):
        if k >= 0:
            n = 10 ** k
            h = float(n)
            low = float(n - int(h))
        else:
            n = 10 ** -k
            h = 1 / n                          # correctly rounded int division
            m, q = h.as_integer_ratio()
            low = (q - m * n) / (q * n)        # 10**k - h, correctly rounded
        hi.append(h)
        lo.append(low)
    hi = np.array(hi)
    return (hi, np.array(lo), *_split(hi))


#: Powers 10**k for the fast domain, one step of slack on either side.
_K_MIN = -256
_POW_HI, _POW_LO, _POW_HH, _POW_HL = _power_table(_K_MIN, 289)

_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)   # of 0..9999
#: ASCII of the four decimal digits of 0..9999, first digit in the low
#: byte, one uint32 each.
_QUADS = np.add(_DIGITS.T, 48, order="C").view(np.uint32).ravel()
#: Twice the number of trailing zero digits of each 4-digit group (0 has four).
_TRAILING = functools.reduce(lambda twice, digit: (twice + 2) * (digit == 0), _DIGITS, 0)
#: Decimal exponents are kept in [-_X_MAX, _X_MAX] and indexed from -_X_MAX.
_X_MAX = 330

# Bytes of one cell, read as four uint64 words: sign, the "0.000" lead, the
# leading digit and its point; the other 16 digits, 4-digit group j in
# uint32 column 2 + j; "e" (in fixed notation, the last digit that the
# point moved), exponent sign and three digits, the separator and two pad
# bytes.  A pattern keeps a fixed character, takes a computed byte where it
# holds 0xFF (by bitwise and) and drops the byte where it holds 0.
_WIDTH = 32
_TOP = 6                                # the leading digit
_SEP = 29
#: Layout classes: fixed notation for x = -4..16, then "e+dd", "e+ddd".
_FIXED_CLASSES = 21
_CODES = (_FIXED_CLASSES + 2) * 17 * 2


def _layouts():
    """Slot pattern of each layout code, ``(class * 17 + nd - 1) * 2 + sign``,
    ending in ``,``; the codes from ``_CODES`` on end the row with ``\\n``.
    Also the decimal exponent x of each code whose point falls among the
    16 digits (fixed notation, 1 <= x < nd - 1), and 0 for the others."""
    cls, nd, neg = (c.ravel() for c in np.indices((_FIXED_CLASSES + 2, 17, 2)))
    nd = nd + 1
    x = cls - 4
    fixed = cls < _FIXED_CLASSES
    whole = fixed & (x >= 0)
    lead = fixed & (x < 0)
    expo = ~fixed
    nshow = np.where(whole, np.maximum(nd, x + 1), nd)
    keep = np.zeros((_CODES, _WIDTH), dtype=bool)
    keep[:, 0] = neg == 1
    keep[:, 1:3] = lead[:, None]
    keep[:, 3:6] = lead[:, None] & (x[:, None] <= [-2, -3, -4])
    keep[:, _TOP] = True
    keep[:, 7] = ((x == 0) | expo) & (nd > 1)
    keep[:, 8:24] = np.arange(1, 17) < nshow[:, None]
    keep[:, 24:27] = expo[:, None]
    keep[:, 26] &= cls == _FIXED_CLASSES + 1
    keep[:, 27:29] = expo[:, None]
    keep[:, _SEP] = True
    chars = np.frombuffer(b"-0.000\xff." + b"\xff" * 16 + b"e\xff\xff\xff\xff,\0\0",
                          dtype=np.uint8)
    rows = chars * keep
    rows = np.concatenate([rows, np.where(rows == ord(","), ord("\n"), rows)])
    point = np.where(whole & (x >= 1) & (nd > x + 1), x, 0).astype(np.uint8)
    return rows.view("<u8"), np.concatenate([point, point])


_PATTERNS, _POINT_AT = _layouts()
#: 34 * class + 32 for each decimal exponent x: subtracting twice the
#: trailing zero digits and adding the sign, and _CODES at a row end,
#: gives the layout code.
_CLASS_CODES = 34 * np.where(np.abs(np.arange(-_X_MAX, _X_MAX + 1)) < 100,
                             _FIXED_CLASSES, _FIXED_CLASSES + 1) + 32
_CLASS_CODES[_X_MAX - 4:_X_MAX + 17] = 34 * np.arange(_FIXED_CLASSES) + 32
#: Exponent sign and three digits for each x, after the "e" of the last word.
_EXPONENTS = np.full((2 * _X_MAX + 1, 8), 0xFF, dtype=np.uint8)
_EXPONENTS[:_X_MAX, 1] = ord("-")
_EXPONENTS[_X_MAX:, 1] = ord("+")
_EXPONENTS[:, 2:5] = _DIGITS[1:, np.abs(np.arange(-_X_MAX, _X_MAX + 1))].T + 48
_EXPONENTS = _EXPONENTS.view("<u8").ravel()


def _point_masks():
    """Per digit word, then per x, over the 16 digit bytes as two uint64
    words: the bytes kept in place, the bytes taken one place on, and the
    point between them."""
    at = np.arange(16)
    x = np.arange(17)[:, None]
    kept = np.where(at < x, 0xFF, 0).astype(np.uint8)
    moved = np.where(at > x, 0xFF, 0).astype(np.uint8)
    point = np.where(at == x, ord("."), 0).astype(np.uint8)
    return (np.ascontiguousarray(m.view("<u8").T) for m in (kept, moved, point))


_KEPT, _MOVED, _POINT = _point_masks()


def _scaled(a, k, work):
    """a * 10**k as a normalised double-double (s, r), |r| <= ulp(s) / 2.

    Every step writes into ``work``, a (6, a.size) float64 array whose first
    two rows are returned as s and r; ``k`` is overwritten.
    """
    s, r, p, t, hh, hl = work
    i = np.subtract(k, _K_MIN, out=k)
    np.multiply(a, _POW_HI.take(i, out=p, mode="clip"), out=p)
    _POW_HH.take(i, out=hh, mode="clip")
    _POW_HL.take(i, out=hl, mode="clip")
    ah, al = s, r                             # Dekker's split of a, as _split
    np.multiply(a, _SPLIT, out=t)
    np.subtract(t, np.subtract(t, a, out=ah), out=ah)
    np.subtract(a, ah, out=al)
    # err = al hl - (((p - ah hh) - al hh) - ah hl), then r = err + a lo
    np.subtract(p, np.multiply(ah, hh, out=t), out=t)
    t -= np.multiply(al, hh, out=hh)
    t -= np.multiply(ah, hl, out=hh)
    np.subtract(np.multiply(al, hl, out=hl), t, out=t)
    np.add(t, np.multiply(a, _POW_LO.take(i, out=hh, mode="clip"), out=hh), out=r)
    np.add(p, r, out=s)
    r -= np.subtract(s, p, out=t)
    return s, r


class _Work:
    """Work arrays of one table's blocks, sized for its largest block.

    Each block writes an array before reading it, so every block of the
    table reuses them.  ``text`` holds ``_WIDTH`` bytes per cell; ``chars``,
    ``quads`` and ``words`` view it as (cells, ``_WIDTH``) uint8, uint32
    and little-endian uint64 arrays, so the point shift moves the same
    bytes on any machine.
    """

    def __init__(self, cells: int):
        self.text = bytearray(cells * _WIDTH)
        self.chars = np.frombuffer(self.text, dtype=np.uint8).reshape(cells, _WIDTH)
        self.quads = self.chars.view(np.uint32)
        self.words = self.chars.view("<u8")
        self.floats = np.empty((7, cells))
        self.ints = np.empty((9, cells), dtype=np.int64)


def _block_text(v, row_end, work):
    """Bytes of the flat float64 cells ``v``; ``row_end`` is ``_CODES`` for
    the last cell of a row and 0 for the others.  ``work`` is the table's
    :class:`_Work`."""
    n = v.size
    a, *scaled = work.floats[:, :n]
    x, d, code, top, tmp, *groups = work.ints[:, :n]
    np.abs(v, out=a)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0                            # keeps every later step finite

    log = scaled[0]
    np.copyto(x, np.floor(np.log10(a, out=log), out=log), casting="unsafe")
    s, r = _scaled(a, np.subtract(16, x, out=d), scaled)
    low = (s < 1e16) | ((s == 1e16) & (r < 0.0))
    high = (s > 1e17) | ((s == 1e17) & (r >= 0.0))
    off = (low | high).nonzero()[0]
    if off.size:
        x[off] += np.where(high[off], 1, -1)
        s[off], r[off] = _scaled(a[off], 16 - x[off], np.empty((6, off.size)))
    whole, frac = a, scaled[2]                # a and the rows after s, r are free
    np.subtract(r, np.floor(r, out=whole), out=frac)
    slow = ((np.abs(frac - 0.5) <= _TIE_GUARD) | ~(fast | zero)).nonzero()[0]
    np.copyto(d, s, casting="unsafe")
    np.copyto(tmp, whole, casting="unsafe")
    d += tmp
    d += frac > 0.5
    carry = (d == 10 ** 17).nonzero()[0]
    if carry.size:
        d[carry] = 10 ** 16
        x[carry] += 1

    # the leading digit and the 4-digit groups; m - (m // k) * k is m % k
    # without numpy's element-by-element integer remainder
    g0, g1, g2, g3 = groups
    high8 = np.floor_divide(d, 10 ** 8, out=g1)
    d -= np.multiply(high8, 10 ** 8, out=tmp)         # the low 8 digits
    np.floor_divide(high8, 10 ** 8, out=top)
    high8 -= np.multiply(top, 10 ** 8, out=tmp)       # the high 8 digits
    np.floor_divide(high8, 10 ** 4, out=g0)
    high8 -= np.multiply(g0, 10 ** 4, out=tmp)
    np.floor_divide(d, 10 ** 4, out=g2)
    np.subtract(d, np.multiply(g2, 10 ** 4, out=tmp), out=g3)

    x += _X_MAX
    code = _CLASS_CODES.take(x, out=code, mode="clip")
    code -= _TRAILING.take(g3, out=tmp, mode="clip")
    code += np.signbit(v)
    code += row_end
    rest = (g3 == 0).nonzero()[0]
    for group in (g2, g1, g0):                # the last groups all zero: rare
        if not rest.size:
            break
        part = group[rest]
        code[rest] -= _TRAILING[part]
        rest = rest[part == 0]

    # mode="clip" (every code is in range) writes into ``words`` without a buffer
    words = _PATTERNS.take(code, axis=0, out=work.words[:n], mode="clip")
    top[zero] = 0                             # a zero takes the layout of 1.0
    top += 48
    work.chars[:n, _TOP] &= top.astype(np.uint8)
    quads = work.quads[:n]
    for j, group in enumerate(groups):               # tmp is free from here on
        quads[:, 2 + j] &= _QUADS.take(group, out=tmp.view(np.uint32)[:n], mode="clip")
    words[:, 3] &= _EXPONENTS.take(x, out=tmp.view("<u8"), mode="clip")
    at = _POINT_AT.take(code, out=tmp.view(np.uint8)[:n], mode="clip")
    point = at.nonzero()[0]
    if point.size:                            # fixed notation, x >= 1: shift the
        at = at.take(point)                   # digits after the point one byte on
        flat = work.words.reshape(-1)
        lo_at = 4 * point + 1                 # the two digit words, then the "e" word
        lo, hi = flat.take(lo_at), flat.take(lo_at + 1)
        flat.put(lo_at + 2, flat.take(lo_at + 2) | (hi >> np.uint64(56)))
        moved = (hi << np.uint64(8)) | (lo >> np.uint64(56))
        flat.put(lo_at + 1, (hi & _KEPT[1].take(at)) | (moved & _MOVED[1].take(at))
                 | _POINT[1].take(at))
        moved = lo << np.uint64(8)
        flat.put(lo_at, (lo & _KEPT[0].take(at)) | (moved & _MOVED[0].take(at))
                 | _POINT[0].take(at))

    chars = work.chars[:n]
    for i in slow:
        cell = np.frombuffer(b"%.17g" % float(v[i]), dtype=np.uint8)
        chars[i, :_SEP] = 0
        chars[i, :cell.size] = cell
    return chars.tobytes().translate(None, b"\0")


def csv_blocks(table):
    """CSV lines of a 2-d float64 table, a block of rows at a time.

    Each cell is ``'%.17g' % float(v)``, followed by ``,`` or, after the
    last cell of a row, by ``\\n``.  A table with no rows yields nothing.
    Each chunk is a new ``bytes`` or ``bytearray`` that later blocks leave
    as it is; the blocks share their work arrays.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    if table.size < _SMALL_CELLS:
        if rows:
            line = b",".join([b"%.17g"] * cols) + b"\n"
            yield b"".join([line % tuple(row) for row in table.tolist()])
        return
    step = max(1, _BLOCK_CELLS // cols)
    row_end = np.zeros((min(rows, step), cols), dtype=np.int64)
    row_end[:, -1] = _CODES
    row_end = row_end.ravel()
    work = _Work(row_end.size)
    for start in range(0, rows, step):
        block = table[start:start + step].ravel()
        yield _block_text(block, row_end[:block.size], work)

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

Text.  Each cell owns a row of character slots; a layout code (notation,
decimal exponent for fixed notation, significant digits, sign) picks the
slots it uses from a small pattern table, and the unused slots, zero
bytes, are deleted from the block in one pass.  The blocks of one table
share their work arrays.

Fallback domain (``'%.17g' %`` one cell at a time): NaN, +-inf, values
with |v| outside [1e-270, 1e270] other than +-0, and near-ties whose
fraction lies within 1e-9 of one half (exact ties such as 2**-25 among
them).  Zeros take the fast path.
"""

from __future__ import annotations

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

#: The four ASCII decimal digits of 0..9999 interleaved with 0xFF, which
#: matches four (digit, point) slot pairs, as one uint64 each.
_QUAD_SLOTS = np.full((10000, 8), 0xFF, dtype=np.uint8)
_QUAD_SLOTS[:, ::2] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
_QUAD_SLOTS = _QUAD_SLOTS.view(np.uint64).ravel()
#: Exponent sign and three digits for x in [-_X_MAX, _X_MAX], one uint32.
_X_MAX = 330
#: 10**(12 - 4 j): a 17-digit integer // _GROUPS[j] % 10000 is its 4-digit group j.
_GROUPS = 10 ** np.arange(12, -1, -4)
_EXPONENTS = np.frombuffer(b"".join(b"%+04d" % x for x in range(-_X_MAX, _X_MAX + 1)),
                           dtype=np.uint32)

# Slots of one cell: sign, "0.000" lead, 17 digits each followed by a point
# slot (the last one holds the "e"), exponent sign and three digits, the
# separator and padding to a multiple of four bytes.  A pattern keeps a
# fixed character, takes a computed byte where it holds 0xFF (by bitwise
# and) and drops the slot where it holds 0.
_WIDTH = 48
_TOP = 6                                # the leading digit
_QUAD_PAIRS = slice(8, 40)              # the other 16 (digit, point) pairs
_EXP = slice(40, 44)                    # viewed as one uint32
_SEP = 44
#: Layout classes: fixed notation for x = -4..16, then "e+dd", "e+ddd".
_FIXED_CLASSES = 21
_CODES = (_FIXED_CLASSES + 2) * 17 * 2


def _patterns() -> np.ndarray:
    """Slot pattern of each layout code, ``(class * 17 + nd - 1) * 2 + sign``,
    ending in ``,``; the codes from ``_CODES`` on end the row with ``\\n``."""
    cls, nd, neg = (c.ravel() for c in np.indices((_FIXED_CLASSES + 2, 17, 2)))
    nd = nd + 1
    x = cls - 4
    fixed = cls < _FIXED_CLASSES
    whole = fixed & (x >= 0)
    lead = fixed & (x < 0)
    expo = ~fixed
    nshow = np.where(whole, np.maximum(nd, x + 1), nd)
    point = np.where(whole, np.where(nd > x + 1, x, -1), np.where(expo & (nd > 1), 0, -1))
    keep = np.zeros((_CODES, _WIDTH), dtype=bool)
    keep[:, 0] = neg == 1
    keep[:, 1:3] = lead[:, None]
    keep[:, 3:6] = lead[:, None] & (x[:, None] <= [-2, -3, -4])
    keep[:, 6:40:2] = np.arange(17) < nshow[:, None]
    keep[:, 7:39:2] = np.arange(16) == point[:, None]
    keep[:, 39:41] = expo[:, None]
    keep[:, 41] = cls == _FIXED_CLASSES + 1
    keep[:, 42:44] = expo[:, None]
    keep[:, _SEP] = True
    chars = np.frombuffer(b"-0.000" + b"\xff." * 16 + b"\xffe" + b"\xff" * 4 + b",\0\0\0",
                          dtype=np.uint8)
    rows = chars * keep
    return np.concatenate([rows, np.where(rows == ord(","), ord("\n"), rows)])


_PATTERNS = _patterns()
#: 34 * class - 2 for each decimal exponent x: adding 2 * nd + sign, and
#: _CODES at a row end, gives the layout code.
_CLASS_CODES = 34 * np.where(np.abs(np.arange(-_X_MAX, _X_MAX + 1)) < 100,
                             _FIXED_CLASSES, _FIXED_CLASSES + 1) - 2
_CLASS_CODES[_X_MAX - 4:_X_MAX + 17] = 34 * np.arange(_FIXED_CLASSES) - 2


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
    table reuses them.  ``text`` holds ``_WIDTH`` character slots per cell
    and ``chars`` views it as a (cells, ``_WIDTH``) uint8 array.
    """

    def __init__(self, cells: int):
        self.text = bytearray(cells * _WIDTH)
        self.chars = np.frombuffer(self.text, dtype=np.uint8).reshape(cells, _WIDTH)
        self.floats = np.empty((7, cells))
        self.ints = np.empty((5, cells), dtype=np.int64)
        self.slot = np.empty(cells, dtype=np.uint64)


def _block_text(v, row_end, work):
    """Bytes of the flat float64 cells ``v``; ``row_end`` is ``_CODES`` for
    the last cell of a row and 0 for the others.  ``work`` is the table's
    :class:`_Work`."""
    n = v.size
    a, *scaled = work.floats[:, :n]
    x, d, nd, code, tmp = work.ints[:, :n]
    slot = work.slot[:n]
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

    top = np.floor_divide(d, 10 ** 16, out=code)    # the leading digit
    nd.fill(17)
    even = (np.remainder(d, 10, out=tmp) == 0).nonzero()[0]
    if even.size:
        tail = np.empty((even.size, 17), dtype=np.uint8)
        tail[:, 0] = 49                       # the leading digit is never 0
        tail[:, 1:] = _QUAD_SLOTS[d[even, None] // _GROUPS % 10000].view(np.uint8)[:, ::2]
        nd[even] = 17 - np.argmax(tail[:, ::-1] != 48, axis=1)
    top[zero] = 0                             # a zero takes the layout of 1.0
    top += 48
    lead = top.astype(np.uint8)
    x += _X_MAX
    code = _CLASS_CODES.take(x, out=code, mode="clip")
    code += nd
    code += nd
    code += np.signbit(v)
    code += row_end
    # mode="clip" (every code is in range) writes into ``chars`` without a buffer
    chars = _PATTERNS.take(code, axis=0, out=work.chars[:n], mode="clip")
    chars[:, _TOP] &= lead
    pairs = chars[:, _QUAD_PAIRS].view(np.uint64)
    for j, group in enumerate(_GROUPS):
        np.remainder(np.floor_divide(d, group, out=tmp), 10000, out=tmp)
        pairs[:, j] &= _QUAD_SLOTS.take(tmp, out=slot, mode="clip")
    exponent = chars[:, _EXP].view(np.uint32)
    exponent &= _EXPONENTS[x, None]

    for i in slow:
        cell = np.frombuffer(b"%.17g" % float(v[i]), dtype=np.uint8)
        chars[i, :_SEP] = 0
        chars[i, :cell.size] = cell
    if n < len(work.chars):                   # a last, shorter block
        return chars.tobytes().translate(None, b"\0")
    return work.text.translate(None, b"\0")


def csv_blocks(table):
    """CSV lines of a 2-d float64 table, a block of rows at a time.

    Each cell is ``'%.17g' % float(v)``, followed by ``,`` or, after the
    last cell of a row, by ``\\n``.  A table with no rows yields nothing.
    Each chunk is a new ``bytes`` or ``bytearray`` that later blocks leave
    as it is; the blocks share their work arrays.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    step = max(1, _BLOCK_CELLS // cols)
    row_end = np.zeros((min(rows, step), cols), dtype=np.int64)
    row_end[:, -1] = _CODES
    row_end = row_end.ravel()
    work = _Work(row_end.size)
    for start in range(0, rows, step):
        block = table[start:start + step].ravel()
        yield _block_text(block, row_end[:block.size], work)

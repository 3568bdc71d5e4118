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
bytes, are deleted from the block in one pass.

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
#: Cells formatted per block, which keeps the temporaries near 2 MB.
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


def _scaled(a, k):
    """a * 10**k as a normalised double-double (s, r), |r| <= ulp(s) / 2."""
    i = k - _K_MIN
    hh, hl = _POW_HH[i], _POW_HL[i]
    p = a * _POW_HI[i]
    ah, al = _split(a)
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl)
    r = err + a * _POW_LO[i]
    s = p + r
    return s, r - (s - p)


def _split_digits(d):
    """17-digit integers as (leading digit, four 4-digit groups)."""
    top = d // 10 ** 16
    rest = d - top * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    quads = np.empty((d.size, 4), dtype=np.int64)
    quads[:, 0] = high // 10000
    quads[:, 1] = high - quads[:, 0] * 10000
    quads[:, 2] = low // 10000
    quads[:, 3] = low - quads[:, 2] * 10000
    return top, quads


def _block_text(v, row_end):
    """Bytes of the flat float64 cells ``v``; ``row_end`` is ``_CODES`` for
    the last cell of a row and 0 for the others."""
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0                            # keeps every later step finite

    x = np.floor(np.log10(a)).astype(np.int64)
    s, r = _scaled(a, 16 - x)
    low = (s < 1e16) | ((s == 1e16) & (r < 0.0))
    high = (s > 1e17) | ((s == 1e17) & (r >= 0.0))
    off = (low | high).nonzero()[0]
    if off.size:
        x[off] += np.where(high[off], 1, -1)
        s[off], r[off] = _scaled(a[off], 16 - x[off])
    whole = np.floor(r)
    frac = r - whole
    slow = ((np.abs(frac - 0.5) <= _TIE_GUARD) | ~(fast | zero)).nonzero()[0]
    d = s.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = (d == 10 ** 17).nonzero()[0]
    if carry.size:
        d[carry] = 10 ** 16
        x[carry] += 1

    top, quads = _split_digits(d)
    nd = np.full(v.size, 17)
    even = (quads[:, 3] % 10 == 0).nonzero()[0]
    if even.size:
        tail = np.empty((even.size, 17), dtype=np.uint8)
        tail[:, 0] = 49                       # the leading digit is never 0
        tail[:, 1:] = _QUAD_SLOTS[quads[even]].view(np.uint8)[:, ::2]
        nd[even] = 17 - np.argmax(tail[:, ::-1] != 48, axis=1)
    top[zero] = 0                             # a zero takes the layout of 1.0
    chars = _PATTERNS.take(_CLASS_CODES[x + _X_MAX] + 2 * nd + np.signbit(v) + row_end,
                           axis=0)
    chars[:, _TOP] &= (top + 48).astype(np.uint8)
    pairs = chars[:, _QUAD_PAIRS].view(np.uint64)
    pairs &= _QUAD_SLOTS[quads]
    exponent = chars[:, _EXP].view(np.uint32)
    exponent &= _EXPONENTS[x + _X_MAX, None]

    for i in slow:
        text = np.frombuffer(b"%.17g" % float(v[i]), dtype=np.uint8)
        chars[i, :_SEP] = 0
        chars[i, :text.size] = text
    return chars.tobytes().translate(None, b"\0")


def csv_blocks(table):
    """CSV lines of a 2-d float64 table, a block of rows at a time.

    Each cell is ``'%.17g' % float(v)``, followed by ``,`` or, after the
    last cell of a row, by ``\\n``.  A table with no rows yields nothing.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    step = max(1, _BLOCK_CELLS // cols)
    row_end = np.zeros((min(rows, step), cols), dtype=np.int64)
    row_end[:, -1] = _CODES
    row_end = row_end.ravel()
    for start in range(0, rows, step):
        block = table[start:start + step].ravel()
        yield _block_text(block, row_end[:block.size])

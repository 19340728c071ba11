"""Complex matrices as CSV text, byte for byte as ``'"%.17g,%.17g"'`` per cell:
the writer and the reader of the CLI's matrix files.

``%.17g`` costs a bignum conversion per number in Python, which made the CSV
writer the largest single cost of a ``dtn`` request.  Here the 17 significant
digits of every number come from numpy arithmetic instead, and its text is cut
out of a fixed template:

* ``a 10**(16 - k)`` is formed as an unevaluated sum ``ph + pl`` whose error is
  below 1e-14, from a table of ``10**p`` as ``hi + lo`` and Dekker's exact
  product, so it rounds half to even to the same 17 digits as an exact
  computation unless it lies within 1e-6 of a tie;
* every number owns one template of ``WIDTH`` bytes, in a buffer that is reused
  from block to block.  In text order it holds every byte any ``%.17g`` text
  can use: ``-``, ``0.``, ``000``, the 17 digits for the integer part, ``.``,
  the digits again for the fraction, ``e`` and a sign-and-exponent word looked
  up by ``k``, with the cell's quote, comma and newline bytes around them.  A
  block writes only the digits and the exponent words; the other bytes are
  written once;
* one keep-mask row per number selects the bytes of its text.  The rows are a
  table keyed on the sign, the layout class of ``k`` (each of ``-4..16`` in
  place, or an exponent of two or of three digits) and the count of significant
  digits, so ``%g``'s choices (no trailing zeros, exponent form for ``k < -4``
  or ``k >= 17``, at least two exponent digits) are made once, at import.  The
  text of a whole block is one boolean-mask copy of its buffer.

Non-finite values, nonzero magnitudes outside ``[1e-200, 1e200]`` and
near-ties are formatted by Python, into digit bytes of their template (which
the next block writes anew) and kept by a row for their length.
"""

from __future__ import annotations

import numpy as np

#: cells formatted per block: temporaries stay near 1 MB, and 8192 ran as fast as
#: 16384 and faster than 4096 or 32768 on dtn matrices of n = 256..1024
BLOCK_CELLS = 8192

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_PMIN, _PMAX = -190, 220  # 10**(16 - k) for |k| <= 200, with room for two corrections


def _power_of_ten(p: int) -> tuple:
    """``(hi, lo)``: hi the double nearest 10**p, lo the double nearest the rest."""
    if p >= 0:
        exact = 10**p
        return float(exact), float(exact - int(float(exact)))
    den = 10**-p
    hi = 1 / den  # int / int is correctly rounded
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (two * den)


def _halves(v):
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_HI, _LO = np.array([_power_of_ten(p) for p in range(_PMIN, _PMAX + 1)]).T
#: rows hi, lo and the halves of hi, of 10**p for p = _PMIN.._PMAX
_POW10 = np.array([_HI, _LO, *_halves(_HI)])

# The template of one number, in text order: byte 0 opens the cell ('"', real part)
# or separates its parts (',', imaginary part); then '-', "0.", "000" and the digit
# d0 (these four rewritten per block as one word), d1..d16, '.', d1..d16 again,
# 'e', the exponent's sign and three digits, and after the imaginary part the
# closing quote and the comma or newline.
WIDTH = 48
_LEAD, _MINUS, _ZERO, _ZERO_POINT, _ZEROS, _DIGITS = 0, 1, 2, 3, 4, 7
_POINT, _FRACTION, _E, _EXPONENT, _QUOTE, _SEP = 24, 25, 41, 42, 46, 47
_FIXED = np.zeros((2, WIDTH), dtype=np.uint8)
_FIXED[:, _MINUS:_DIGITS] = np.frombuffer(b"-0.000", dtype=np.uint8)
_FIXED[:, [_POINT, _E]] = ord("."), ord("e")
_FIXED[:, _LEAD] = ord('"'), ord(",")
_FIXED[1, [_QUOTE, _SEP]] = ord('"'), ord(",")
#: the bytes that every block writes anew, in text order; a Python text goes there
_FREE = np.r_[_DIGITS:_POINT, _FRACTION:_E]

# Layout classes: k = -4..16 printed in place (class k + 4), then exponent form
# with two or three exponent digits.  Keep-mask rows come per part (real,
# imaginary): the numbers by sign, class and significant digits, then the
# Python texts by length (at most 24).
_E2, _E3 = 21, 22
_SIGN_ROWS = (_E3 + 1) * 17
_PART_ROWS = 2 * _SIGN_ROWS + 25
_KMIN, _KMAX = -201, 200  # decimal exponents in [1e-200, 1e200]: the double 1e-200 < 10**-200


def _keep_table():
    """Keep-masks: row ``part * _PART_ROWS + sign * _SIGN_ROWS + 17 * class + digits - 1``
    for a number, ``part * _PART_ROWS + 2 * _SIGN_ROWS + length`` for a Python text."""
    p = np.arange(WIDTH)
    sign = np.arange(2)[:, None, None, None]
    c = np.arange(_E3 + 1)[:, None, None]
    n = np.arange(1, 18)[:, None]
    k = c - 4
    small, place, sci = c < 4, (c >= 4) & (c < _E2), c >= _E2
    j = p - _DIGITS  # digit of copy one at p
    f = p - _FRACTION + 1  # digit of copy two at p
    first = (j >= 0) & (j <= 16) & np.where(small, j < n, np.where(place, j <= k, j == 0))
    second = (f >= 1) & (f <= 16) & (f < n) & np.where(place, f > k, sci)
    point = (p == _POINT) & (place & (n > k + 1) | sci & (n > 1))
    fixed = ((p == _MINUS) & (sign == 1)) | small & (
        (p == _ZERO) | (p == _ZERO_POINT) | (p >= _ZEROS) & (p < _ZEROS - k - 1))
    exponent = sci & ((p == _E) | (p >= _EXPONENT) & (p < _EXPONENT + 4)
                      & ((p != _EXPONENT + 1) | (c == _E3)))
    numbers = (first | second | point | fixed | exponent).reshape(2 * _SIGN_ROWS, WIDTH)
    free = np.isin(p, _FREE)
    texts = free & (np.cumsum(free) <= np.arange(25)[:, None])
    real = np.concatenate([numbers, texts]) | (p == _LEAD)
    return np.concatenate([real, real | (p == _QUOTE) | (p == _SEP)])


_KEEP = _keep_table()
_K = np.arange(_KMIN, _KMAX + 1)
#: 17 * the class of k, minus one: adding the significant digits gives the row
_CLASS_ROW = 17 * np.where((_K < -4) | (_K > 16), np.where(np.abs(_K) < 100, _E2, _E3),
                           _K + 4) - 1
_EXP = np.abs(_K)[:, None] // np.array([1, 100, 10, 1]) % 10 + 48
_EXP[:, 0] = np.where(_K < 0, ord("-"), ord("+"))
#: the exponent's sign and three digits, as a little-endian word
_EXP = _EXP.astype(np.uint8).view("<u4").ravel()
_DIGITS_OF = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # the digits of 0..9999
#: ASCII of the four digits of 0..9999, the first digit in the low byte
_QUADS = np.ascontiguousarray((48 + _DIGITS_OF).T).view("<u4").ravel()
#: trailing zeros of the four digits of 0..9999 (four for 0)
_TRAILING_ZEROS = np.cumprod(_DIGITS_OF[::-1] == 0, axis=0).sum(axis=0, dtype=np.int16)


def _round17(v, k):
    """One try at the 17 leading digits of ``v > 0`` given its decimal exponent ``k``:
    ``(D, k, miss)``, ``D`` rounded half to even, or 0 near a tie or where ``k``
    was off by one; ``miss`` marks the latter, and ``k`` is corrected."""
    row = (16 - _PMIN) - k
    hi, lo, hh, hl = (np.take(t, row) for t in _POW10)
    ph = v * hi
    vh, vl = _halves(v)
    pl = ((vh * hh - ph) + vh * hl + vl * hh) + vl * hl + v * lo  # v 10**p = ph + pl
    fl = np.floor(pl)
    frac = pl - fl
    d = ph.astype(np.int64) + fl.astype(np.int64)  # ph >= 2**53 is an integer
    high, low = d >= 10**17, d < 10**16
    d += frac > 0.5
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    miss = high | low
    d[miss | (np.abs(frac - 0.5) < 1e-6)] = 0
    return d, k + (carry | high) - low, miss


def _significand(a):
    """``(D, k)``: ``10**16 <= D < 10**17`` the 17 leading digits of ``a > 0`` rounded
    half to even, ``k`` its decimal exponent; ``D = 0`` where ``a`` is near a tie."""
    D, k, miss = _round17(a, np.floor(np.log10(a)).astype(np.int64))
    for _ in range(2):  # log10 can miss the exponent by one, either way
        todo = np.flatnonzero(miss)
        if not len(todo):
            break
        D[todo], k[todo], miss[todo] = _round17(a[todo], k[todo])
    return D, k


def _template(cells: int, cols: int) -> np.ndarray:
    """The fixed bytes of ``cells`` cells in rows of ``cols``: a ``(2 cells, WIDTH)``
    buffer, the real and the imaginary part of each cell in turn."""
    buf = np.empty((cells, 2, WIDTH), dtype=np.uint8)
    buf[:] = _FIXED
    buf[cols - 1::cols, 1, _SEP] = ord("\n")
    return buf.reshape(2 * cells, WIDTH)


def _fill(x, buf):
    """Write the digits and exponents of the float64 ``x`` (real and imaginary parts
    in turn, ``len(x)`` rows of ``buf``) and return each number's keep-mask row."""
    a = np.abs(x)
    ok = (a >= 1e-200) & (a <= 1e200)
    D, k = _significand(np.where(ok, a, 1.0))
    D[~ok] = 0  # a zero prints as the single digit 0 at k = 0
    # the first digit and four groups of four, each group's numbers in one row
    groups = np.empty((5, len(x)), dtype=np.int64)
    high = D // 10**8  # floor division by a constant is much faster than divmod
    low = D - high * 10**8
    np.floor_divide(high, 10**8, out=groups[0])
    high -= groups[0] * 10**8
    for i, part in ((1, high), (3, low)):
        np.floor_divide(part, 10**4, out=groups[i])
        np.subtract(part, groups[i] * 10**4, out=groups[i + 1])
    quads = np.take(_QUADS, groups)
    buf[:, _ZEROS:_POINT].view("<u4")[:] = quads.T  # "000" and the first digit, then 16
    buf[:, _FRACTION:_E].view("<u4")[:] = quads[1:].T
    k -= _KMIN  # the row of k in the tables by exponent
    buf[:, _EXPONENT:_EXPONENT + 4].view("<u4")[:, 0] = np.take(_EXP, k)
    z1, z2, z3, z4 = np.take(_TRAILING_ZEROS, groups[1:])
    zeros = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))  # 16 for 0 or 10**j
    row = np.take(_CLASS_ROW, k) + (17 - zeros)
    row += np.signbit(x) * _SIGN_ROWS
    slow = np.flatnonzero((D == 0) & (a != 0))  # non-finite, out of range, or near a tie
    for i in slow.tolist():
        text = b"%.17g" % x[i]
        buf[i, _FREE[:len(text)]] = np.frombuffer(text, dtype=np.uint8)
        row[i] = 2 * _SIGN_ROWS + len(text)
    row[1::2] += _PART_ROWS
    return row


def complex_rows(matrix: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """CSV lines of a complex C-contiguous matrix as ASCII bytes: ``"re,im"`` cells
    joined by commas, each row ending in a newline.  ``buf`` is a template of
    :func:`_template` with at least the matrix's cells, in rows of its width."""
    rows, cols = matrix.shape
    if not cols:
        return np.full(rows, ord("\n"), dtype=np.uint8)
    x = matrix.view(np.float64).ravel()
    buf = buf[:len(x)]
    keep = np.take(_KEEP, _fill(x, buf), axis=0)
    # a text is two to five runs of kept bytes, which a boolean index copies faster
    # than np.extract (which gathers through an index array)
    return buf[keep]


def write_complex_matrix_csv(path: str, matrix: np.ndarray, header: str):
    """Write ``matrix`` to ``path``: a ``#`` header line, then the rows of
    :func:`complex_rows`, ``BLOCK_CELLS`` cells at a time in one template."""
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=complex)
    rows, cols = matrix.shape
    step = max(1, BLOCK_CELLS // max(1, cols))
    buf = _template(min(step, rows) * cols, cols) if cols else None
    with open(path, "wb") as fh:
        fh.write(f"# {header}; cells are \"re,im\"; row-major\n".encode())
        for i in range(0, rows, step):
            fh.write(complex_rows(matrix[i:i + step], buf))


def _complex_cell(cell: str, number: int) -> complex:
    try:
        re_s, im_s = cell.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise ValueError(f"line {number}: cell {cell!r} is not a \"re,im\" pair") from None


def read_complex_csv(path: str) -> np.ndarray:
    """Matrix of a complex CSV file; a malformed cell or a ragged row is a ``ValueError``."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip().strip('"') for c in line.split('","')]
            cells[0] = cells[0].lstrip('"')
            cells[-1] = cells[-1].rstrip('"')
            if rows and len(cells) != len(rows[0]):
                raise ValueError(f"line {number}: {len(cells)} cells, the first row has "
                                 f"{len(rows[0])}")
            rows.append([_complex_cell(c, number) for c in cells])
    return np.array(rows, dtype=complex)

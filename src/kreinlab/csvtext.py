"""Complex matrices as CSV text, byte for byte as ``'"%.17g,%.17g"'`` per cell:
the writer and the reader of the CLI's matrix files.

``%.17g`` costs a bignum conversion per number in Python, which made the CSV
writer the largest single cost of a ``dtn`` request.  Here the 17 significant
digits of every number come from numpy arithmetic instead:

* ``a 10**(16 - k)`` is formed as an unevaluated sum ``ph + pl`` whose error is
  below 1e-14, from a table of ``10**p`` as ``hi + lo`` and Dekker's exact
  product, so it rounds half to even to the same 17 digits as an exact
  computation unless it lies within 1e-6 of a tie;
* the digits become ASCII through a table of the 10,000 four-digit groups and
  are placed, with the sign, leading ``0.000`` and the decimal point, by byte
  shifts of little-endian 64-bit words;
* ``%g``'s choices are kept: no trailing zeros, exponent form for ``k < -4``
  or ``k >= 17``, at least two exponent digits.

Non-finite values, nonzero magnitudes outside ``[1e-200, 1e200]`` and
near-ties are formatted by Python.
"""

from __future__ import annotations

import numpy as np

#: longest text: "-" 17 digits "." "e-200", or "-0.000" and 17 digits
WIDTH = 24
#: cells formatted per block, so that temporaries stay at a few MB
BLOCK_CELLS = 16384

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


_POW10 = np.array([_power_of_ten(p) for p in range(_PMIN, _PMAX + 1)])
_POW10_HALVES = np.stack(_halves(_POW10[:, 0]), axis=1)
_GROUPS = np.arange(10000)
#: ASCII of the four digits of 0..9999, the first digit in the low byte
_QUADS = (48 + _GROUPS[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
_QUADS = _QUADS.view("<u4").ravel()
#: trailing zeros of the four digits of 0..9999
_TRAILING_ZEROS = sum(_GROUPS % 10**j == 0 for j in range(1, 5))
#: row c: the bytes of a 32-byte row before column c set, as four little-endian words
_BELOW = (np.arange(32)[None, :] < np.arange(33)[:, None]).astype(np.uint8) * np.uint8(255)
_BELOW = _BELOW.view("<u8")
#: row c: "." at column c
_POINT = np.zeros((33, 32), dtype=np.uint8)
_POINT[np.arange(32), np.arange(32)] = ord(".")
_POINT = _POINT.view("<u8")
#: row n: True on the first n of WIDTH columns
_TEXT = np.arange(WIDTH)[None, :] < np.arange(WIDTH + 1)[:, None]


def _significand(a):
    """``(D, k)``: ``10**16 <= D < 10**17`` the 17 leading digits of ``a > 0`` rounded
    half to even, ``k`` its decimal exponent; ``D = 0`` where ``a`` is near a tie."""
    k = np.floor(np.log10(a)).astype(np.int64)
    D = np.zeros(len(a), dtype=np.int64)
    todo = np.arange(len(a))
    for _ in range(3):  # log10 can miss the exponent by one, either way
        v = a[todo]
        row = (16 - _PMIN) - k[todo]
        hi, lo = np.take(_POW10, row, axis=0).T
        hh, hl = np.take(_POW10_HALVES, row, axis=0).T
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
        settled = ~(high | low | (np.abs(frac - 0.5) < 1e-6))
        D[todo[settled]] = d[settled]
        k[todo[carry | high]] += 1
        k[todo[low]] -= 1
        todo = todo[high | low]
        if not len(todo):
            break
    return D, k


def format_g17(x):
    """``'%.17g' % v`` for every float64 ``v`` of the 1-D ``x``: a ``(len(x), WIDTH)``
    uint8 matrix of ASCII texts and the length of each."""
    n = len(x)
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-200) & (a <= 1e200))
    D, k = _significand(a[fast])
    if not D.all():
        fast, D, k = fast[D > 0], D[D > 0], k[D > 0]
    m = len(fast)
    sign = np.signbit(x[fast]).astype(np.int64)
    top, rest = np.divmod(D, 10**16)
    high, low = np.divmod(rest, 10**8)
    # 32 bytes per number: "0" * 7, the 17 digits, "0" * 8
    words = np.empty((m, 8), dtype="<u4")
    words[:, [0, 6, 7]] = 0x30303030
    words[:, 1] = ((top.astype(np.uint32) + 48) << 24) | 0x303030
    zeros = 0  # trailing zeros of the digits so far
    for col, part in ((2, high), (4, low)):
        group = part // 10**4
        for c, q in ((col, group), (col + 1, part - group * 10**4)):
            words[:, c] = np.take(_QUADS, q)
            t = np.take(_TRAILING_ZEROS, q)
            zeros = t if c == 2 else np.where(t == 4, zeros + 4, t)
    digits = 17 - zeros
    sci = (k < -4) | (k >= 17)
    lead = np.where(sci | (k >= 0), 0, -k)  # "0." and -k - 1 zeros before the digits
    start = 7 - lead - sign  # the text's first column
    minus = np.flatnonzero(sign)
    words.view(np.uint8).reshape(-1)[32 * minus + start[minus]] = ord("-")
    # the point goes after the first k + 1 digits, the first digit, or the first "0";
    # the bytes from there on move up by one (within each row of four words)
    point = np.where(sci, 8, np.where(k >= 0, 8 + k, 8 - lead))
    w = words.view("<u8").reshape(-1)
    below = np.take(_BELOW, point, axis=0).reshape(-1)
    upper = w & ~below
    moved = upper << np.uint64(8)
    moved[1:] |= upper[:-1] >> np.uint64(56)
    moved[::4] = upper[::4] << np.uint64(8)
    w = (w & below) | moved | np.take(_POINT, point, axis=0).reshape(-1)
    # drop the 2..7 columns before the text (the last word of a row is not needed)
    bits = np.repeat((8 * start).astype(np.uint64), 4)
    text = w >> bits
    text[:-1] |= w[1:] << (np.uint64(64) - bits[:-1])
    text = text.astype("<u8", copy=False).view(np.uint8).reshape(m, 32)[:, :WIDTH]
    chars = lead + digits  # characters from the first digit (or "0") on, point excluded
    before = point - start - sign  # characters of those before the point
    length = sign + before + np.where(chars > before, chars - before + 1, 0)
    exp = np.flatnonzero(sci)
    if len(exp):
        e = np.abs(k[exp])
        wide = e >= 100
        tail = np.empty((len(exp), 5), dtype=np.uint8)
        tail[:, 0] = ord("e")
        tail[:, 1] = np.where(k[exp] < 0, ord("-"), ord("+"))
        tail[:, 2] = 48 + np.where(wide, e // 100, e // 10 % 10)
        tail[:, 3] = 48 + np.where(wide, e // 10 % 10, e % 10)
        tail[:, 4] = 48 + e % 10
        width = 4 + wide
        for j in range(5):
            at = j < width
            text[exp[at], length[exp[at]] + j] = tail[at, j]
        length[exp] += width
    if m == n:
        return text, length
    out = np.zeros((n, WIDTH), dtype=np.uint8)
    lengths = np.zeros(n, dtype=np.int64)
    out[fast] = text
    lengths[fast] = length
    zero = np.flatnonzero(a == 0)  # "0" or "-0"
    minus = np.signbit(x[zero])
    out[zero, 0] = np.where(minus, ord("-"), ord("0"))
    out[zero[minus], 1] = ord("0")
    lengths[zero] = 1 + minus
    slow = np.ones(n, dtype=bool)
    slow[fast] = slow[zero] = False
    for i in np.flatnonzero(slow).tolist():
        t = b"%.17g" % x[i]
        out[i, :len(t)] = np.frombuffer(t, dtype=np.uint8)
        lengths[i] = len(t)
    return out, lengths


def complex_rows(matrix: np.ndarray) -> bytes:
    """CSV lines of a complex C-contiguous matrix: ``"re,im"`` cells joined by commas,
    each row ending in a newline."""
    rows, cols = matrix.shape
    n = rows * cols
    if not cols:
        return b"\n" * rows
    text, length = format_g17(matrix.view(np.float64).ravel())
    text, length = text.reshape(n, 2, WIDTH), length.reshape(n, 2)
    # '"' re ',' im '"' and ',' or a newline, every text padded to WIDTH and masked
    cells = np.empty((n, 2 * WIDTH + 4), dtype=np.uint8)
    keep = np.ones((n, 2 * WIDTH + 4), dtype=bool)
    cells[:, 0] = cells[:, 2 * WIDTH + 2] = ord('"')
    cells[:, WIDTH + 1] = cells[:, 2 * WIDTH + 3] = ord(",")
    cells[cols - 1::cols, 2 * WIDTH + 3] = ord("\n")
    for part, col in ((0, 1), (1, WIDTH + 2)):
        cells[:, col:col + WIDTH] = text[:, part]
        keep[:, col:col + WIDTH] = np.take(_TEXT, length[:, part], axis=0)
    return cells[keep].tobytes()


def write_complex_matrix_csv(path: str, matrix: np.ndarray, header: str):
    """Write ``matrix`` to ``path``: a ``#`` header line, then the rows of
    :func:`complex_rows`, ``BLOCK_CELLS`` cells at a time."""
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=complex)
    step = max(1, BLOCK_CELLS // max(1, matrix.shape[1]))
    with open(path, "wb") as fh:
        fh.write(f"# {header}; cells are \"re,im\"; row-major\n".encode())
        for i in range(0, len(matrix), step):
            fh.write(complex_rows(matrix[i:i + step]))


def _complex_cell(cell: str) -> complex:
    re_s, im_s = cell.split(",")
    return complex(float(re_s), float(im_s))


def read_complex_csv(path: str) -> np.ndarray:
    """Matrix of a complex CSV file; a malformed cell or a ragged row is a ``ValueError``."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip().strip('"') for c in line.split('","')]
            cells[0] = cells[0].lstrip('"')
            cells[-1] = cells[-1].rstrip('"')
            rows.append([_complex_cell(c) for c in cells])
    return np.array(rows, dtype=complex)

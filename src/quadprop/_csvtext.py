"""CSV text of float columns, every cell exactly as ``'%.12e' % x``.

``evolve`` prints 4096 rows of six cells, and Python's ``%`` costs about
half a microsecond per cell. Here numpy renders the cells a block of rows
at a time, and ``'%.12e'`` itself formats only the cells whose rounding
the vector arithmetic does not settle. For a finite x != 0:

1. e = floor(log10|x|) estimates the decimal exponent.
2. |x| 10^(12 - e) is formed as p + q: p = fl(|x| hi), q its exact
   rounding error by Dekker's TwoProduct on Veltkamp's 26-bit halves
   (T. J. Dekker, Numer. Math. 18 (1971) 224), plus fl(|x| lo). hi is
   10^(12 - e) correctly rounded and lo the correctly rounded remainder,
   both from exact integers, so hi + lo errs by at most 2^-106 relative.
   Where |e| > 200, |x| is scaled by 2^600 or 2^-600 and hi and lo by the
   inverse, all exactly, so that no product overflows or underflows.
3. f = (p - floor(p)) + q is the fraction of the exact product, to within
   2e-16, and N = floor(p) + (f > 1/2) its 13 digits.
4. The cell falls back to ``'%.12e'`` where floor(p) < 10^12 or
   N >= 10^13 (the estimate of e was one off, or the digits carry into a
   14th) or where |f - 1/2| < 1e-9 (a near or exact tie, which ``%``
   rounds half to even). Checked so, exactness rests on no bound but the
   one on f, which the margin exceeds 10^6 times. (A single product
   fl(|x| hi) errs by up to 2e-3 and needs a band of about 5e-3, which
   sends 1 % of the cells of an ``evolve`` CSV to ``'%.12e'``; one
   4096-row CSV then took 2.07 ms rather than 1.87.)
5. The sign, the digits and the exponent go into 4-byte words from lookup
   tables, 24 bytes per cell with NUL padding, which is then deleted.

Zero and negative zero take N = 0 and exponent 0 directly. The tables
cover every exponent a finite double has and are built at import.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_blocks"]

BLOCK_ROWS = 512

_EMIN, _EMAX = -324, 308  # decimal exponents of the finite nonzero doubles
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into 26-bit halves
_TIE = 1e-9  # half-width of the band of f around 1/2 left to '%'


def _power(e: int) -> tuple[float, float, float]:
    """(2^s, hi, lo) for exponent e, hi + lo = 10^(12 - e) 2^-s to 2^-106 relative."""
    k = 12 - e
    s = 600 if e < -200 else -600 if e > 200 else 0
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    if s > 0:
        den <<= s
    else:
        num <<= -s
    hi = num / den  # int / int rounds correctly
    h_num, h_den = hi.as_integer_ratio()
    return 2.0**s, hi, (num * h_den - h_num * den) / (den * h_den)


def _words(*columns) -> np.ndarray:
    """One uint32 word per row of four uint8 byte columns (2-D ones count as several)."""
    return np.column_stack(columns).astype(np.uint8, copy=False).view(np.uint32).ravel()


# The tables hold text as uint32 words, NUL where a word has a byte to spare.
_ONE = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_TWO = np.column_stack([np.repeat(_ONE, 10), np.tile(_ONE, 10)])  # "00" to "99"
_FOUR = _words(np.repeat(_TWO, 100, axis=0), np.tile(_TWO, (100, 1)))
# the last three digits and the exponent's "e"
_LAST = _words(np.repeat(_ONE, 100), np.tile(_TWO, (10, 1)), np.full(1000, ord("e")))
# sign, first digit, point and second digit, by 100 * negative + first two digits
_LEAD = _words(np.repeat([0, ord("-")], 100), np.tile(_TWO[:, 0], 2),
               np.full(200, ord(".")), np.tile(_TWO[:, 1], 2))
# exponent sign and digits, by e - _EMIN, NUL for a hundreds digit of 0
_e = np.arange(_EMIN, _EMAX + 1)
_EXPONENT = _words(np.where(_e < 0, ord("-"), ord("+")),
                   np.where(abs(_e) >= 100, _ONE[abs(_e) // 100 % 10], 0),
                   _TWO[abs(_e) % 100])
_scale, _hi, _lo = np.array([_power(e) for e in range(_EMIN, _EMAX + 1)]).T
_head = _hi * _SPLIT - (_hi * _SPLIT - _hi)
# 2^s, the Veltkamp halves of hi, and lo, by e - _EMIN along axis 1
_POWERS = np.stack([_scale, _head, _hi - _head, _lo])
del _ONE, _TWO, _e, _scale, _hi, _lo, _head


def _exact(x: float) -> tuple[int, int]:
    """(13 digits, exponent - _EMIN) of |x| as ``'%.12e'`` rounds it."""
    text = "%.12e" % abs(x)
    return int(text[0] + text[2:14]), int(text[15:]) - _EMIN


def _fill(x: np.ndarray, words: np.ndarray) -> None:
    """Write the text of the finite cells ``x`` into ``words[:, :5]`` (m x 6 uint32).

    A cell's words are its sign, first digit, point and second digit; the
    next 4 digits; 4 more; the last 3 and the "e"; the exponent.
    """
    a = np.abs(x)
    zero = a == 0.0
    np.copyto(a, 1.0, where=zero)  # computed as 1.0, which takes no fallback
    idx = np.floor(np.log10(a)).astype(np.intp)
    idx -= _EMIN
    scale, hh, hl, lo = np.take(_POWERS, idx, axis=1)
    a *= scale
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * (hh + hl)
    q = ah * hh - p
    q += ah * hl
    q += al * hh
    q += al * hl
    q += a * lo
    n = np.floor(p)
    bad = n < 1e12
    p -= n
    p += q  # the fraction f
    n += p > 0.5
    bad |= n >= 1e13
    bad |= np.abs(p - 0.5) < _TIE
    np.copyto(n, 0.0, where=zero)
    for j in np.flatnonzero(bad).tolist():
        n[j], idx[j] = _exact(float(x[j]))
    n = n.astype(np.int64)
    lead = n // 10**11
    lead += 100 * np.signbit(x)
    words[:, 0] = _LEAD[lead]
    mid = n // 1000
    words[:, 3] = _LAST[n - 1000 * mid]
    high = mid // 10**4
    words[:, 2] = _FOUR[mid - 10**4 * high]
    high %= 10**4
    words[:, 1] = _FOUR[high]
    words[:, 4] = _EXPONENT[idx]


def csv_blocks(*columns):
    """CSV text of equal-length float columns, ``BLOCK_ROWS`` rows per chunk.

    One newline-ended line per index, its cells as ``'%.12e' % x``, joined
    by commas. The cells of a block are copied into one array, rendered
    into one array of words and joined by one ``bytes.translate``; both
    arrays are allocated once per call. Raises ValueError, before the
    first chunk, if a value is not finite.
    """
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("cannot write non-finite values as CSV")
    k, n = len(columns), len(columns[0])
    cells = np.empty((BLOCK_ROWS, k))
    words = np.zeros((BLOCK_ROWS, k, 6), dtype=np.uint32)
    # each cell's last word, never overwritten: its separator and three NULs
    words[:, :, 5] = ord(",")
    words[:, -1, 5] = ord("\n")
    words = words.reshape(BLOCK_ROWS * k, 6)
    for lo in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - lo)
        for j, c in enumerate(columns):
            cells[:rows, j] = c[lo:lo + rows]
        block = words[:rows * k]
        _fill(cells[:rows].ravel(), block)
        yield block.tobytes().translate(None, b"\0").decode("ascii")

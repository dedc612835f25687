"""The bytes of ``repr`` for a whole float64 array, and of ``str`` for int64.

Digits: the shortest that read back to the same float, the nearest of those,
ties to even, chosen without a loop by Schubfach's ``toDecimal`` (Giulietti
2020; the JDK's ``DoubleToDecimal``) in uint64 arithmetic.  The scaled value
and both ends of its rounding interval come from one exact 128-bit product
of ``10**-k`` and the scaled significand: the ends differ from it by
``10**-k`` shifted left, added or taken away with a carry or a borrow.
Subnormals alone fall back to ``repr``.  Layout: positional where the point
position ``decpt`` (value = 0.d1d2... x 10**decpt) is in -3..16, with ``.0``
on an integral value; ``d.ddde-XX`` otherwise.  A cell is six uint64 words
(a sign, ``0.000``, 17 digits each followed by a point, an exponent), and a
mask chosen by the sign, the layout class and the count of significant
digits turns the bytes that are not text into NULs.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

#: bytes of a cell
WIDTH = 48
_DIGITS = 17
#: the layout classes: positional at decpt -3..16, then exponent form
_CLASSES = 21
_K_MIN = -324   # the least decimal exponent k of a normal float64
_FIRSTS, _EXPONENTS = 10_000, 10_010
_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
_LOW63 = _U64(2**63 - 1)


def _masks() -> np.ndarray:
    """Which of a cell's bytes hold the text, by layout class, count of
    significant digits (1..17) and sign, as 0 or 1 bytes."""
    cls, count, neg, col = np.ix_(range(_CLASSES), range(1, _DIGITS + 1), range(2), range(WIDTH))
    decpt, exponent = cls - 3, cls == 20
    point = np.where(exponent, count > 1, decpt)   # the point after this digit, if above 0
    digits = np.maximum(count, point + 1)   # '.0' on an integral value
    keep = ((col == 0) & (neg == 1)
            | (col >= 1) & (col < 3 - decpt) & (decpt <= 0)   # '0.' and -decpt zeros
            | (col == 5 + 2 * point) & (point > 0)
            | (col >= 6) & (col < 6 + 2 * digits) & (col % 2 == 0)
            | exponent & (col >= 40))   # 'e', its sign and digits, then NULs
    return keep.reshape(-1, WIDTH).astype(np.uint8)


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on the first call: ``g(k)`` split at bit
    63, the words of a cell's text, the significant digits of a 4-digit
    group, and the masks."""
    # 10**-k = beta 2**r with 2**125 <= beta < 2**126, r = flog2pow10(-k) - 125,
    # and g = floor(beta) + 1; k = -324..0, then 1..292
    g = ([(10**n << 125 >> (n * 913_124_641_741 >> 38)) + 1 for n in range(-_K_MIN, -1, -1)]
         + [(1 << 125 - (-k * 913_124_641_741 >> 38)) // 10**k + 1 for k in range(1, 293)])
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + np.uint8(ord("0"))
    dotted = np.full((10_000, 8), ord("."), np.uint8)
    dotted[:, ::2] = quads
    i = np.arange(10_000)
    significant = np.where(i > 0, 4 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0), -_DIGITS)
    t = SimpleNamespace(
        g1=np.array([x >> 63 for x in g], _U64),
        g0=np.array([x & (2**63 - 1) for x in g], _U64),
        # 4-digit groups and a NUL word, for integers
        quads=np.append(quads.view(np.uint32), np.uint32(0)),
        # a cell's words: 'd.d.d.d.' at 0, '-0.000d.' at _FIRSTS, 'e+XX' at _EXPONENTS
        words=np.concatenate([
            dotted.view(_U64).ravel(),
            np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), _U64),
            np.array([b"e%+03d" % e for e in range(-308, 309)], "S8").view(_U64)]),
        significant=np.append(significant, [-_DIGITS] * (10 + 617)),
        masks=_masks().view(_U64) * _U64(0xFF),
        powers=_U64(10) ** np.arange(1, 20, dtype=_U64))
    # 0.0 and -0.0: the digits 0 at decpt 1
    t.zeros = (t.masks[4 * _DIGITS * 2:][:2]
               & t.words[[_FIRSTS, 0, 0, 0, 0, _EXPONENTS + 308]]).view("V48").ravel()
    return t


def _groups(a: np.ndarray) -> np.ndarray:
    """The five 4-digit groups of each element of the uint64 array ``a``
    below 10**20, most significant first, in the first five of six int64
    columns; the sixth is the caller's."""
    out = np.empty((a.size, 6), _U64)
    top = np.floor_divide(a, _U64(10**16), out=out[:, 0])
    rest = a - top * _U64(10**16)
    high = rest // _U64(10**8)
    for col, half in ((1, high), (3, rest - high * _U64(10**8))):
        quotient = np.floor_divide(half, _U64(10**4), out=out[:, col])
        np.subtract(half, quotient * _U64(10**4), out=out[:, col + 1])
    return out.view(np.int64)


def _mulhi(a, b):
    """The high 64 bits of each 128-bit product ``a * b`` of uint64 arrays."""
    a1, a0, b1, b0 = a >> 32, a & _LOW32, b >> 32, b & _LOW32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + ((mid & _LOW32) + a0 * b1 >> 32)


def _odd(y1, y0, x1):
    """``g p / 2**127`` rounded to odd (Schubfach's ``rop``), for ``g = g1
    2**63 + g0``, from the words ``y1``, ``y0`` of ``g1 p`` and the high
    word ``x1`` of ``g0 p``."""
    z = (y0 >> 1) + x1
    return y1 + (z >> 63) | (z & _LOW63) + _LOW63 >> 63


def _interval(g1, g0, cp, el, er):
    """``g (cp - 2**el)``, ``g cp`` and ``g (cp + 2**er)`` over 2**127, each
    rounded to odd, for ``g = g1 2**63 + g0``.  The ends' products are the
    centre's, exact in the words of ``g1 cp`` and ``g0 cp``, less or plus
    ``g1`` and ``g0`` shifted left, with a borrow or a carry."""
    y1, y0, x1, x0 = _mulhi(g1, cp), g1 * cp, _mulhi(g0, cp), g0 * cp
    d1, d0 = g1 << el, g0 << el
    vbl = _odd(y1 - (g1 >> 64 - el) - (y0 < d1), y0 - d1, x1 - (g0 >> 64 - el) - (x0 < d0))
    d1, d0 = g1 << er, g0 << er
    vbr = _odd(y1 + (g1 >> 64 - er) + (y0 + d1 < d1), y0 + d1,
               x1 + (g0 >> 64 - er) + (x0 + d0 < d0))
    return vbl, _odd(y1, y0, x1), vbr


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits of each normal float64 of ``bits``, as 17-digit
    uint64 integers, and their ``decpt``."""
    t = _tables()
    fraction, biased = bits & _U64(2**52 - 1), bits >> 52 & _U64(0x7FF)
    c = fraction | _U64(2**52)
    q = biased.astype(np.int64) - 1075
    # the rounding interval is [v - ulp/4, v + ulp/2] on a power of two; at
    # 2**-1022, where it is not, both intervals give the same digits
    lopsided = fraction == 0
    k = q * 661_971_961_083 - lopsided * 274_743_187_321 >> 41
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(_U64)
    g1, g0 = t.g1.take(k - _K_MIN), t.g0.take(k - _K_MIN)
    # v and the ends of its rounding interval, each times 4 / 10**k
    vbl, vb, vbr = _interval(g1, g0, c << h + _U64(2), h + _U64(1) - lopsided, h + _U64(1))
    odd = c & _U64(1)
    s = vb >> _U64(2)
    # one digit fewer: the multiple of ten below or above s, if exactly one
    # of them lies inside the interval
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl + odd <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10) << _U64(2)) + odd <= vbr
    # else s or s + 1, whichever alone lies inside, or the nearer, ties to even
    uin = vbl + odd <= s << _U64(2)
    win = (s + _U64(1) << _U64(2)) + odd <= vbr
    mid = s + s + _U64(1) << _U64(1)
    down = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & _U64(1) == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + _U64(10)), s + ~down)
    # f 10**k, where f has 16 or 17 digits
    long = f >= _U64(10**16)
    return np.where(long, f, f * _U64(10)), k + 16 + long


def floats(x: np.ndarray) -> np.ndarray:
    """The text of each element of the finite float64 array ``x``, as a
    ``(x.size, WIDTH)`` uint8 matrix: row i is the ASCII bytes of
    ``repr(float(x.flat[i]))`` in order, with NUL bytes among them."""
    t = _tables()
    bits = np.ascontiguousarray(x, np.float64).reshape(-1).view(_U64)
    normal = np.flatnonzero(bits & _U64(0x7FF << 52))
    f, decpt = _shortest(bits.take(normal))
    words = _groups(f)   # the leading digit, four groups, and the exponent
    words[:, 0] += _FIRSTS
    words[:, 5] = decpt + _EXPONENTS + 308 - 1
    # the place of each group's last nonzero digit
    last = t.significant.take(words) + [0, 1, 5, 9, 13, 0]
    count = np.maximum(np.maximum(last[:, 1], last[:, 2]), np.maximum(last[:, 3], last[:, 4]))
    positional = (decpt >= -3) & (decpt <= 16)
    cls = np.where(positional, decpt + 3, 20)
    negative = (bits >> _U64(63)).view(np.int64)
    words = t.words.take(words) & t.masks.take(
        (cls * _DIGITS + np.maximum(count, 1) - 1) * 2 + negative.take(normal), axis=0)
    # zeros, most of a long irf's cells, skip the digit and layout passes
    text = t.zeros.take(negative)   # 0.0 and -0.0 where not normal
    text[normal] = words.view("V48").ravel()
    text = text.view(np.uint8).reshape(-1, WIDTH)
    # subnormals (0 < |x| < 2**-1022) take repr: their shorter digits would
    # cost every value on the array path a digit-count normalization
    for i in np.flatnonzero((bits & _LOW63) - _U64(1) < _U64(2**52 - 1)):
        fallback = repr(float(x.flat[i])).encode()
        text[i] = np.frombuffer(fallback.ljust(WIDTH, b"\0"), np.uint8)
    return text


def integers(x: np.ndarray) -> np.ndarray:
    """The text of each element of the int64 array ``x``, as ``str`` gives
    it, like :func:`floats`, in at most 20 columns."""
    t = _tables()
    x = np.asarray(x, np.int64).reshape(-1)
    a = np.abs(x).view(_U64)   # the least int64 too
    groups = _groups(a)
    groups[:, 5] = 10_000   # NUL
    text = t.quads.take(groups).view(np.uint8)
    start = 19 - np.searchsorted(t.powers, a, side="right") - (x < 0)
    neg = np.flatnonzero(x < 0)
    text[neg, start[neg]] = ord("-")
    first = start.min(initial=19)   # the columns no text reaches go
    return text[:, first:20] * (np.arange(first, 20) >= start[:, None])

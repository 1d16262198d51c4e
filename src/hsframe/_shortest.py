"""``float.__repr__`` of whole float64 arrays at once.

``reprs(x)`` gives, for each float in a 1-D float64 array, the bytes of its
``repr``: the shortest decimal that reads back as the same float, the one
closest to it when several are that short, in Python's layout.  The digits
are Giulietti's Schubfach algorithm ("The Schubfach way to render doubles",
2020; the algorithm of the JDK's ``Double.toString``) over ``uint64``
arrays, the same digits as CPython's dtoa in its shortest mode.  Every
float takes the whole algorithm: its decimal for an integer below 2**53 is
that integer, so the JDK's fast path for those, a saving for one float at a
time, would only add work to a block.  Python's
layout writes the digits ``d1 ... dn`` of ``0.d1...dn * 10**decpt`` in
exponent form when ``decpt <= -4`` or ``decpt > 16``, with an exponent of at
least two digits and its sign, and in fixed form otherwise, with ``.0`` after
an integral value.  Subnormals, where Schubfach's digits can differ from
dtoa's (``4.9E-324`` against ``5e-324``), go through ``float.__repr__`` one
at a time.  Non-finite values are not handled: a family's entries are
finite.

The work runs in blocks of ``BLOCK`` floats, whose temporaries stay small
enough to be reused from block to block instead of fresh pages faulted in.
The tables are built on first use and are read-only, so concurrent callers
share them and the module keeps no state.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BLOCK", "reprs"]

#: Floats formatted per block.
BLOCK = 8192

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_C_MIN = 2**52  # the smallest normal significand
_K_MIN, _K_MAX = -324, 292  # the range of k = floor(log10(2**q)) over doubles
_WIDTH = 25  # a record: the longest repr (24 bytes) and at least one space
_POW10 = 10 ** np.arange(17, dtype=np.uint64)

# Each float's characters, from which a layout picks a record: a minus, a
# zero, a point, the significand's 17 decimal digits right-aligned, the
# exponent's 'e', sign and three digits, and a space.
_MINUS, _ZERO, _POINT, _DIGITS, _E, _EXP_SIGN, _EXP_DIGITS, _SPACE = (
    0, 1, 2, 3, 20, 21, 22, 25)
_CHARS = 26
_FIXED = range(-3, 17)  # the decpt values written in fixed form


def _flog10pow2(e):
    """floor(log10(2**e)) for |e| <= 5456721 (Giulietti, section 8)."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)) for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(g1, g0, layouts)``, read-only.

    ``g1[k - K_MIN] * 2**63 + g0[k - K_MIN]`` is Schubfach's g for k: with
    ``10**-k = beta * 2**r`` and ``2**125 <= beta < 2**126``,
    ``g = floor(beta) + 1``, computed exactly with Python ints.

    ``layouts[key]`` lists, for each byte of a record, the index of the
    character it copies, for ``key = (form * 17 + n - 1) * 2 + negative``:
    n significant digits, and form ``decpt + 3`` for a decpt written in
    fixed form, 20 for an exponent of two digits and 21 for one of three.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        den = 10 ** max(k, 0) << max(r, 0)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    layouts = []
    for form in range(len(_FIXED) + 2):
        for n in range(1, 18):
            digits = list(range(_DIGITS + 17 - n, _DIGITS + 17))
            if form < len(_FIXED):
                decpt = _FIXED[form]
                if decpt <= 0:
                    body = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
                elif decpt < n:
                    body = digits[:decpt] + [_POINT] + digits[decpt:]
                else:
                    body = digits + [_ZERO] * (decpt - n) + [_POINT, _ZERO]
            else:
                body = digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
                exp_digits = 3 if form == len(_FIXED) + 1 else 2
                body += [_E, _EXP_SIGN] + list(range(_EXP_DIGITS + 3 - exp_digits,
                                                      _EXP_DIGITS + 3))
            for record in (body, [_MINUS] + body):
                layouts.append(record + [_SPACE] * (_WIDTH - len(record)))
    tables = (np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64),
              np.array(layouts, dtype=np.intp))
    for table in tables:
        table.setflags(write=False)
    return tables


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of each 128-bit product ``a * b`` of uint64
    arrays, the high ones from 32-bit halves."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    mid1, mid2 = a1 * b0, a0 * b1
    carry = ((a0 * b0) >> _U(32)) + (mid1 & _M32) + (mid2 & _M32)
    high = a1 * b1 + (mid1 >> _U(32)) + (mid2 >> _U(32)) + (carry >> _U(32))
    return high, a * b  # the low product wraps, as intended


def _shifted(product, g: np.ndarray, shift: np.ndarray, sign: int):
    """``product + sign * g * 2**shift`` for a 128-bit ``product`` as
    ``(high, low)``, 0 < shift < 64."""
    high, low = product
    g_high, g_low = g >> (_U(64) - shift), g << shift
    if sign > 0:
        low = low + g_low
        return high + g_high + (low < g_low), low
    return high - g_high - (low < g_low), low - g_low


def _rop(p1, p0) -> np.ndarray:
    """Schubfach's ``rop``: ``(g1 * 2**63 + g0) * cp / 2**127``, rounded to
    odd, from ``p1 = g1 * cp`` and ``p0 = g0 * cp`` as ``(high, low)``."""
    z = (p1[1] >> _U(1)) + p0[0]
    return (p1[0] + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, e)`` with ``f * 10**e`` the shortest closest decimal of each
    positive normal float64 whose bits are ``bits``."""
    g1_table, g0_table, _ = _tables()
    bq = (bits >> _U(52)).astype(np.int64)
    c = (bits & _U(_C_MIN - 1)) | _U(_C_MIN)
    q = bq - 1075
    irregular = (c == _U(_C_MIN)) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1 = g1_table[k - _K_MIN]
    g0 = g0_table[k - _K_MIN]
    # vb, vbl and vbr are 4 * 10**-k times the float c * 2**q and the ends
    # of its rounding interval, (c - 1/2) * 2**q (c - 1/4 where the spacing
    # below halves) and (c + 1/2) * 2**q, rounded to odd; their cp are
    # c * 2**(h + 2) less 2**(h + 1) (2**h) and plus 2**(h + 1)
    cp = c << (h + _U(2))
    p1, p0 = _product(g1, cp), _product(g0, cp)
    vb = _rop(p1, p0)
    left = h + _U(1) - irregular.astype(np.uint64)
    vbl = _rop(_shifted(p1, g1, left, -1), _shifted(p0, g0, left, -1))
    vbr = _rop(_shifted(p1, g1, h + _U(1), 1), _shifted(p0, g0, h + _U(1), 1))
    out = c & _U(1)  # 1 where the interval excludes its ends: c odd
    # a decimal of one digit fewer, s' * 10 or (s' + 1) * 10, when exactly
    # one of them lies in the rounding interval
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    # else s or s + 1, whichever lies in it, or when both do the closer
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    mid = (s + t) << _U(1)
    closer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t), np.where(closer_s, s, t)))
    return f, k


def _records(x: np.ndarray) -> np.ndarray:
    """A ``(len(x), 25)`` uint8 array holding each float's repr, padded with
    spaces."""
    _, _, layouts = _tables()
    bits = x.view(np.uint64)
    negative = bits >> _U(63)
    bits = bits & _M63
    normal = bits >= _U(_C_MIN)
    # a zero has the digit 0 at exponent 0; a subnormal is written below
    f = np.zeros(len(x), dtype=np.uint64)
    e = np.zeros(len(x), dtype=np.int64)
    f[normal], e[normal] = _decimal(bits[normal])
    nonzero = f != _U(0)
    while True:  # strip trailing zeros
        f10 = f // _U(10)
        strip = (f10 * _U(10) == f) & nonzero
        if not strip.any():
            break
        f = np.where(strip, f10, f)
        e += strip
    # one row per character, so that each write below is contiguous
    chars = np.empty((_CHARS, len(x)), dtype=np.uint8)
    chars[_MINUS] = ord("-")
    chars[_ZERO] = ord("0")
    chars[_POINT] = ord(".")
    chars[_E] = ord("e")
    chars[_SPACE] = ord(" ")
    # f < 10**17: its first 8 digits and its last 9, from the last, a digit
    # of each at a time into rows 9 apart
    rest = np.empty((2, len(x)), dtype=np.uint32)
    rest[0] = high = f // _U(10**9)
    rest[1] = f - high * _U(10**9)
    ascii_zero = np.uint32(ord("0"))
    for row in range(_DIGITS + 7, _DIGITS - 1, -1):
        quotient = rest // np.uint32(10)
        chars[row:row + 10:9] = rest - quotient * np.uint32(10) + ascii_zero
        rest = quotient
    chars[_DIGITS + 8] = rest[1] + ascii_zero
    n = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    decpt = n + e
    exponent = decpt - 1
    chars[_EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    magnitude = np.abs(exponent)
    hundreds, tens = magnitude // 100, magnitude // 10
    chars[_EXP_DIGITS] = hundreds + ord("0")
    chars[_EXP_DIGITS + 1] = tens - hundreds * 10 + ord("0")
    chars[_EXP_DIGITS + 2] = magnitude - tens * 10 + ord("0")
    fixed = (decpt >= _FIXED[0]) & (decpt <= _FIXED[-1])
    form = np.where(fixed, decpt - _FIXED[0],
                    np.where(magnitude < 100, len(_FIXED), len(_FIXED) + 1))
    # character c of float i is chars.flat[c * len(x) + i]
    index = (layouts * len(x))[(form * 17 + n - 1) * 2 + negative.astype(np.intp)]
    index += np.arange(len(x))[:, None]
    records = chars.ravel().take(index)
    for i in np.flatnonzero(~normal & (bits != _U(0))):
        text = repr(float(x[i])).encode()
        records[i] = ord(" ")
        records[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return records


def reprs(x: np.ndarray) -> list[bytes]:
    """``[repr(v).encode() for v in x]`` for a 1-D array of finite float64."""
    out = []
    for start in range(0, len(x), BLOCK):
        out += _records(x[start:start + BLOCK]).tobytes().split()
    return out

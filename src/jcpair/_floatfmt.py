"""Python's float ``repr`` for whole float64 arrays, computed in NumPy.

``repr(x)`` of a finite float is the shortest decimal that reads back as
``x`` (of those, the closest; at a tie, the one with an even last digit),
written positionally for ``1e-4 <= |x| < 1e16`` and as ``d.ddde±XX``
otherwise.  ``fields`` finds those digits for a whole array at once with
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020, as in
``toDecimal`` of Java's ``DoubleToDecimal``), which needs only 64-bit
integer multiplies, shifts and compares.  Two of Java's rules are left out,
because both keep at least two digits where ``repr`` keeps one: the
``C_TINY`` path, which scales the smallest subnormals' significand by 10
and their exponent down by one, and the ``s >= 100`` guard on the
one-digit-shorter candidates.  With them ``5e-324`` and ``8e-323`` would
print as ``4.9e-324`` and ``7.9e-323``.

Each text is laid out in a fixed-width field with NUL in every unused byte,
so ``row_blocks`` can join the fields of a block of rows with their
literal pieces in one buffer and delete the NULs with one
``bytes.translate``.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

# A field is six little-endian uint64 words.  Word 0 holds the sign, the
# "0.", "0.0", ... lead of a positional number below 1, and the first digit
# (byte 7).  Words 1-4 hold the other 16 digits as (point slot, digit) byte
# pairs, four to a word.  Word 5 holds the exponent in bytes 0-4; its bytes
# 5-7 are left for the caller.
WORDS = 6
SPARE = 3

_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over the binades' exponents q


def _u(value: int) -> np.ndarray:
    # NumPy combines a 0-d uint64 array with uint64 arrays faster than a Python int.
    return np.array(value, dtype=np.uint64)


def _i(value: int) -> np.ndarray:
    return np.array(value, dtype=np.int64)


_U0, _U1, _U2, _U3, _U4, _U6, _U7, _U32, _U52, _U56, _U63 = map(_u, (0, 1, 2, 3, 4, 6, 7, 32, 52, 56, 63))
_U10, _U10_4, _U10_8, _U10_16 = map(_u, (10, 10**4, 10**8, 10**16))
_EXPONENT, _MANTISSA, _HIDDEN = _u(0x7FF), _u((1 << 52) - 1), _u(1 << 52)
_M32, _EVEN32, _MINUS, _ONES = _u(0xFFFFFFFF), _u(0xFFFFFFFE), _u(ord("-")), _u(2**64 - 1)
_U40, _POINT, _ASCII_0 = _u(40), _u(ord(".")), _u(ord("0"))
_SPECIAL = _u((0x7FF << 53) - 1)  # (bits << 1) - 1 from here up: zero, inf or nan
_SPARE_BYTES = _u(2**64 - 2 ** (64 - 8 * SPARE))
_I0, _I4, _I12, _I38, _I41, _I52, _I64, _I1075 = map(_i, (0, 4, 12, 38, 41, 52, 64, 1075))
_LOG10_2, _LOG10_3_4, _LOG2_10 = map(_i, (661_971_961_083, 274_743_187_321, -913_124_641_741))
_DECPTS = range(-324, 310)  # the rows of the tables by decpt (see fields)


@cache
def _tables() -> dict[str, np.ndarray]:
    """Built on first use, not at import."""
    # Schubfach's g = floor(10^-k 2^(125 - floor(log2(10^-k)))) + 1, a
    # 126-bit number, as the 32-bit limbs of g1 = g >> 63 and g0 = g mod 2^63.
    limbs = np.empty((4, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        shift = 125 - ((-k * 913_124_641_741) >> 38)
        if k > 0:
            g = (1 << shift) // 10**k
        else:
            g = 10**-k << shift if shift >= 0 else 10**-k >> -shift
        g1, g0 = (g + 1) >> 63, (g + 1) & ((1 << 63) - 1)
        limbs[:, i] = g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF
    # A 4-digit group y as (point slot, ASCII digit) byte pairs, from the
    # pairs of its two 2-digit halves.
    pairs = [int.from_bytes(b"\0%c\0%c" % (48 + i // 10, 48 + i % 10), "little") for i in range(100)]
    halves = np.array(pairs, dtype=np.uint64)
    groups = (halves[:, None] | halves << _U32).ravel()
    # The index (1-4) of a group's last nonzero digit, or -16 for none.
    last = np.array([len(f"{i:04d}".rstrip("0")) or -16 for i in range(10**4)], dtype=np.int8)
    # By decpt: the "0." lead (bytes 1-5 of word 0), the exponent (word 5),
    # and, in 16-bit lanes after the first digit, where the point goes (or
    # -64: none) and how far positional output must show digits.
    exponent = [b"" if -4 < d <= 16 else f"e{d - 1:+03d}".encode() for d in _DECPTS]
    return {
        "limbs": limbs,
        "pow10": np.array([10**n for n in range(18)], dtype=np.uint64),
        "groups": groups,
        "last": last,
        "lead": np.array([int.from_bytes(b"\x000." + b"0" * -d, "little") if -4 < d <= 0 else 0 for d in _DECPTS], dtype=np.uint64),
        "exponent": np.array([int.from_bytes(text, "little") for text in exponent], dtype=np.uint64),
        "point": np.array([16 * (d - 1) if 0 < d <= 16 else 0 if text else -64 for d, text in zip(_DECPTS, exponent)]),
        "shown": np.array([16 * d if 0 < d <= 16 else 0 for d in _DECPTS]),
    }


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Java's ``rop(g1, g0, cp)``: ``g * cp / 2^127`` rounded to odd, from the
    limbs of g and a ``cp`` below 2^59, which it overwrites."""
    g1h, g1l, g0h, g0l = g
    ch = cp >> _U32
    cl = cp
    cl &= _M32
    # x1 = the high 64 bits of g0 * cp.  Each middle sum stays below 2^64
    # because cp < 2^59, so no limb product needs splitting.
    x1 = g0l * cl
    x1 >>= _U32
    t = g0l * ch
    x1 += t
    np.multiply(g0h, cl, out=t)
    x1 += t
    x1 >>= _U32
    np.multiply(g0h, ch, out=t)
    x1 += t
    # y1 * 2^64 + y0 = g1 * cp
    low = g1l * cl
    np.right_shift(low, _U32, out=t)
    np.multiply(g1h, cl, out=cl)
    t += cl
    np.multiply(g1l, ch, out=cl)
    t += cl
    np.multiply(g1h, ch, out=ch)
    np.right_shift(t, _U32, out=cl)
    y1 = ch
    y1 += cl
    # 2z = (y0 - (y0 & 1)) + 2 x1, where Java has z = (y0 >>> 1) + x1
    t <<= _U32
    low &= _EVEN32
    t |= low
    x1 <<= _U1
    t += x1
    y1 += t < x1  # z >>> 63
    y1 |= t != _U0  # z mod 2^63 != 0
    return y1


def _decimals(bits: np.ndarray, limbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each nonzero finite float64 given by its bits, the shortest
    decimal ``f * 10^k`` that rounds to it (of those, the closest, then the
    one with an even f), as (f, k + 324).  Zero, inf and nan give some f >= 1."""
    bq = bits >> _U52
    bq &= _EXPONENT
    c = bits & _MANTISSA
    irregular = c == _U0
    subnormal = bq == _U0
    c |= irregular & subnormal  # zero: as if the smallest subnormal
    irregular &= bq > _U1  # a power of two: the gap below is half the gap above
    c += _HIDDEN
    np.subtract(c, _HIDDEN, out=c, where=subnormal)
    np.maximum(bq, _U1, out=bq)
    q = bq.view(np.int64)
    q -= _I1075
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular
    k = q * _LOG10_2
    np.subtract(k, _LOG10_3_4, out=k, where=irregular)
    k >>= _I41
    h = k * _LOG2_10
    h >>= _I38
    h += q
    h += 2
    h = h.astype(np.uint8)  # 1..4
    del q, bq
    k -= _K_MIN
    g = limbs.take(k, axis=1)
    odd = (c & _U1).astype(bool)  # the interval's ends are outside it
    cb = c
    cb <<= _U2
    vb = _rop(g, cb << h)
    # The same for the lower and the upper end of v's rounding interval
    cb -= _U2
    cb += irregular
    vbl = _rop(g, cb << h)
    cb += _U4
    cb -= irregular
    vbr = _rop(g, cb << h)
    del g, c, cb, h, irregular
    vbl += odd
    vbr -= odd
    # The closer of s and s + 1 to v, or the even one at a tie: s + 1 when
    # vb mod 8 (v's fraction above s, in quarters, and s mod 2) is 3, 6 or 7.
    pick = vb & _U7
    w = pick == _U3
    w |= pick >= _U6
    del pick
    s = vb
    s >>= _U2
    sp10 = s // _U10  # u' = 10 floor(s / 10) and w' = u' + 10 have a digit fewer
    sp10 *= _U10
    s4 = s << _U2
    sp4 = sp10 << _U2
    uin = vbl <= s4
    upin = vbl <= sp4
    s4 += _U4
    sp4 += _U40
    win = s4 <= vbr
    wpin = sp4 <= vbr
    del vbl, vbr, s4, sp4
    # s or s + 1: the one in, if only one is; else the closer.
    one = uin ^ win
    win ^= w
    win &= one
    w ^= win
    s += w
    # u' or w' instead, if only one is in.
    one = upin ^ wpin
    sp10 += wpin * _U10
    sp10 -= s
    sp10 *= one
    s += sp10
    return s, k


def fields(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr(float(v))`` for each element v of the 1-d float64 array
    ``values`` into the matching row of ``out``, a ``(len(values), WORDS)``
    little-endian uint64 array: ASCII with NUL bytes anywhere between, in
    all but the last ``SPARE`` bytes of the row, which are left as they are."""
    tables = _tables()
    bits = values.view(np.uint64)
    f, e = _decimals(bits, tables["limbs"])
    # The digits of f: n = m + (f >= 10^m), m = floor(floor(log2 f) log10 2) + 1.
    # The float of f (< 2^57) may round up to a power of two, but no power
    # of ten lies that close below one.
    n = f.astype(np.float64).view(np.int64)
    n >>= _I52
    n *= 1233
    n -= 1023 * 1233 - 4096
    n >>= _I12
    pow10 = tables["pow10"]
    n += f >= pow10.take(n)
    f *= pow10.take(17 - n)  # 17 digits
    e += n  # decpt + 324, where the value is 0.DIGITS x 10^decpt
    del n
    # The first digit and the other 16 as four 4-digit groups.
    first = f // _U10_16
    f -= first * _U10_16
    ys = np.empty((4, len(f)), dtype=np.uint64)
    np.floor_divide(f, _U10_8, out=ys[1])
    np.subtract(f, ys[1] * _U10_8, out=ys[3])
    del f
    np.floor_divide(ys[1::2], _U10_4, out=ys[::2])
    ys[1::2] -= ys[::2] * _U10_4
    ys = ys.view(np.int64)
    # Digits shown after the first, in 16-bit lanes: through the last
    # nonzero one, and in positional output through the one after the point.
    last = tables["last"].take(ys)
    for group in range(1, 4):
        last[group] += 4 * group
    last = last.max(axis=0).astype(np.int64)
    last <<= _I4
    shown = tables["shown"].take(e)
    np.maximum(shown, last, out=shown)
    del last
    # Words 1-4: the point in its slot, then every lane past the shown
    # digits masked off (a point before no digit too).
    point = tables["point"].take(e)
    groups = tables["groups"]
    temp = np.empty_like(point)
    for group, y in enumerate(ys, 1):
        word = groups.take(y)
        np.left_shift(_POINT, point.view(np.uint64), out=temp.view(np.uint64))
        word |= temp.view(np.uint64)
        np.subtract(_I64, shown, out=temp)
        np.maximum(temp, _I0, out=temp)
        np.right_shift(_ONES, temp.view(np.uint64), out=temp.view(np.uint64))
        np.bitwise_and(word, temp.view(np.uint64), out=out[:, group])
        point -= _I64
        shown -= _I64
    del ys, temp, word, point, shown
    # Word 0: sign, lead, first digit.
    word = tables["lead"].take(e)
    first += _ASCII_0
    first <<= _U56
    word |= first
    sign = bits >> _U63
    sign *= _MINUS
    word |= sign
    out[:, 0] = word
    del word, first, sign
    # Word 5: the exponent, keeping the spare bytes.
    word = tables["exponent"].take(e)
    word |= out[:, 5] & _SPARE_BYTES
    out[:, 5] = word
    del word, e
    special = bits << _U1
    special -= _U1
    special = special >= _SPECIAL
    if special.any():
        for i in np.flatnonzero(special):
            row = out[i].view(np.uint8)
            text = repr(float(values[i])).encode()
            row[: row.size - SPARE] = 0
            row[: len(text)] = np.frombuffer(text, dtype=np.uint8)


def row_blocks(pieces: list[str], sep: str, columns: list[np.ndarray], block_rows: int) -> Iterator[str]:
    """The rows of equal-length float64 columns, each cell's ``repr``
    between the literal ``pieces`` (one more than there are columns), rows
    separated by ``sep``, in parts of up to ``block_rows`` rows."""
    total = len(columns[0])
    if total == 0:
        return
    width = len(columns)
    # A unit is a cell's field followed by its literal, which starts in the
    # field's spare bytes: the next piece, or after a row's last cell the
    # row's last piece, sep and the next row's first piece.
    literals = [piece.encode() for piece in pieces[1:-1]] + [(pieces[-1] + sep + pieces[0]).encode()]
    at = 8 * WORDS - SPARE
    unit = 8 * WORDS + -(-max(0, max(map(len, literals)) - SPARE) // 8) * 8
    rows = min(block_rows, total)
    units = np.zeros((rows * width, unit), dtype=np.uint8)
    for j, literal in enumerate(literals):
        units[j::width, at : at + len(literal)] = np.frombuffer(literal, dtype=np.uint8)
    cells = units[:, : 8 * WORDS].view("<u8")
    values = np.empty((rows, width))
    head = pieces[0]
    for start in range(0, total, rows):
        count = min(rows, total - start)
        for j, column in enumerate(columns):
            values[:count, j] = column[start : start + count]
        fields(values[:count].ravel(), cells[: count * width])
        if start + count == total:  # the last row ends with its last piece
            units[count * width - 1, at + len(pieces[-1].encode()) :] = 0
        # The copy pays for itself: bytes.translate beats bytearray.translate.
        yield head + units[: count * width].tobytes().translate(None, b"\0").decode()
        head = ""

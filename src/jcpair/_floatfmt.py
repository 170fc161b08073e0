"""Python's float ``repr`` for whole float64 arrays, computed in NumPy.

``repr(x)`` of a finite float is the shortest decimal that reads back as
``x`` (of those, the closest; at a tie, the one with an even last digit),
written positionally for ``1e-4 <= |x| < 1e16`` and as ``d.ddde±XX``
otherwise.  ``_decimals`` finds those digits for a whole array at once with
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020, as in
``toDecimal`` of Java's ``DoubleToDecimal``), which needs only 64-bit
integer multiplies, shifts and compares.  Two of Java's rules are left out,
because both keep at least two digits where ``repr`` keeps one: the
``C_TINY`` path, which scales the smallest subnormals' significand by 10
and their exponent down by one, and the ``s >= 100`` guard on the
one-digit-shorter candidates.  With them ``5e-324`` and ``8e-323`` would
print as ``4.9e-324`` and ``7.9e-323``.

A zero of either sign goes through the same kernel, as the digit 0 at
decpt 1.  Inf and nan raise ``ValueError``: no cell is formatted in Python.

Each text is laid out in a fixed-width field with NUL in every unused byte,
so ``row_blocks`` can join the fields of a block of rows with their
literal pieces in one buffer and delete the NULs with ``bytes.translate``.

``row_blocks`` formats a block in three phases, so that the large arrays of
no two phases are alive at once and a block takes the memory of its
largest phase, about 10 words (uint64) per cell:

1. ``_decimals`` finds each cell's digits from its bits, in the memory of
   the block's float64 cells and about 8 words more.  It takes the limbs
   of Schubfach's power of ten one at a time.
2. Only then is the block's buffer allocated, 4 words per cell (8 with a
   JSON row's literals), and ``_layout`` writes each text into it from
   the digits, in about 5 words more.
3. The buffer is copied out an eighth at a time, each eighth's NULs
   deleted, and its text moved to the buffer's front; the buffer then
   drops the rest and becomes the block's text.

The caller sizes a block by cells (``jcpair.cli`` takes 5,400), and these
10 words per cell set that size: the NumPy calls cost a fixed time each,
so each call should format as many cells as the memory allows.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

# A field is four little-endian uint64 words.  Word 0 holds the sign, the
# "0.", "0.0", ... lead of a positional number below 1, and the first digit
# (byte 7).  Words 1 and 2 hold the other 16 digits, the point among them,
# and word 3 the 17th of those bytes, if any, and the exponent in bytes 1-5;
# its bytes 6-7 are left for the caller.
WORDS = 4
SPARE = 2

_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over the binades' exponents q


def _u(value: int) -> np.ndarray:
    # NumPy combines a 0-d uint64 array with uint64 arrays faster than a Python int.
    return np.array(value, dtype=np.uint64)


def _i(value: int) -> np.ndarray:
    return np.array(value, dtype=np.int64)


_U0, _U1, _U2, _U3, _U4, _U6, _U7, _U8, _U16, _U32, _U52, _U56 = map(_u, (0, 1, 2, 3, 4, 6, 7, 8, 16, 32, 52, 56))
_U10, _U10_4, _U10_8, _U10_16 = map(_u, (10, 10**4, 10**8, 10**16))
_EXPONENT, _MANTISSA, _HIDDEN = _u(0x7FF), _u((1 << 52) - 1), _u(1 << 52)
_M32, _EVEN32, _MINUS = _u(0xFFFFFFFF), _u(0xFFFFFFFE), _u(ord("-"))
_U40, _ASCII_0 = _u(40), _u(ord("0"))
_I12, _I38, _I41, _I52, _I1075 = map(_i, (12, 38, 41, 52, 1075))
_LOG10_2, _LOG10_3_4, _LOG2_10 = map(_i, (661_971_961_083, 274_743_187_321, -913_124_641_741))
_DECPTS = range(-324, 310)  # the rows of the tables by decpt (see _layout)


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
    # A 4-digit group in ASCII, from its two 2-digit halves.
    halves = np.array([int.from_bytes(b"%02d" % i, "little") for i in range(100)], dtype=np.uint64)
    ascii = (halves[:, None] | halves << _U16).ravel()
    # The index (1-4) of a group's last nonzero digit, or -16 for none.
    last = np.array([len(f"{i:04d}".rstrip("0")) or -16 for i in range(10**4)], dtype=np.int8)
    # By decpt d: the "0." lead (bytes 1-5 of word 0), the exponent (bytes
    # 1-5 of word 3), and where the point goes among the 16 digits after
    # the first: before digit d - 1 of them (0-based) in positional output,
    # first in the exponent form, nowhere after a lead.  Two words of those
    # digits keep their bytes below the point and move the rest up one.
    exponent = [b"" if -4 < d <= 16 else f"e{d - 1:+03d}".encode() for d in _DECPTS]
    point = [d - 1 if 0 < d <= 16 else 0 if text else None for d, text in zip(_DECPTS, exponent)]
    ones = 2**64 - 1
    keep = [[ones if p is None or p >= 8 * (w + 1) else (1 << 8 * max(p - 8 * w, 0)) - 1 for p in point] for w in range(2)]
    dot = [[ord(".") << 8 * (p - 8 * w) if p is not None and 0 <= p - 8 * w < 8 else 0 for p in point] for w in range(2)]
    return {
        "limbs": limbs,
        "pow10": np.array([10**n for n in range(18)], dtype=np.uint64),
        "ascii": ascii,
        "last": last,
        "lead": np.array([int.from_bytes(b"\x000." + b"0" * -d, "little") if -4 < d <= 0 else 0 for d in _DECPTS], dtype=np.uint64),
        "exponent": np.array([int.from_bytes(b"\0" + text, "little") if text else 0 for text in exponent], dtype=np.uint64),
        "keep": np.array(keep, dtype=np.uint64),
        "dot": np.array(dot, dtype=np.uint64),
        # The bytes after the first digit that show are the point's and the
        # digits' through the last nonzero one, or in positional output
        # through the one after the point: max(base, last + plus).
        "base": np.array([d + 1 if 0 < d <= 16 else 0 for d in _DECPTS], dtype=np.int8),
        "plus": np.array([p is not None for p in point], dtype=np.int8),
        # The bytes of words 1, 2 and 3 (its first) that show, by how many do.
        "masks": np.array([[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(18)] for w in range(3)], dtype=np.uint64),
    }


def _rop(limbs: np.ndarray, k: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Java's ``rop(g1, g0, cp)``: ``g * cp / 2^127`` rounded to odd, for
    each g given by its column ``k`` of ``limbs`` and a ``cp`` below 2^59,
    which it overwrites.  The limbs are taken one at a time, into one array."""
    g1h, g1l, g0h, g0l = limbs
    g = np.empty_like(cp)
    ch = cp >> _U32
    cl = cp
    cl &= _M32
    # x1 = the high 64 bits of g0 * cp.  Each middle sum stays below 2^64
    # because cp < 2^59, so no limb product needs splitting.
    g0l.take(k, out=g, mode="clip")
    x1 = g * cl
    x1 >>= _U32
    g *= ch
    x1 += g
    g0h.take(k, out=g, mode="clip")
    t = g * cl
    x1 += t
    x1 >>= _U32
    g *= ch
    x1 += g
    # y1 * 2^64 + y0 = g1 * cp, with mid = (low >> 32) + g1l ch + g1h cl
    # for low = g1l cl.  Into x1 goes the part of 2z, where Java has
    # z = (y0 >>> 1) + x1, that is below 2^60: 2 x1 + (low mod 2^32).
    g1l.take(k, out=g, mode="clip")
    np.multiply(g, cl, out=t)
    g *= ch
    x1 <<= _U1
    x1 += t
    t >>= _U32
    g += t
    t <<= _U32
    x1 -= t
    g1h.take(k, out=t, mode="clip")
    np.multiply(t, cl, out=cl)
    g += cl
    # 2z mod 2^64 = (mid mod 2^32) 2^32 + x1 with bit 0 cleared.  Its carry,
    # z >>> 63, joins y1 = g1h ch + (mid >> 32) as (mid + (x1 >> 32)) >> 32
    # (mid < 2^63 + 2^60), and z mod 2^63 != 0 when that sum's low 32 bits
    # or x1's are not all zero.
    np.right_shift(x1, _U32, out=cl)
    g += cl
    y1 = t
    y1 *= ch
    np.right_shift(g, _U32, out=cl)
    y1 += cl
    g <<= _U32
    x1 &= _EVEN32
    g |= x1
    np.minimum(g, _U1, out=g)
    y1 |= g
    return y1


def _decimals(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each finite float64 given by its bits, the shortest decimal
    ``0.DIGITS * 10^decpt`` that rounds to it (of those, the closest, then
    the one with an even last digit), as DIGITS padded to 17 digits and
    decpt + 324, with whether it is negative.  A zero of either sign gets
    the digit 0 at decpt 1.  Raises ``ValueError`` if any of the floats is
    inf or nan.  ``bits`` is overwritten."""
    tables = _tables()
    limbs = tables["limbs"]
    bq = bits >> _U52
    negative = bq > _EXPONENT
    bq &= _EXPONENT
    if bq.max(initial=0) == _EXPONENT:
        raise ValueError("only finite floats can be formatted")
    c = bits
    c &= _MANTISSA
    irregular = c == _U0
    subnormal = bq == _U0
    zero = irregular & subnormal
    c |= zero  # as if the smallest subnormal, until the last step
    irregular &= bq > _U1  # a power of two: the gap below is half the gap above
    c += _HIDDEN
    np.subtract(c, _HIDDEN, out=c, where=subnormal)
    del subnormal
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
    odd = (c & _U1).astype(bool)  # the interval's ends are outside it
    cb = c
    cb <<= _U2
    vb = _rop(limbs, k, cb << h)
    # The same for the lower and the upper end of v's rounding interval
    cb -= _U2
    cb += irregular
    vbl = _rop(limbs, k, cb << h)
    cb += _U4
    cb -= irregular
    cb <<= h
    vbr = _rop(limbs, k, cb)
    del c, cb, bits, h, irregular
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
    del sp10
    # The digits of s: n = m + (s >= 10^m), m = floor(floor(log2 s) log10 2) + 1.
    # The float of s (< 2^57) may round up to a power of two, but no power
    # of ten lies that close below one.
    n = s.astype(np.float64).view(np.int64)
    n >>= _I52
    n *= 1233
    n -= 1023 * 1233 - 4096
    n >>= _I12
    pow10 = tables["pow10"]
    n += s >= pow10.take(n)
    s *= pow10.take(17 - n)
    k += n
    # A zero is the digit 0 at decpt 1, which _layout writes as 0.0 or -0.0.
    np.copyto(s, _U0, where=zero)
    np.copyto(k, 1 - _K_MIN, where=zero)
    return s, k, negative


def _layout(digits: np.ndarray, e: np.ndarray, negative: np.ndarray, out: np.ndarray) -> None:
    """Write the text of each float64 that ``_decimals`` gave as (digits, e,
    negative) into words 0-2 of its row of ``out`` and OR the rest into
    word 3, whose bytes 0-5 must be zero.  ``digits`` and ``e`` are
    overwritten.

    Each word is made in a contiguous array and written to ``out`` once:
    NumPy is several times slower on a column of ``out``."""
    tables = _tables()
    ascii, last = tables["ascii"], tables["last"]
    # Word 0: sign, lead, first digit.
    y = digits // _U10_16
    digits -= y * _U10_16
    y += _ASCII_0
    y <<= _U56
    y |= tables["lead"].take(e)
    y |= negative * _MINUS
    out[:, 0] = y
    # The other 16 digits in ASCII, eight to a word (a, then b), and in
    # ``shown`` the index (1-16) of the last nonzero one, or below 0 for none.
    np.floor_divide(digits, _U10_8, out=y)
    a = y * _U10_8
    digits -= a
    q = y // _U10_4
    np.multiply(q, _U10_4, out=a)
    y -= a
    shown = last.take(q.view(np.int64))
    ascii.take(q.view(np.int64), out=a, mode="clip")
    index = last.take(y.view(np.int64))
    index += 4
    np.maximum(shown, index, out=shown)
    ascii.take(y.view(np.int64), out=q, mode="clip")
    q <<= _U32
    a |= q
    np.floor_divide(digits, _U10_4, out=q)
    np.multiply(q, _U10_4, out=y)
    digits -= y
    for offset, group in ((8, q), (12, digits)):
        index = last.take(group.view(np.int64))
        index += offset
        np.maximum(shown, index, out=shown)
    b = y
    ascii.take(q.view(np.int64), out=b, mode="clip")
    ascii.take(digits.view(np.int64), out=q, mode="clip")
    q <<= _U32
    b |= q
    # The point: each word keeps its bytes below it and moves the rest up
    # one byte, the top byte of a going to b and that of b (the 17th) to
    # word 3.
    keep, dot = tables["keep"], tables["dot"]
    keep[0].take(e, out=q, mode="clip")
    q &= a
    a ^= q
    np.right_shift(a, _U56, out=digits)
    a <<= _U8
    a |= q
    dot[0].take(e, out=q, mode="clip")
    a |= q
    keep[1].take(e, out=q, mode="clip")
    q &= b
    b ^= q
    q |= digits
    np.right_shift(b, _U56, out=digits)
    b <<= _U8
    b |= q
    dot[1].take(e, out=q, mode="clip")
    b |= q
    # Then every byte past those that show is masked off.  Once the
    # exponent is in word 3, e holds how many show.
    shown += tables["plus"].take(e)
    np.maximum(shown, tables["base"].take(e), out=shown)
    tables["exponent"].take(e, out=q, mode="clip")
    out[:, 3] |= q
    np.copyto(e, shown)
    shown = e
    masks = tables["masks"]
    masks[2].take(shown, out=q, mode="clip")
    digits &= q
    out[:, 3] |= digits
    masks[0].take(shown, out=q, mode="clip")
    np.bitwise_and(a, q, out=out[:, 1])
    masks[1].take(shown, out=q, mode="clip")
    np.bitwise_and(b, q, out=out[:, 2])


def _block_text(columns: list[np.ndarray], start: int, count: int, tails: np.ndarray, end: int | None) -> str:
    """The text of ``count`` rows from row ``start``: the fields of the
    cells, each unit ending with its literal from ``tails`` (words WORDS-1
    onwards of one row's units), the last unit cut at byte ``end``."""
    width = len(columns)
    values = np.empty((count, width))
    for j, column in enumerate(columns):
        values[:, j] = column[start : start + count]
    digits, e, negative = _decimals(values.reshape(-1).view(np.uint64))
    del values
    # The buffer is a bytearray, so it can give the text back without a copy.
    buffer = bytearray(count * width * 8 * (WORDS - 1 + tails.shape[1]))
    units = np.frombuffer(buffer, dtype="<u8").reshape(count * width, -1)
    units.reshape(count, width, -1)[:, :, WORDS - 1 :] = tails
    _layout(digits, e, negative, units)
    del digits, e, negative
    if end is not None:
        units.view(np.uint8)[-1, end:] = 0
    # The NULs are deleted an eighth of the block at a time, and the text
    # moved to the front of the buffer, which then drops the rest.  The
    # copies pay for themselves: bytes.translate beats bytearray.translate.
    eighth = -(-len(units) // 8)
    size = 0
    for i in range(0, len(units), eighth):
        text = units[i : i + eighth].tobytes().translate(None, b"\0")
        buffer[size : size + len(text)] = text
        size += len(text)
    del units, text
    del buffer[size:]
    return buffer.decode()


def row_blocks(pieces: list[str], sep: str, columns: list[np.ndarray], block_rows: int) -> Iterator[str]:
    """The rows of equal-length float64 columns, each cell's ``repr``
    between the literal ``pieces`` (one more than there are columns), rows
    separated by ``sep``, in parts of up to ``block_rows`` rows.  Every
    cell must be finite: a block holding inf or nan raises ``ValueError``."""
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
    row = np.zeros((width, unit), dtype=np.uint8)
    for j, literal in enumerate(literals):
        row[j, at : at + len(literal)] = np.frombuffer(literal, dtype=np.uint8)
    tails = row.view("<u8")[:, WORDS - 1 :]
    head = pieces[0]
    for start in range(0, total, block_rows):
        count = min(block_rows, total - start)
        # The last row ends with its last piece.
        end = at + len(pieces[-1].encode()) if start + count == total else None
        yield head + _block_text(columns, start, count, tails, end)
        head = ""

"""Numpy columns as CSV text: each value written as Python's ``repr`` writes it.

A float64 value becomes its shortest round-trip decimal, computed over a
whole column by Ryū's ``d2s`` (Adams, "Ryū: fast float-to-string
conversion", PLDI 2018) in uint64 arithmetic, and laid out as ``repr``
lays it out: with an exponent of at least two digits (``1.5e-05``,
``1e+16``) when 4 or more zeros would follow the decimal point or the
point would fall more than 16 digits after the first digit, otherwise
as ``0.00015``, ``12.5`` or ``1500.0``; ``nan`` for every NaN, ``inf``,
``-inf``, ``0.0``, ``-0.0``.  An integer column becomes its plain
digits.  ``lines`` turns columns into rows of bytes, one buffer per
block of rows.  The tables are built on first use, so importing this
module costs nothing.
"""

import functools
from types import SimpleNamespace

import numpy as np

_BLOCK = 1 << 12  # rows per buffer: bounds the temporaries, about 150 bytes a value
_WIDTH = 24  # the longest text, "-1.2345678901234567e-308"
_M32 = 0xFFFFFFFF

# Each value gets a 32-byte source row from which its layout gathers:
# the digits right-aligned in columns 0-19 (a float has at most 17, so
# column 0 is '0'), the exponent's three digits in 20-22 and its sign in
# 23, then the constants below.  The pad byte 0 fills a text to _WIDTH.
_ZERO, _EXP_SIGN, _MINUS, _DOT, _E, _N, _A, _I, _F, _PAD = 0, 23, 24, 25, 26, 27, 28, 29, 30, 31
_CONSTANTS = b"-.enaif\0"
# Layout codes: (decpt + 3) * 18 + ndigits for a float written without an
# exponent (decpt in [-3, 16]); _EXPONENT + 18 * (3-digit exponent) +
# ndigits; inf; nan; _INT + ndigits - 1 for an integer of up to 20 digits.
# A negative value adds _CODES.
_EXPONENT, _INF, _NAN, _INT, _CODES = 360, 396, 397, 398, 418


def _layout(code):
    """The source columns of the text of a non-negative value of layout ``code``."""
    if code == _INF:
        return [_I, _N, _F]
    if code == _NAN:
        return [_N, _A, _N]
    if code >= _INT:
        return list(range(19 - code + _INT, 20))
    wide, ndigits = divmod(code - _EXPONENT, 18) if code >= _EXPONENT else (None, code % 18)
    digits = list(range(20 - ndigits, 20))
    if not digits:
        return []
    if wide is not None:
        fraction = [_DOT, *digits[1:]] if ndigits > 1 else []
        return [digits[0], *fraction, _E, _EXP_SIGN, *[20] * wide, 21, 22]
    decpt = code // 18 - 3
    if decpt <= 0:
        return [_ZERO, _DOT, *[_ZERO] * -decpt, *digits]
    if decpt < ndigits:
        return [*digits[:decpt], _DOT, *digits[decpt:]]
    return [*digits, *[_ZERO] * (decpt - ndigits), _DOT, _ZERO]


def _multipliers():
    """d2s's 126-bit multipliers as (4, 668) 32-bit limbs: floor(2^(124 + bitlen
    5^q) / 5^q) + 1 for q < 342, then 5^i scaled to 125 bits for i < 326."""
    powers = [1]
    while len(powers) < 342:
        powers.append(5 * powers[-1])
    values = [(1 << 124 + p.bit_length()) // p + 1 for p in powers]
    values += [p >> p.bit_length() - 125 if p.bit_length() > 125 else p << 125 - p.bit_length() for p in powers[:326]]
    words = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u4")
    return words.reshape(-1, 4).T.astype(np.uint64)


def _ascii(values, places):
    """The decimal digits of the non-negative ints ``values``, ``places`` ASCII bytes each."""
    return np.stack([values // 10**k % 10 for k in reversed(range(places))], axis=1).astype(np.uint8) + ord("0")


@functools.cache
def _tables():
    """The read-only tables.  Per biased IEEE exponent: d2s's multiplier as
    four 32-bit limbs, its shift, the decimal exponent e10 of the scaled
    bounds, q, whether the exponent takes d2s's rarer trailing-zero rules,
    and a mask whose zero AND with mv says the digits dropped from vr are
    all zeros (e2 < 0 and q < 63; 0 where q <= 1, all ones elsewhere).
    Then 5^q for q <= 21, 10^k for k <= 19, the 4-digit groups 0000-9999
    and the exponent texts as little-endian uint32, and the layouts."""
    e2 = np.maximum(np.arange(2048), 1) - 1077  # 1023 + 52, less 2 for the bounds' two extra bits
    up = e2 >= 0
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (e2 < -1))
    i = -e2 - q
    pow5bits = (np.where(up, q, i) * 1217359 >> 19) + 1
    zero_mask = np.where(q <= 1, 0, np.where(q < 63, (1 << np.minimum(q, 62)) - 1, -1))
    zero_mask[up] = -1
    texts = [_layout(code) for code in range(_CODES)]
    texts += [text if code == _NAN else [_MINUS, *text] for code, text in enumerate(texts)]
    texts = [bytes(text).ljust(_WIDTH, bytes([_PAD])) for text in texts]
    exponents = np.arange(-400, 400)
    signs = np.where(exponents < 0, ord("-"), ord("+")).astype(np.uint8)[:, None]
    tables = SimpleNamespace(
        limbs=_multipliers()[:, np.where(up, q, 342 + i)],
        shift=np.where(up, q - e2 + pow5bits + 124, q - pow5bits + 125),  # in [118, 125]
        e10=np.where(up, q, q + e2),
        q=q,
        rare=(up & (q <= 21)) | (~up & (q <= 1)),
        zero_mask=zero_mask.astype(np.int64).view(np.uint64),
        pow5=np.array([5**k for k in range(22)], dtype=np.uint64),
        pow10=np.array([10**k for k in range(20)], dtype=np.uint64),
        groups=_ascii(np.arange(10000), 4).view("<u4").ravel(),
        exponents=np.concatenate([_ascii(np.abs(exponents), 3), signs], axis=1).view("<u4").ravel(),
        layouts=np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, _WIDTH),
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _shortest(bits):
    """Ryū's d2s over the IEEE bits of positive finite float64 values (a
    uint64 array): (digits, exponent) with value = digits * 10**exponent,
    the shortest digits that read back to the value, nearest to it, ties to
    even."""
    t = _tables()
    biased = (bits >> 52).view(np.int64)
    mv = bits & (1 << 52) - 1
    mm_shift = (mv != 0) | (biased <= 1)
    mv |= (biased != 0).astype(np.uint64) << 52
    mv <<= 2
    even = (mv & 4) == 0

    # vr, vp, vm = (mv, mv + 2, mv - 1 - mm_shift) * multiplier >> shift, exactly:
    # the two 32-bit limbs of mv times the four of the multiplier, summed in
    # 32-bit columns c0..c4 whose carries are taken once per bound
    a = t.limbs.take(biased, axis=1)
    low, high = mv & _M32, (mv >> 32).view(np.int64)
    cols, carry = [], 0
    for a_k in a:
        p = low * a_k
        c = (p & _M32).view(np.int64)
        c += carry
        cols.append(c)
        p >>= 32
        carry = p.view(np.int64)
        carry += high * a_k.view(np.int64)
    cols.append(carry)
    shift = t.shift.take(biased)
    up, down = 128 - shift, shift - 96

    def product(offsets):
        c = cols[0] + offsets[0]
        for col, offset in zip(cols[1:4], offsets[1:]):
            c >>= 32
            c += col
            c += offset
        top = c >> 32
        top += cols[4]
        top <<= up
        c &= _M32
        c >>= down
        c |= top
        return c.view(np.uint64)

    vr = product([0] * 4)
    vp = product([a_k.view(np.int64) << 1 for a_k in a])
    below = mm_shift.astype(np.int64)
    vm = product([-(a_k.view(np.int64) << below) for a_k in a])

    # whether the digits dropped from vr and from vm are all zeros; d2s's
    # 5-adic tests for e2 >= 0 with q <= 21, and its rule for e2 < 0 with
    # q <= 1, apply only to values from 2^50 to 2^131
    vr_zeros = (mv & t.zero_mask.take(biased)) == 0
    vm_zeros = np.zeros(len(bits), dtype=bool)
    rare = np.flatnonzero(t.rare.take(biased))
    if rare.size:
        q, m, ev, mb = t.q[biased[rare]], mv[rare], even[rare], mm_shift[rare]
        p5 = t.pow5[np.minimum(q, 21)]
        five = m % 5 == 0
        pos = biased[rare] >= 1077
        vr_zeros[rare] = np.where(pos, five & (m % p5 == 0), True)
        vm_zeros[rare] = ev & np.where(pos, ~five & ((m - 1 - mb) % p5 == 0), mb)
        vp[rare] -= (~ev & np.where(pos, ~five & ((m + 2) % p5 == 0), True)).astype(np.uint64)

    # drop k digits, the most with vp // 10^k > vm // 10^k: at least the k with
    # 10^k <= vp - vm < 10^(k+1), since (vm, vp] then holds a multiple of 10^k
    k = np.searchsorted(t.pow10, vp - vm, side="right") - 1
    step = t.pow10.take(k + 1)
    more = vp - vp % step > vm
    k += more
    live = np.flatnonzero(more)
    while live.size:
        p = vp[live]
        live = live[p - p % t.pow10.take(k[live] + 1) > vm[live]]
        k[live] += 1
    # with vm's dropped digits all zeros, its trailing zeros are dropped too
    rare = np.flatnonzero(vr_zeros | vm_zeros)
    if rare.size:
        kr = k[rare]
        m = vm[rare]
        vm_zeros[rare] &= m % t.pow10[kr] == 0
        m //= t.pow10[kr]
        live = np.flatnonzero(vm_zeros[rare])
        while live.size:
            live = live[m[live] % 10 == 0]
            m[live] //= 10
            kr[live] += 1
        k[rare] = kr
        vr_zeros[rare] &= vr[rare] % t.pow10[np.maximum(kr - 1, 0)] == 0
    step = t.pow10.take(k)
    kept = vr // step
    last = (vr - kept * step) // t.pow10.take(np.maximum(k - 1, 0))  # the last digit dropped
    if rare.size:
        tie = rare[vr_zeros[rare] & (last[rare] == 5) & (kept[rare] % 2 == 0)]
        last[tie] = 4  # an exact tie rounds to even
    kept += ((kept == vm // step) & ~(even & vm_zeros)) | (last >= 5)
    return kept, t.e10.take(biased) + k


def _source(column):
    """(source rows, layout keys) of the values of a float or integer column."""
    t = _tables()
    if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
        bits = column.astype(np.float64).view(np.uint64)
        negative = bits >> 63 == 1
        bits &= (1 << 63) - 1
        special = bits >= 0x7FF << 52
        plain = special | (bits == 0)
        if plain.any():
            bits[plain] = 0x3FF << 52  # 1.0, then 0 * 10**0
        magnitude, e10 = _shortest(bits)
        if plain.any():
            magnitude[plain] = 0
            e10[plain] = 0
        ndigits = np.searchsorted(t.pow10[1:], magnitude, side="right") + 1
        decpt = ndigits + e10
        code = np.where(
            (decpt <= -4) | (decpt > 16),
            _EXPONENT + 18 * (np.abs(decpt - 1) >= 100) + ndigits,
            (decpt + 3) * 18 + ndigits,
        )
        if special.any():
            code[special] = np.where(np.isnan(column[special]), _NAN, _INF)
        exponent = decpt - 1
    elif column.dtype.kind in "iu":
        values = column.astype(np.int64 if column.dtype.kind == "i" else np.uint64)
        negative = values < 0
        magnitude = values.view(np.uint64)
        magnitude = np.where(negative, ~magnitude + 1, magnitude)  # |-2^63| = 2^63 in uint64
        code = _INT + np.searchsorted(t.pow10[1:], magnitude, side="right")
        exponent = np.zeros(len(values), dtype=np.int64)
    else:
        raise TypeError(f"cannot write a column of dtype {column.dtype} as CSV text")
    source = np.empty((len(code), 8), dtype="<u4")
    upper = magnitude // 10**8
    lower = (magnitude - upper * 10**8).view(np.int64)
    top = (upper // 10**8).view(np.int64)
    middle = (upper - top.view(np.uint64) * 10**8).view(np.int64)
    source[:, 0] = t.groups[top]
    source[:, 1] = t.groups[middle // 10000]
    source[:, 2] = t.groups[middle % 10000]
    source[:, 3] = t.groups[lower // 10000]
    source[:, 4] = t.groups[lower % 10000]
    source[:, 5] = t.exponents[exponent + 400]
    source[:, 6:] = np.frombuffer(_CONSTANTS, dtype="<u4")
    return source.view(np.uint8), code + _CODES * negative


def _texts(column, out):
    """Write the texts of a column's values into the rows of ``out``, _WIDTH
    bytes each, padded with 0 bytes: the values of each layout are gathered
    from their source rows at once."""
    layouts = _tables().layouts
    source, key = _source(np.asarray(column))
    order = np.argsort(key.astype(np.uint16), kind="stable")
    ordered = key[order]
    for rows in np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1):
        out[rows] = source.take(rows, axis=0).take(layouts[key[rows[0]]], axis=1)


def lines(columns, sep=b",", prefix=b""):
    """The rows of ``columns`` (float or integer numpy arrays of one length)
    as byte buffers, one per block of at most _BLOCK rows: each row is
    ``prefix``, the values' ``repr`` texts joined by ``sep``, and a newline."""
    n = min((len(c) for c in columns), default=0)
    width = len(prefix) + len(columns) * (_WIDTH + len(sep)) - len(sep) + 1
    for start in range(0, n, _BLOCK):
        block = [c[start : min(start + _BLOCK, n)] for c in columns]
        rows = np.empty((len(block[0]), width), dtype=np.uint8)
        rows[:, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        at = len(prefix)
        for i, values in enumerate(block):
            if i:
                rows[:, at : at + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
                at += len(sep)
            _texts(values, rows[:, at : at + _WIDTH])
            at += _WIDTH
        rows[:, -1] = ord("\n")
        yield rows[rows != 0]

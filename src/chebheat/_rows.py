"""The package's one row writer: numpy renders ``%d`` and ``%.17g`` fields.

:func:`write_rows` writes every CSV and edge-list row chebheat prints
(``diffuse``, ``bound-table``, :func:`chebheat.graphs.save_edge_list`)
with the bytes ``%`` gives, but renders them with numpy, a block of rows
at a time. A ``%.17g`` value gets its 17 digits exactly in float64
arrays, and only a value whose digits that cannot prove is formatted by
``'%.17g' % v``. The tables it reads are read-only module constants,
built at import with integer and numpy arithmetic in about 1.5 ms.

The writer is a module of its own, not part of :mod:`chebheat.graphs`,
because compiling a module takes memory in proportion to its source:
where bytecode is not cached (``PYTHONDONTWRITEBYTECODE``), every import
compiles ``graphs.py``, the package's largest module, and with the
writer inside it the peak memory of compiling it rose from 2.3 to 3.1 MiB.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_rows"]

_BLOCK_VALUES = 1 << 15  # fields formatted per write; bounds the temporaries
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's factor for 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # magnitudes whose digits numpy computes
_TEN_MIN, _TEN_MAX = -265, 297  # the exponents s of the 10**s they need
_R_ERROR = 2.0 ** -47  # bounds the error of the remainder r, 4.6e-15 (write_rows)
_EXP_MAX = 300  # e-notation words from e-300 to e+300; the fast range needs -281..280
_POW10 = np.array([10 ** k for k in range(18)], dtype=np.uint64)
_POW10.flags.writeable = False


def _pack(strings, words=1):
    """ASCII strings of at most ``4 * words`` bytes as NUL-padded uint32 words."""
    return np.array(strings, dtype=f"S{4 * words}").view(np.uint32)


_LEFT, _RIGHT = 10000, 20000  # the groups without leading, trailing zeros
_NUL = _RIGHT  # 0 without its trailing zeros
_ZERO_DOT = 30000  # 0., 0.0, 0.00
_HEAD = _ZERO_DOT + 3  # d, 0d, .d
_EXP = _HEAD + 30 + 2 * _EXP_MAX  # e+00


def _word_table():
    """Every word a rendered field is made of.

    The digit groups of 0..9999 come three ways: zero-padded, with the
    leading zeros dropped but ``0`` kept, and with the trailing zeros
    dropped, which leaves 0 as the empty (all-NUL) word. Then ``0.``,
    ``0.0`` and ``0.00``; one digit ``d``, ``0d`` and ``.d``; and two
    words for each exponent: ``e-05`` and NUL, or ``e+12`` and ``3``.
    """
    words = np.zeros(_EXP + 2 * _EXP_MAX + 2, dtype=np.uint32)
    groups = words[:_ZERO_DOT].view(np.uint8).reshape(3, 10000, 4)
    groups[:] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    lead, trail = groups[0] == 0, groups[0] == 0
    for i in (1, 2):
        lead[:, i] &= lead[:, i - 1]
    for i in (2, 1, 0):
        trail[:, i] &= trail[:, i + 1]
    lead[:, 3] = False
    groups += ord("0")
    np.copyto(groups[1], 0, where=lead)
    np.copyto(groups[2], 0, where=trail)
    one = [str(j) for j in range(10)]
    words[_ZERO_DOT:_HEAD + 30] = _pack(["0.", "0.0", "0.00"] + one + ["0" + j for j in one]
                                        + ["." + j for j in one])
    words[_HEAD + 30:] = _pack([f"e{k:+03d}" for k in range(-_EXP_MAX, _EXP_MAX + 1)], 2)
    words.flags.writeable = False
    return words


_WORDS = _word_table()


def _ten_table():
    """Rows hi, hi_top, hi_bottom, lo, bound of 10**s, s = _TEN_MIN.._TEN_MAX.

    ``hi`` is 10**s rounded to a double and ``lo`` the rest rounded, both by
    integer arithmetic, whose true division rounds correctly; ``hi_top +
    hi_bottom`` is ``hi`` in 26-bit halves for Dekker's product. ``bound``
    is 0 where ``hi`` is exact, else ``_R_ERROR``.
    """
    up, down, ten = [], [], 1
    for _ in range(_TEN_MAX + 1):  # 10**0 upwards
        h = float(ten)
        up.append((h, float(ten - int(h))))
        ten *= 10
    ten = 10
    for _ in range(-_TEN_MIN):  # 10**-1 downwards
        h = 1 / ten
        a, b = h.as_integer_ratio()
        down.append((h, (b - a * ten) / (ten * b)))
        ten *= 10
    hi, lo = np.array(down[::-1] + up).T
    c = hi * _SPLIT
    top = c - (c - hi)
    table = np.stack([hi, top, hi - top, lo, np.where(lo == 0.0, 0.0, _R_ERROR)])
    table.flags.writeable = False
    return table


_TEN = _ten_table()


def _digits(a):
    """``(X, D, ok)``: ``a`` is ``D * 10**(X - 16)`` rounded to 17 digits where ``ok``.

    Elsewhere (``a`` outside the fast range, an undecided rounding) ``X``
    and ``D`` hold arbitrary values; :func:`write_rows` gives the proof.
    """
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a))
    hi, top, bottom, lo, bound = _TEN.take((16 - x).astype(np.intp) - _TEN_MIN, axis=1)
    c = a * _SPLIT
    a_top = c - (c - a)
    a_bottom = a - a_top
    p = a * hi
    e = a_bottom * bottom - (((p - a_top * top) - a_bottom * top) - a_top * bottom)
    r = e + a * lo
    whole = np.floor(r)
    frac = r - whole
    f = p.astype(np.int64) + whole.astype(np.int64)
    d = f + (frac > 0.5)
    ok = (fast & (np.abs(frac - 0.5) > bound) & (f - (frac < bound) >= 10 ** 16)
          & (d < 10 ** 17))
    return x, d, ok


def _int_words(m):
    """Words of the magnitudes ``m`` (uint64) in 4-digit groups, most significant first.

    As many groups as the largest needs; leading zeros are NUL, and 0 is ``0``.
    """
    top = int(m.max(initial=0))
    groups = 1 + sum(top >= 10 ** k for k in (4, 8, 12, 16))
    words = []
    for j in range(groups):
        above = m // 10000
        w = (m - above * 10000).astype(np.intp)
        w += _LEFT * (above == 0)
        if j:
            w += (_NUL - _LEFT) * (m == 0)
        words.append(w)
        m = above
    return words[::-1]


def _fraction_words(m):
    """Words of ``m`` < 10**16 (uint64) as 16 digits, trailing zeros NUL."""
    words = []
    zeros_after = True
    for _ in range(4):
        above = m // 10000
        g = m - above * 10000
        words.append(g.astype(np.intp) + _RIGHT * zeros_after)
        zeros_after = zeros_after & (g == 0)
        m = above
    return words[::-1]


def _int_cells(q):
    """``(negative, words, fallback)`` of ``%d`` fields: int64, no fallback."""
    return q < 0, _int_words(np.abs(q).view(np.uint64)), None  # -2**63 reads 2**63


def _float_cells(v):
    """``(negative, words, fallback)`` of ``%.17g`` fields.

    The words of an integer below 1e17 are its ``%d`` words, with the sign
    bit as the sign, so -0.0 is ``-0``. ``fallback`` marks the fields whose
    words are left for ``%`` to fill; their ``negative`` is False.
    """
    a = np.abs(v)
    small = np.where(a < 1e17, a, 0.5)
    exact = np.floor(small) == small
    if exact.all():
        return np.signbit(v), _int_words(small.astype(np.uint64)), None
    x, d, ok = _digits(a)
    fallback = ~(exact | ok)
    expo = ok & ((x < -4) | (x > 16))
    x = x.astype(np.intp)
    point = np.where(ok, np.where(expo, 0, x), 16)  # digits before the point, less one
    d = np.where(ok, d, 0).view(np.uint64)
    div = _POW10[np.minimum(16 - point, 17)]
    whole = d // div
    frac = (d - whole * div) * _POW10[np.maximum(point + 1, 0)]  # 17 digits after it
    words = _int_words(np.where(exact, small.astype(np.uint64), whole))
    below = point < 0
    words[-1] = np.where(below, _ZERO_DOT + np.minimum(-1 - point, 2), words[-1])
    head = frac // 10 ** 16
    form = np.where(below, point == -4, 2)  # d, 0d or .d
    words.append(np.where(frac == 0, _NUL, _HEAD + 10 * form + head.astype(np.intp)))
    words += _fraction_words(frac - head * 10 ** 16)
    if expo.any():
        e = np.where(expo, _EXP + 2 * x, _NUL)
        words.append(e)
        if (np.abs(x[expo]) >= 100).any():
            words.append(np.where(expo, e + 1, _NUL))
    return np.signbit(v) & ~fallback, words, fallback


def write_rows(fh, sep: str, ints, floats) -> None:
    """Write row r as its ``%d`` fields, then its ``%.17g`` fields, each after ``sep``.

    Row r holds ``'%d' % q[r]`` for each ``q`` of ``ints`` (int64 values),
    then ``'%.17g' % v[r]`` for each ``v`` of ``floats`` (float64 values),
    joined by ``sep`` and ended by a newline; the columns are equal-length
    1-d arrays. numpy makes those bytes a block of rows at a time:

    - Each field of a block of rows is a fixed run of 4-byte words from
      one table: 4-digit groups, the decimal point, the exponent and the
      separator before the field. A character a value lacks is a NUL
      byte, and ``bytes.translate`` drops them from the block.
    - A ``%d`` field is its sign and 4-digit groups: ``//`` by 10000 and
      a table gather through a uint32 view. So is a ``%.17g`` field that
      holds an integer below 1e17, which ``%.17g`` prints as ``%d`` does,
      with the sign bit as its sign (``-0.0`` prints ``-0``).
    - Any other finite ``%.17g`` value with ``1e-280 <= |v| <= 1e280``
      gets its digits exactly in float64 arrays, as follows.
    - The rest fall back to ``'%.17g' % v``, one value at a time: NaN,
      the infinities, magnitudes outside that range (subnormals among
      them), and the values whose digits are not proven.

    The digits. Let ``X = floor(log10|v|)``, ``s = 16 - X`` and ``N = |v|
    10**s``; when ``1e16 <= N < 1e17`` the 17 digits are N rounded to an
    integer, ``D``. A read-only table holds ``10**s = hi + lo + d`` for
    every s needed, with doubles ``hi`` and ``lo`` (the rest, rounded)
    from integer arithmetic, so ``|lo| <= u hi`` and ``|d| <= u |lo|``,
    with ``u = 2**-53``. Dekker's two-product (Numer. Math. 18, 1971)
    gives ``|v| hi = p + e`` exactly, ``p`` an integer-valued double, and
    ``r = fl(e + fl(|v| lo))``, so ``N = p + r + err``. With ``N < 1e17``,
    ``p < 2**57`` and ``|e| <= 8``; ``|v lo| <= u N < 11.2``; the two
    roundings add at most ``u (11.2 + 19.2) < 3.4e-15`` and ``d`` at most
    ``u**2 N < 1.3e-15``. So ``|err| < 4.6e-15``, which the code rounds
    up to ``2**-47``. Where ``0 <= s <= 22`` ``hi`` is 10**s exactly,
    ``lo = 0``, ``r = e``, and the bound is 0.

    ``D = p + floor(r) + (frac(r) > 1/2)`` is proven when ``frac(r)`` is
    farther than the bound from 1/2, ``p + floor(r)`` shows ``N >= 1e16``
    and ``D < 1e17``. Otherwise the value takes the fallback, as a
    shortest-digits printer hands its undecided values to an exact one
    (Loitsch, PLDI 2010): an exact tie, which ``%`` rounds to even; a
    rounding within the bound of one; a ``log10`` off by one next to a
    power of ten, or a value that rounds up into the next decade. ``%.17g``
    prints ``D`` in fixed notation when ``-4 <= X < 17``, else as
    ``d.ddde+XX``, with trailing zeros dropped.
    """
    # the k words of the text before a field: nothing or sep, each without
    # and with a minus sign; the row's first field takes nothing
    k = len(sep) // 4 + 1
    table = np.concatenate([_WORDS, _pack(["", "-", sep, sep + "-"], k)])
    blocks = [(render, dtype, cols) for render, dtype, cols in
              ((_int_cells, np.int64, ints), (_float_cells, np.float64, floats)) if len(cols)]
    step = max(1, _BLOCK_VALUES // (len(ints) + len(floats)))
    for start in range(0, len(blocks[0][2][0]), step):
        row, first = [], True
        for render, dtype, cols in blocks:
            values = np.stack([c[start:start + step] for c in cols], axis=1)
            values = values.astype(dtype, copy=False)
            neg, words, fallback = render(values)
            after = np.arange(len(cols)) > 0 if first else True  # the fields after sep
            lead = len(_WORDS) + k * (neg + 2 * after)
            cell = np.empty(neg.shape + (k + len(words),), dtype=np.uint32)
            for i in range(k):
                cell[..., i] = table.take(lead + i)
            for w, word in enumerate(words):
                cell[..., k + w] = table.take(word)
            if fallback is not None and fallback.any():
                # at most 24 bytes, as -1.2345678901234567e-308, in a body of
                # at least 6 words: the integer part, the head, 4 groups
                r, j = np.nonzero(fallback)
                strings = ["%.17g" % v for v in values[r, j].tolist()]
                cell[r, j, k:k + 6] = _pack(strings, 6).reshape(-1, 6)
            row.append(cell.reshape(len(cell), -1))
            first = False
        row.append(np.broadcast_to(_pack(["\n"]), (len(row[0]), 1)))
        fh.write(np.concatenate(row, axis=1).tobytes().translate(None, b"\0").decode("ascii"))

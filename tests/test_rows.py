"""The row writer: numpy renders the fields with the bytes ``%`` gives."""

import io
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebheat._rows
from chebheat._rows import write_rows


def _written(sep, ints, floats):
    fh = io.StringIO()
    write_rows(fh, sep, ints, floats)
    return fh.getvalue()


def _formatted(sep, ints, floats):
    """The rows as ``%`` writes them, one value at a time."""
    rows = zip(*(c.tolist() for c in [*ints, *floats]))
    return "".join(sep.join(["%d" % q for q in row[:len(ints)]]
                            + ["%.17g" % v for v in row[len(ints):]]) + "\n" for row in rows)


def _same_as_percent(values):
    values = np.asarray(values, dtype=np.float64)
    assert _written(",", [], [values]) == _formatted(",", [], [values])


def _fallbacks(values):
    """The values that are left for ``%`` rather than rendered by numpy."""
    values = np.asarray(values, dtype=np.float64)
    fallback = chebheat._rows._float_cells(values.reshape(-1, 1))[2]
    return [] if fallback is None else values[fallback.ravel()].tolist()


def _powers_of_ten(lo, hi):
    """Each double nearest 10**k, k in lo..hi, with its two neighbours."""
    return [w for k in range(lo, hi + 1) for v in [float(f"1e{k}")]
            for w in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]


# the double nearest 10**-14 lies below it and rounds up into the next
# decade at 17 digits: it prints as 1e-14; so do those of 1e-79 and 1e+98
ROUNDS_UP = [1e-14, 1e-79, 1e98]
# exactly halfway between two 17-digit strings: numpy's digits leave them to %
TIES = [1000000000000000.25, 26215 / 262144]


class TestWriteRows:
    """numpy renders the fields; the bytes are those of ``%`` per value."""

    def test_pinned_floats(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, math.inf, -math.inf, math.nan]
        # the notation switches: e-notation below 1e-4 and from 1e17 on
        switches = _powers_of_ten(-5, -4) + _powers_of_ten(16, 17) + [
            9.99999999999999e-05, 0.000123, 99999999999999984.0, 123456789012345678.0]
        values = edges + _powers_of_ten(-30, 30) + switches + ROUNDS_UP + TIES
        _same_as_percent(values)
        _same_as_percent([-v for v in values])
        assert [("%.17g" % v) for v in ROUNDS_UP] == ["1e-14", "1e-79", "1e+98"]

    def test_ties_take_the_fallback(self):
        assert ["%.17g" % v for v in TIES] == ["1000000000000000.2", "0.10000228881835938"]
        ties = TIES + [-v for v in TIES]
        assert _fallbacks(ties + [0.1, 1e-10, 3.5]) == ties
        # an integer below 1e17, zero included, prints as %d does: no fallback
        assert _fallbacks([0.0, -0.0, 1.0, -7.0, 99999999999999984.0]) == []

    def test_in_range_fallbacks_are_exact_ties(self):
        # an undecided rounding lies within 2**-47 of a tie; from 1e12 up,
        # doubles with few fraction bits are exact ties often enough to show
        rng = np.random.default_rng(12)
        values = rng.standard_normal(6000) * 10.0 ** rng.integers(-200, 200, 6000)
        ties = _fallbacks(values)
        assert 0 < len(ties) < 100
        for v in ties:
            x = int(("%.16e" % v).split("e")[1])
            assert (Fraction(abs(v)) * Fraction(10) ** (16 - x)).denominator == 2
        _same_as_percent(values)

    def test_pinned_ints(self):
        q = np.array([0, 1, -1, 9999, 10000, -10 ** 16, 2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63],
                     dtype=np.int64)
        assert _written(",", [q], []) == _formatted(",", [q], [])
        assert _written(",", [q], []).splitlines()[-3:] == [
            "9223372036854775807", "-9223372036854775807", "-9223372036854775808"]

    def test_formats_and_blocks(self):
        # the callers' separators and a longer one, int and float columns
        # alone or together, and several blocks
        rng = np.random.default_rng(3)
        n = 3 * chebheat._rows._BLOCK_VALUES // 4 + 17
        ints = [rng.integers(-10 ** 6, 10 ** 6, n), rng.integers(0, 5, n)]
        floats = [rng.standard_normal(n), np.round(rng.standard_normal(n) * 4.0)]
        for sep in (",", " ", " ; ; "):
            for cols in ((ints, floats), (ints[:1], floats), ([], floats), (ints, [])):
                assert _written(sep, *cols) == _formatted(sep, *cols)
        assert _written(",", [np.arange(0)], []) == ""


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_fields_match_percent(values):
    _same_as_percent(values)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=1, max_size=40))
@example([0x7FF0000000000001, 0xFFF8000000000000, 0x8000000000000000, 1])  # NaNs, -0, 5e-324
@settings(max_examples=300, deadline=None)
def test_float_bit_patterns_match_percent(bits):
    _same_as_percent(np.array(bits, dtype=np.uint64).view(np.float64))


@given(st.lists(st.tuples(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
                          st.floats(allow_nan=True, allow_infinity=True)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_int_and_float_rows_match_percent(rows):
    q = np.array([i for i, _ in rows], dtype=np.int64)
    v = np.array([x for _, x in rows], dtype=np.float64)
    assert _written(",", [q], [v]) == _formatted(",", [q], [v])

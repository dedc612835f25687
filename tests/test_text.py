import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkji import text


def texts(cells: np.ndarray) -> list[str]:
    """Each row of a cell matrix without its NUL bytes."""
    rows = np.column_stack([cells, np.full(len(cells), ord("\n"), np.uint8)]).ravel()
    return rows.compress(rows != 0).tobytes().decode().split("\n")[:-1]


def assert_reprs(x):
    x = np.asarray(x, np.float64)
    assert texts(text.floats(x)) == list(map(repr, x.tolist()))


def test_random_bit_patterns_read_as_repr():
    bits = np.random.default_rng(0).integers(0, 2**64, 200_000, dtype=np.uint64)
    x = bits.view(np.float64)
    assert_reprs(x[np.isfinite(x)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_floats_read_as_repr(values):
    assert_reprs(values)


def _around(*values):
    """Each value and its two neighbours, less an infinite one."""
    with np.errstate(over="ignore"):
        near = [w for v in values for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]
    return [w for w in near if np.isfinite(w)]


@pytest.mark.parametrize("x", [
    # signed zeros and subnormals, which fall back to repr
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310],
    # every power of two: the interval below is half the one above
    np.ldexp(1.0, np.arange(-1074, 1024)),
    -np.ldexp(1.0, np.arange(-1074, 1024)),
    # integers about 2**53, whose '.0' is no digit of theirs
    2.0**53 + np.arange(-1000, 1001),
    [8398606500861696.0, 4503599627370497.0, 123.0, 1.0, 10.0],
    # the positional ends: decpt 16 and 17, and -3 and -4
    _around(1e15, 9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05, 1e-5),
    # the nearest of two shortest candidates, and a tie
    [1e22, 1e23, 5e-324 * 3, 9007199254740993.0, 0.3, 2.0 / 3.0],
    # 2- and 3-digit exponents on both signs
    _around(1e99, 1e100, 1e-99, 1e-100, 1.7976931348623157e308, 2.2250738585072014e-308),
    [-1.5e-200, 3.25e250, -9.87654321e-123, 1e300],
])
def test_fixed_cases_read_as_repr(x):
    assert_reprs(x)


def test_only_subnormals_fall_back_to_repr(monkeypatch):
    calls = []
    monkeypatch.setattr(text, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    assert_reprs([0.0, -0.0, 2.0**-1022, -(2.0**-1022), 5e-324, -2.225073858507201e-308, 1.0])
    assert calls == [5e-324, -2.225073858507201e-308]


def test_cells_have_a_fixed_width():
    cells = text.floats(np.array([[1.0, -2.5e-300]]))
    assert cells.shape == (2, text.WIDTH) and cells.dtype == np.uint8


@pytest.mark.parametrize("x", [
    [0, 1, -1, 9, 10, -10, 99, 100, 9999, 10_000, 2**63 - 1, -2**63, 10**18, -10**18],
    np.random.default_rng(1).integers(-2**63, 2**63 - 1, 20_000, dtype=np.int64)
    >> np.random.default_rng(2).integers(0, 63, 20_000),
    np.arange(-1234, 123_456, 7),
])
def test_integers_read_as_str(x):
    x = np.asarray(x, np.int64)
    assert texts(text.integers(x)) == list(map(str, x.tolist()))


def test_integers_drop_the_columns_no_text_reaches():
    assert text.integers(np.arange(10)).shape == (10, 1)
    assert text.integers(np.array([-5, 12])).shape == (2, 2)
    assert text.integers(np.array([], np.int64)).shape == (0, 1)

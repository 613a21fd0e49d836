"""format_e12 against Python's own '%.12e', element for element."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftjsim.table import format_e12


def python_e12(x) -> list[bytes]:
    return [b"%.12e" % v for v in np.asarray(x, dtype=np.float64).ravel().tolist()]


def ulp_neighbours(values) -> list[float]:
    return [n for v in values for n in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


EXPLICIT = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
            2.0**-20,         # 9.5367431640625e-07: an exact tie, rounded to even
            9.9999999999995,  # 13 digits round up to 10: 1.000000000000e+01
            1.5, 0.1, 1e-10, 1e10, 1e11, 1e-11, 1.7976931348623157e308, 1e100, 1e-100]
POWERS = ulp_neighbours([10.0**k for k in range(-12, 13)])


@pytest.mark.parametrize("x", EXPLICIT + POWERS)
def test_explicit_values(x):
    assert format_e12(np.array([x])).tolist() == python_e12([x])


def test_keeps_shape_and_width():
    x = np.arange(1.0, 7.0).reshape(2, 3)
    out = format_e12(x)
    assert out.shape == (2, 3) and out.dtype == np.dtype("S20")
    assert format_e12(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_random_arrays(scale):
    x = np.random.default_rng(0).random(20_000) * scale
    assert format_e12(x).tolist() == python_e12(x)


def test_ties_at_every_exponent():
    # k / 2^m with few significant bits: many lie exactly on a 13-digit tie.
    k = np.arange(1, 4096, dtype=np.float64)
    x = np.concatenate([k * 2.0**m for m in range(-60, 20, 3)])
    assert format_e12(x).tolist() == python_e12(x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), max_size=50),
       st.lists(st.integers(0, 2**64 - 1), max_size=50),
       st.lists(st.floats(1e-10, 1e11), max_size=50))
def test_equals_python_formatting(floats, patterns, in_range):
    x = np.concatenate([np.array(floats, dtype=np.float64),
                        np.array(patterns, dtype=np.uint64).view(np.float64),
                        np.array(in_range, dtype=np.float64)])
    assert format_e12(x).tolist() == python_e12(x)

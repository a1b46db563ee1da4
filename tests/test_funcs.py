"""Func arithmetic and rational rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bdspace.funcs import Func, frac_str, parse_frac

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
funcs = st.dictionaries(st.integers(0, 8), rationals, max_size=6).map(Func)


def test_zero_coefficients_are_never_stored():
    f = Func([(1, Fraction(1)), (1, Fraction(-1)), (2, Fraction(3))])
    assert 1 not in f
    assert f[2] == 3
    f[2] = 0
    assert 2 not in f
    assert f[99] == 0  # missing keys read as zero


def test_unit_and_dot():
    f = Func.unit(4, Fraction(3, 2))
    assert f.dot({4: Fraction(2)}) == 3
    assert f.dot({5: Fraction(2)}) == 0
    assert f.l1() == Fraction(3, 2)


def test_json_roundtrip():
    f = Func([(3, Fraction(-5, 7)), (1, Fraction(2))])
    assert Func.from_json(f.to_json()) == f


def test_frac_str_canonical():
    assert frac_str(Fraction(6, -4)) == "-3/2"
    assert frac_str(2) == "2/1"
    assert parse_frac("-3/2") == Fraction(-3, 2)
    assert parse_frac("5") == 5


@given(funcs, funcs)
def test_addition_is_pointwise(f, g):
    h = f + g
    for k in set(f) | set(g):
        assert h[k] == f[k] + g[k]
    assert all(v != 0 for v in h.values())


@given(funcs, rationals)
def test_scaling_and_l1(f, c):
    assert f.scaled(c).l1() == abs(c) * f.l1()
    assert (f - f).l1() == 0


@given(funcs, funcs, st.dictionaries(st.integers(0, 8), rationals, max_size=6))
def test_dot_is_bilinear(f, g, x):
    assert (f + g).dot(x) == f.dot(x) + g.dot(x)


def test_accumulate_in_place():
    f = Func([(1, Fraction(1))])
    f.accumulate(Func([(1, Fraction(-1)), (2, Fraction(1, 3))]), Fraction(3))
    assert f == Func([(1, Fraction(-2)), (2, Fraction(1))])


def test_invalid_fraction_rejected():
    with pytest.raises((ValueError, ZeroDivisionError)):
        Func([(1, Fraction(1, 0))])

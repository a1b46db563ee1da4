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


@pytest.mark.parametrize("value", [0.1, 1.5, True, None, [1], "1.5", "1/2/3"])
def test_parse_frac_takes_only_ints_and_fraction_strings(value):
    """Floats are no exact input, and a bool is no number: both raise
    ValueError, as does any other shape."""
    with pytest.raises(ValueError):
        parse_frac(value)
    with pytest.raises(ValueError):
        Func.from_json([[1, value]])


def test_parse_frac_accepts_ints_and_strings():
    assert parse_frac(-3) == Fraction(-3)
    assert parse_frac(10 ** 30) == 10 ** 30
    assert parse_frac("4/6") == Fraction(2, 3)
    assert parse_frac("-7") == -7


@given(funcs)
def test_copy_is_equal_and_separate(f):
    """Func(f) and f.copy() equal f, are new objects, and a change to
    either leaves the other as it was."""
    for g in (Func(f), f.copy()):
        assert g == f and g is not f and type(g) is Func
        before = dict(f)
        g[99] = Fraction(1, 3)
        assert dict(f) == before and 99 not in f
        f[98] = Fraction(5)
        assert 98 not in g
        del f[98]


def test_l1_of_one_entry_is_its_absolute_value():
    assert Func.unit(3, Fraction(-2, 3)).l1() == Fraction(2, 3)
    assert Func().l1() == 0

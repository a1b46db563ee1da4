"""Func arithmetic, rational rendering, and the IntVec kernel against
Func/Fraction arithmetic."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from bdspace.errors import UnknownGamma
from bdspace.funcs import (Func, IntVec, common_denominator, frac_str,
                           parse_frac)

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


def assert_exact(f):
    assert all(type(v) is Fraction and v for v in f.values())


@pytest.mark.parametrize("coef", [1, -2, Fraction(3, 2), Fraction(-1, 3)])
def test_iadd_stores_exact_fractions(coef):
    """An int or Fraction coefficient is stored as a nonzero Fraction, at
    a new key and at a held one, and an entry that cancels is dropped."""
    f = Func({1: Fraction(1, 2)})
    f.iadd(2, coef)
    f.iadd(1, coef)
    assert_exact(f)
    assert f[1] == Fraction(1, 2) + coef and f[2] == coef
    f.iadd(2, -coef)
    f.iadd(1, -f[1])
    assert f == Func() and not f


@pytest.mark.parametrize("scalar", [1, Fraction(1), -1, Fraction(3, 2)])
def test_accumulate_stores_exact_fractions(scalar):
    """self += scalar * other for other holding ints and Fractions:
    every stored value is a nonzero Fraction, and entries that cancel
    are dropped."""
    f = Func({1: Fraction(1, 2), 2: Fraction(1)})
    other = {1: 2, 2: Fraction(-1) / scalar, 3: Fraction(1, 3)}
    f.accumulate(other, scalar)
    assert_exact(f)
    assert f == Func({1: Fraction(1, 2) + 2 * scalar,
                      3: Fraction(1, 3) * scalar})
    assert 2 not in f
    f.accumulate(f.copy(), Fraction(-1))
    assert f == Func()


@pytest.mark.parametrize("scalar", [Fraction(-1), Fraction(2)])
def test_accumulate_with_itself(scalar):
    """f += scalar * f reads f from a snapshot: entries that cancel are
    dropped, as f - f drops them, and no other entry is read twice."""
    f = Func({1: Fraction(1, 2), 2: Fraction(-3), 5: Fraction(2, 7)})
    expected = {k: (1 + scalar) * v for k, v in f.items() if 1 + scalar}
    f.accumulate(f, scalar)
    assert_exact(f)
    assert f == Func(expected)


def test_accumulate_refuses_a_float_scalar_of_one():
    with pytest.raises(ValueError, match="exact rational"):
        Func().accumulate(Func({1: Fraction(1, 3)}), 1.0)


@pytest.mark.parametrize("scalar", [True, False, 0.0, 1.0])
def test_accumulate_refuses_inexact_scalars_first(scalar):
    """A float or bool scalar raises the ValueError of `exact`, naming
    the scalar, before anything is added: True is not read as 1, and a
    0 or an empty other does not return early without the error."""
    f = Func({1: Fraction(1, 2)})
    for other in (Func({1: Fraction(1, 2)}), Func()):
        with pytest.raises(ValueError,
                           match=r"exact rational, got %r$" % (scalar,)):
            f.accumulate(other, scalar)
        assert f == Func({1: Fraction(1, 2)})


@pytest.mark.parametrize("scalar", [0.1, 1.0, 0.0, True, False])
def test_scaled_refuses_float_and_bool_scalars(scalar):
    """0.1 is no exact rational and True is no number: `scaled` raises
    the ValueError that `accumulate` raises, not a binary expansion or a
    silent 1."""
    with pytest.raises(ValueError, match="exact rational"):
        Func({1: Fraction(1, 2)}).scaled(scalar)


def test_invalid_fraction_rejected():
    with pytest.raises((ValueError, ZeroDivisionError)):
        Func([(1, Fraction(1, 0))])


@pytest.mark.parametrize("value", [0.1, 1.5, True, None, [1], "1.5", "1/2/3"])
def test_parse_frac_takes_only_ints_and_fraction_strings(value):
    """Floats are no exact input, and a bool is no number: both raise
    ValueError, as does any other shape, and none is a payload id."""
    with pytest.raises(ValueError):
        parse_frac(value)
    with pytest.raises(ValueError):
        Func.from_json([[1, value]])
    with pytest.raises(ValueError):
        Func.from_json([[value, "1/1"]])


@pytest.mark.parametrize("value", [0.1, 1.0, True, False])
def test_func_refuses_float_and_bool_values(value):
    """A float would be stored as its binary fraction (0.1 as
    3602879701896397/36028797018963968) and a bool as 1 or 0: both raise
    ValueError, however the entry arrives."""
    with pytest.raises(ValueError, match="exact rational"):
        Func({1: value})
    f = Func({1: Fraction(1, 2)})
    with pytest.raises(ValueError, match="exact rational"):
        f.iadd(1, value)
    with pytest.raises(ValueError, match="exact rational"):
        f[2] = value
    assert f == Func({1: Fraction(1, 2)})


@pytest.mark.parametrize("key", [True, False, 1.0, "1"])
def test_func_refuses_ids_that_are_not_ints(key):
    """An id is an int: a bool, float or string key raises UnknownGamma,
    as `Registry.record` does for it."""
    with pytest.raises(UnknownGamma, match="no element with id"):
        Func({key: 1})
    f = Func()
    with pytest.raises(UnknownGamma):
        f.iadd(key, Fraction(1))
    with pytest.raises(UnknownGamma):
        f[key] = 1
    assert f == Func()


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


# -- the IntVec kernel against Func/Fraction arithmetic ----------------------

# denominators well beyond powers of 2: point values in the probe towers
# reach 699 = 3 * 233
wide = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=700),
    st.sampled_from([Fraction(1, 699), Fraction(-233, 3), Fraction(7, 233)]))
wide_funcs = st.dictionaries(st.integers(0, 8), wide, max_size=6).map(Func)
scalars = st.fractions(min_value=-20, max_value=20, max_denominator=700)


def assert_reduced(v):
    """No zero entry, int numerators, a positive denominator, gcd 1."""
    assert type(v) is IntVec
    assert type(v.denominator) is int and v.denominator > 0
    assert all(type(n) is int and n != 0 for n in v.values())
    assert gcd(v.denominator, *v.values()) == 1


@given(wide_funcs)
def test_intvec_round_trip(f):
    v = IntVec.from_func(f)
    assert_reduced(v)
    assert v.denominator == lcm(*[x.denominator for x in f.values()])
    back = v.to_func()
    assert back == f and list(back) == list(f)
    assert type(back) is Func
    assert all(type(x) is Fraction for x in back.values())


@given(wide_funcs, wide_funcs, scalars)
@example(Func({1: Fraction(1, 699)}), Func({1: Fraction(2, 233)}),
         Fraction(-3, 2))
def test_axpy_is_func_accumulate(f, g, c):
    v = IntVec.from_func(f).axpy(c.numerator, c.denominator,
                                 IntVec.from_func(g))
    expected = f.copy().accumulate(g, c)
    assert_reduced(v)
    assert v.to_func() == expected
    assert v == IntVec.from_func(expected)


@given(wide_funcs, wide_funcs, scalars.filter(bool))
def test_axpy_cancels_entries_to_zero(f, g, c):
    """(f + c g) - c g leaves f: g's entries outside f cancel and are not
    stored; f - f is the zero vector over 1."""
    v = IntVec.from_func(f + g.scaled(c))
    v.axpy(-c.numerator, c.denominator, IntVec.from_func(g))
    assert_reduced(v)
    assert v == IntVec.from_func(f)
    zero = IntVec.from_func(f).axpy(-1, 1, IntVec.from_func(f))
    assert not zero and zero.denominator == 1 and zero == IntVec()


@given(wide_funcs, scalars.filter(lambda c: c < 0))
def test_scaling_by_a_negative_fraction(f, c):
    v = IntVec().axpy(c.numerator, c.denominator, IntVec.from_func(f))
    assert_reduced(v)
    assert v.to_func() == f.scaled(c)


@given(wide_funcs, st.integers(0, 8), scalars)
def test_add_is_func_iadd(f, key, c):
    v = IntVec.from_func(f).add(key, c.numerator, c.denominator)
    expected = f.copy()
    expected.iadd(key, c)
    assert_reduced(v)
    assert v.to_func() == expected


@given(wide_funcs, wide_funcs)
def test_reduced_form_decides_equality(f, g):
    v, w = IntVec.from_func(f), IntVec.from_func(g)
    assert (v == w) == (f == g) and (v != w) == (f != g)
    # the same rationals written over a larger denominator reduce back
    scaled = IntVec().axpy(3, 1, v).axpy(-2, 1, v)
    assert scaled == v and scaled.denominator == v.denominator
    # a plain dict with the same numerators is not the vector
    assert v != dict(v) and not v == dict(v)


@given(wide_funcs, wide_funcs)
def test_dot_and_common_denominator(f, g):
    v, w = IntVec.from_func(f), IntVec.from_func(g)
    assert Fraction(v.dot(w), v.denominator * w.denominator) == f.dot(g)
    den = common_denominator([v, w])
    assert den == lcm(v.denominator, w.denominator)
    assert common_denominator(list(f.values()) + list(g.values())) == den

"""Schedule validation, classification and helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bdspace.errors import IndexOutOfSchedule, ScheduleViolation
from bdspace.schedule import (geometric_toy_schedule, slow_toy_schedule,
                              validate_schedule)


def test_admissible_classification():
    n2 = 16 ** 2 * (4 * 128) ** 4
    s = validate_schedule((4, 16), (128, n2))
    assert s.mode == "admissible"
    assert s.theta == Fraction(1, 4)
    assert s.M == Fraction(2)


def test_toy_classification():
    s = validate_schedule((4, 16), (6, 1))
    assert s.mode == "toy"
    assert s.weight_value(2) == Fraction(1, 16)
    assert s.length_value(1) == 6


def test_rejections():
    with pytest.raises(ScheduleViolation):
        validate_schedule((3, 16), (1, 1))       # m_1 < 4
    with pytest.raises(ScheduleViolation):
        validate_schedule((4, 4), (1, 1))        # not strictly increasing
    with pytest.raises(ScheduleViolation):
        validate_schedule((4,), (1, 1))          # length mismatch
    with pytest.raises(ScheduleViolation):
        validate_schedule((), ())


def test_index_bounds():
    s = validate_schedule((4, 16), (6, 1))
    with pytest.raises(IndexOutOfSchedule):
        s.weight_value(3)
    with pytest.raises(IndexOutOfSchedule):
        s.length_value(0)


def test_json_roundtrip():
    s = validate_schedule((4, 16), (6, 1))
    obj = s.to_json()
    assert validate_schedule(obj["m"], obj["n"]) == s


@given(st.integers(1, 12))
def test_toy_helpers_are_valid_toys(k):
    g = geometric_toy_schedule(k)
    assert g.m[0] == 4 and all(a < b for a, b in zip(g.m, g.m[1:]))
    s = slow_toy_schedule(k)
    assert s.mode == "toy" or len(s.m) == 1
    assert all(s.n[j] == 2 * s.m[j] for j in range(k))


def test_theta_and_m_are_schedule_level_bounds():
    s = slow_toy_schedule(50)
    assert s.theta == max(Fraction(1, m) for m in s.m)
    assert s.M == 1 / (1 - 2 * s.theta)

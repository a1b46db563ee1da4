"""Stage-truncated sup-norm intervals."""

from fractions import Fraction

import pytest

from bdspace.errors import StageOverflow
from bdspace.norms import sup_norm_interval


def test_zero_point(stage6):
    _, engine = stage6
    ni = sup_norm_interval(engine, engine.point_from_d({}), 6)
    assert ni.lower == ni.upper == 0 and ni.witness is None


def test_unit_d_vector(stage6):
    registry, engine = stage6
    gid = registry.gammas_up_to(4)[5]
    ni = sup_norm_interval(engine, engine.point_from_d({gid: Fraction(1)}), 6)
    assert 0 < ni.lower <= ni.upper <= registry.schedule.M * ni.lower * 2
    assert ni.lower <= ni.upper
    # the witness attains the lower value
    x = engine.point_from_d({gid: Fraction(1)})
    assert abs(engine.value(x, ni.witness)) == ni.lower


def test_interval_ordering_and_stage_monotonicity(stage6):
    registry, engine = stage6
    gid = registry.gammas_up_to(3)[2]
    x = engine.point_from_d({gid: Fraction(2, 3)})
    n4 = sup_norm_interval(engine, x, 4)
    n6 = sup_norm_interval(engine, x, 6)
    assert n4.lower <= n6.lower          # later stages see more elements
    assert n4.lower <= n4.upper


def test_stage_overflow(stage6):
    registry, engine = stage6
    gid = registry.gammas_up_to(6)[-1]
    x = engine.point_from_d({gid: Fraction(1)})
    with pytest.raises(StageOverflow):
        sup_norm_interval(engine, x, 3)


def test_scaling(stage6):
    registry, engine = stage6
    gid = registry.gammas_up_to(4)[7]
    x = engine.point_from_d({gid: Fraction(1), registry.base(): Fraction(1, 2)})
    a = sup_norm_interval(engine, x, 6)
    b = sup_norm_interval(engine, x.scaled(Fraction(-3)), 6)
    assert b.lower == 3 * a.lower and b.upper == 3 * a.upper


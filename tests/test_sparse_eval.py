"""The engine's reach-driven sparse evaluation against the dense oracle.

Points are random sparse d-vectors over the generated stage-6 and rich
stage-5 registries and over random forged towers, whose ids are not in
rank order.  Values, the nonzero listing, norm intervals, sums, scalings
and a registry grown after an evaluation must all agree exactly."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bdspace.cli import forge_arena
from bdspace.engine import Engine
from bdspace.errors import UnknownGamma
from bdspace.funcs import Func
from bdspace.norms import sup_norm_interval
from bdspace.schedule import slow_toy_schedule
from bdspace.spaces import forge_even
from dense_oracle import dense_sup_norm, dense_values

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

coefs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
    bool)


def assert_matches_dense(engine, x, n):
    """Every sparse read of x at stage n equals the dense oracle."""
    dense = dense_values(engine, x, n)
    assert engine.nonzeros(x, n) == [(g, v) for g, v in dense.items() if v]
    for gid, v in dense.items():
        assert engine.value(x, gid) == v
    ni = sup_norm_interval(engine, x, n)
    assert (ni.lower, ni.upper, ni.witness) == dense_sup_norm(engine, x, n)


def random_point(engine, rng, ids, size):
    return engine.point_from_d(
        {g: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
         for g in rng.sample(ids, min(size, len(ids)))})


def forge_random(registry, rng, rank):
    """One even-weight element of the given rank, its payload a random
    ell_1-small combination of elements below it."""
    window = registry.gammas_up_to(rank - 1)
    k = min(len(window), rng.randint(1, 3))
    payload = Func({g: Fraction(rng.choice([-1, 1]), k + rng.randint(0, 2))
                    for g in rng.sample(window, k)})
    return forge_even(registry, rng.randint(1, rank // 2), [rank], [payload])


def random_tower(seed, elements=14):
    """A forging arena grown by random elements at random ranks (so ids
    are not in rank order), about half of them chains of two links."""
    rng = random.Random(seed)
    registry = forge_arena(slow_toy_schedule(64))
    for _ in range(elements):
        top = max(registry.max_rank(), 2)
        rank = rng.randint(2, top + 2)
        if rng.random() < 0.5 or rank < 4:
            forge_random(registry, rng, rank)
            continue
        cut = rng.randint(2, rank - 1)
        first = registry.gammas_up_to(cut - 1)
        second = [g for g in registry.gammas_up_to(rank - 1)
                  if registry.rank_of(g) > cut]
        payloads = [Func({g: Fraction(1, 2) for g in rng.sample(
            pool, min(2, len(pool)))}) for pool in (first, second)]
        forge_even(registry, rng.randint(1, cut // 2), [cut, rank], payloads)
    return rng, registry, Engine(registry)


@SETTINGS
@given(data=st.data())
def test_stage_registries_match_dense(stage6, rich5, data):
    registry, engine = data.draw(st.sampled_from([stage6, rich5]))
    top = registry.max_rank()
    ids = registry.gammas_up_to(top - 1)
    support = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                 max_size=4, unique=True))
    x = engine.point_from_d({g: data.draw(coefs) for g in support})
    q = max(registry.rank_of(g) for g in support)
    n = data.draw(st.integers(q, top))
    assert_matches_dense(engine, x, n)
    assert engine.evaluate(x, n) is x.e_cache
    assert all(x.e_cache.values())


@SETTINGS
@given(data=st.data())
def test_sums_and_scalings_match_dense(stage6, data):
    registry, engine = stage6
    ids = registry.gammas_up_to(5)
    x, y = (engine.point_from_d({g: data.draw(coefs) for g in data.draw(
        st.lists(st.sampled_from(ids), min_size=1, max_size=3,
                 unique=True))}) for _ in range(2))
    engine.evaluate(x, data.draw(st.integers(1, 6)))   # a partial cache
    engine.evaluate(y, 6)
    c = data.draw(st.fractions(min_value=-2, max_value=2,
                               max_denominator=4))
    for z in (x + y, x - y, y + x.scaled(c), x.scaled(c), y.scaled(c)):
        assert_matches_dense(engine, z, 6)


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_forged_towers_match_dense(seed):
    rng, registry, engine = random_tower(seed)
    top = registry.max_rank()
    x = random_point(engine, rng, registry.gammas_up_to(top), 3)
    # grow the coverage one stage at a time, then read everything
    for n in range(engine.ran(x)[1], top + 1):
        engine.evaluate(x, n)
    assert_matches_dense(engine, x, top)
    y = random_point(engine, rng, registry.gammas_up_to(top), 2)
    assert_matches_dense(engine, x + y.scaled(-2), top)


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_registry_growth_below_covered_stage(seed):
    """Forging at or below the covered stage after an evaluation: the next
    read sees the new element's value."""
    rng, registry, engine = random_tower(seed)
    top = registry.max_rank()
    x = random_point(engine, rng, registry.gammas_up_to(top), 2)
    engine.evaluate(x, top)
    scaled = x.scaled(3)              # shares the (now stale) coverage
    for _ in range(3):
        rank = rng.randint(max(engine.ran(x)[1], 2), top)
        new = forge_random(registry, rng, rank)
        assert engine.value(x, new) == dense_values(engine, x, rank)[new]
    assert_matches_dense(engine, x, top)
    assert_matches_dense(engine, scaled, top)


def test_unknown_d_coordinate_is_named(stage6):
    registry, engine = stage6
    for gid in (len(registry), -1):
        with pytest.raises(UnknownGamma):
            engine.evaluate(engine.point_from_d({gid: Fraction(1)}), 6)

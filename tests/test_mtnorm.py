"""Mixed Tsirelson norm: DP, oracle, and norming-tree verification."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdspace import mtnorm
from bdspace.errors import (BruteForceCapExceeded, IndexOutOfSchedule,
                            InvariantViolation)
from bdspace.mtnorm import (Leaf, MTParams, Node, mt_norm,
                            mt_norm_exhaustive, norming_height, tree_action,
                            tree_support, verify_norming_tree)
from bdspace.schedule import validate_schedule
from dense_oracle import fraction_mt_norm, pieces_mt_norm

PARAMS = MTParams(pairs=((3, Fraction(1, 4)), (4, Fraction(1, 16))))


def test_params_validation():
    with pytest.raises(ValueError):
        MTParams(pairs=((3, Fraction(1, 4)), (4, Fraction(1, 2))))  # increasing
    with pytest.raises(ValueError):
        MTParams(pairs=((0, Fraction(1, 4)),))
    with pytest.raises(ValueError):
        MTParams(pairs=((3, Fraction(2)),))
    for excluded in (0, 2, -1):
        with pytest.raises(ValueError):
            MTParams(pairs=((3, Fraction(1, 4)),), excluded=excluded)
    with pytest.raises(IndexOutOfSchedule):
        PARAMS.theta(3)
    # caps and the excluded index are read by `parse_int`, and a weight is
    # an int or a Fraction: a float weight was scored in floats, a cap True
    # acted as 1 and a cap 2.0 failed in the DP with TypeError
    half = Fraction(1, 2)
    for pairs, excluded in [(((2, 0.5),), None), (((2, True),), None),
                            (((2, "1/2"),), None), (((True, half),), None),
                            (((2.0, half),), None), (((2, half),), True),
                            (((2, half),), 1.0), (((2, half),), "1")]:
        with pytest.raises(ValueError):
            MTParams(pairs=pairs, excluded=excluded)


def test_singleton_and_zero():
    assert mt_norm({}, PARAMS) == (0, None)
    v, tree = mt_norm({5: Fraction(-2, 3)}, PARAMS)
    assert v == Fraction(2, 3)
    assert tree == Leaf(sign=-1, k=5)


@pytest.mark.parametrize("norm", [lambda x, p: mt_norm(x, p)[0],
                                  mt_norm_exhaustive],
                         ids=["dp", "oracle"])
def test_coordinates_are_ints_and_values_exact(norm):
    """Both routes read each coordinate by `parse_int`, so a float, bool
    or string key raises ValueError instead of merging into the int it
    truncates to (1.5 used to collapse onto 1 and read 1, not 3/2), and
    a float value raises ValueError instead of being read as the binary
    fraction it rounds to, as a bool value does instead of reading as 1
    or 0."""
    params = MTParams(pairs=((2, Fraction(3, 4)),))
    assert norm({1: 1, 2: 1}, params) == Fraction(3, 2)
    for x in ({1: 1, 1.5: 1}, {1.0: 1}, {True: 1}, {"1": 1}, {1: 0.1},
              {1: 1, 2: 0.0}, {1: True}, {1: 1, 2: False}):
        with pytest.raises(ValueError):
            norm(x, params)


def test_unit_average_value():
    # three units under (A_3, 1/4): the weighted split attains 3/4 max coord
    x = {k: Fraction(1, 3) for k in range(3)}
    v, tree = mt_norm(x, PARAMS)
    assert v == Fraction(1, 3)
    assert isinstance(tree, Leaf)
    # six units of size 1: every weighted split stays below the sup
    x = {k: Fraction(1) for k in range(6)}
    v, tree = mt_norm(x, PARAMS)
    assert v == 1
    assert mt_norm_exhaustive(x, PARAMS) == v
    ok, why = verify_norming_tree(tree, PARAMS)
    assert ok, why
    assert tree_action(tree, PARAMS).dot(x) == v


def test_exhaustive_oracle_budget(monkeypatch):
    monkeypatch.setattr(mtnorm, "ORACLE_BUDGET", 3)
    with pytest.raises(BruteForceCapExceeded):
        mt_norm_exhaustive({k: Fraction(1) for k in range(6)}, PARAMS)


def test_exhaustive_matches_per_weight_enumeration():
    """The memoized oracle against the enumeration of every split for
    each weight index, on 300 seeded cases: one to three pairs, caps 1
    to 5 (cap-1 pairs included), every exclusion, supports up to 6."""
    rng = random.Random(16)
    weights = sorted({Fraction(a, b) for a in (1, 2, 3)
                      for b in range(4, 25)})
    shapes = set()
    for _ in range(300):
        size = rng.randint(1, 3)
        thetas = sorted(rng.sample(weights, size), reverse=True)
        caps = [rng.randint(1, 5) for _ in thetas]
        params = MTParams(pairs=tuple(zip(caps, thetas)),
                          excluded=rng.choice([None] + list(
                              range(1, size + 1))))
        x = {k: Fraction(rng.choice([-1, 1]) * rng.randint(1, 6),
                         rng.randint(1, 4))
             for k in rng.sample(range(12), rng.randint(1, 6))}
        assert mt_norm_exhaustive(x, params) == pieces_mt_norm(x, params)
        shapes.add((size, 1 in caps, params.excluded is not None, len(x)))
    assert {s[0] for s in shapes} == {1, 2, 3}
    assert {s[3] for s in shapes} == set(range(1, 7))
    assert any(s[1] for s in shapes) and any(s[2] for s in shapes)


def test_excluded_index():
    x = {k: Fraction(1) for k in range(4)}
    v_all, _ = mt_norm(x, PARAMS)
    v_ex, _ = mt_norm(x, MTParams(pairs=PARAMS.pairs, excluded=1))
    assert v_ex <= v_all
    assert v_ex == mt_norm_exhaustive(x, MTParams(pairs=PARAMS.pairs,
                                                  excluded=1))


def test_tree_verifier_rejections():
    bad_cap = Node(j=1, children=tuple(Leaf(1, k) for k in range(5)))
    ok, why = verify_norming_tree(bad_cap, PARAMS)
    assert not ok and "cap" in why
    overlap = Node(j=1, children=(Leaf(1, 3), Leaf(1, 2)))
    ok, why = verify_norming_tree(overlap, PARAMS)
    assert not ok and "successive" in why
    ok, why = verify_norming_tree(Leaf(2, 1), PARAMS)
    assert not ok
    excluded = Node(j=1, children=(Leaf(1, 1),))
    ok, why = verify_norming_tree(
        excluded, MTParams(pairs=PARAMS.pairs, excluded=1))
    assert not ok and "excluded" in why


def test_tree_support():
    t = Node(j=1, children=(Leaf(1, 2), Node(j=2, children=(Leaf(-1, 5),))))
    assert tree_support(t) == (2, 5)


def test_from_schedule():
    s = validate_schedule((4, 16), (6, 1))
    p = MTParams.from_schedule(s, factor=4)
    assert p.pairs == ((24, Fraction(1, 4)), (4, Fraction(1, 16)))
    assert MTParams.from_schedule(s, factor=3).pairs[0][0] == 18


def test_dp_matches_oracle_seeded():
    rng = random.Random(11)
    done = 0
    while done < 40:
        caps = sorted(rng.sample(range(2, 5), 2))
        thetas = sorted([Fraction(1, rng.randint(2, 6)),
                         Fraction(1, rng.randint(7, 12))], reverse=True)
        params = MTParams(pairs=tuple(zip(caps, thetas)),
                          excluded=rng.choice([None, 1, 2]))
        x = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for k in rng.sample(range(10), rng.randint(1, 6))}
        x = {k: v for k, v in x.items() if v}
        if not x:
            continue
        done += 1
        v, tree = mt_norm(x, params)
        assert v == mt_norm_exhaustive(x, params)
        ok, why = verify_norming_tree(tree, params)
        assert ok, why
        assert tree_action(tree, params).dot(x) == v


small_vecs = st.dictionaries(
    st.integers(0, 7),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(small_vecs, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_homogeneity(x, c):
    v, _ = mt_norm(x, PARAMS)
    vc, _ = mt_norm({k: c * w for k, w in x.items()}, PARAMS)
    assert vc == abs(c) * v


@settings(max_examples=60, deadline=None)
@given(small_vecs, small_vecs)
def test_triangle_inequality(x, y):
    total = dict(x)
    for k, w in y.items():
        total[k] = total.get(k, Fraction(0)) + w
    vxy, _ = mt_norm(total, PARAMS)
    assert vxy <= mt_norm(x, PARAMS)[0] + mt_norm(y, PARAMS)[0]


@settings(max_examples=40, deadline=None)
@given(small_vecs)
def test_norm_dominates_sup_and_is_dominated_by_l1(x):
    v, _ = mt_norm(x, PARAMS)
    assert v >= max(abs(w) for w in x.values())
    assert v <= sum(abs(w) for w in x.values())


def tree_height(tree):
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_height(c) for c in tree.children)


def test_cap_one_pair_matches_exhaustive():
    # (6, 1/4), (1, 1/16): a cap-1 node over its own window never attains
    params = MTParams.from_schedule(validate_schedule((4, 16), (6, 1)),
                                    factor=1)
    assert params.cap(2) == 1
    x = {k: Fraction(1) for k in range(1, 9)}
    v, tree = mt_norm(x, params)
    assert v == mt_norm_exhaustive(x, params) == Fraction(3, 2)
    assert (v, tree) == fraction_mt_norm(x, params)
    ok, why = verify_norming_tree(tree, params)
    assert ok, why
    for caps in ((1,), (1, 2), (2, 1), (1, 3)):
        params = MTParams(pairs=tuple(zip(caps, (Fraction(1, 2),
                                                 Fraction(1, 5)))))
        x = {k: Fraction(k % 3 + 1, 2) for k in range(7)}
        assert mt_norm(x, params)[0] == mt_norm_exhaustive(x, params)


@st.composite
def mt_cases(draw, max_size=12, max_cap=5):
    """Random parameters and a vector of at most max_size coordinates
    with many ties: caps 1..max_cap, weights with non-unit numerators and
    mixed denominators, every exclusion."""
    thetas = sorted(draw(st.sets(st.builds(Fraction, st.integers(1, 5),
                                           st.integers(6, 24)),
                                 min_size=1, max_size=3)), reverse=True)
    caps = draw(st.lists(st.integers(1, max_cap), min_size=len(thetas),
                         max_size=len(thetas)))
    excluded = draw(st.sampled_from([None] + list(range(1, len(caps) + 1))))
    params = MTParams(pairs=tuple(zip(caps, thetas)), excluded=excluded)
    unit = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7)
                .filter(bool))
    coords = draw(st.dictionaries(
        st.integers(0, 30),
        st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4),
                         Fraction(5, 3)]),
        min_size=1, max_size=max_size))
    return params, {k: unit * v for k, v in coords.items()}


@settings(max_examples=150, deadline=None)
@given(mt_cases())
def test_integer_dp_matches_fraction_dp(case):
    params, x = case
    value, tree = mt_norm(x, params)
    assert (value, tree) == fraction_mt_norm(x, params)
    assert tree_height(tree) <= norming_height(len(x), params)


@settings(max_examples=60, deadline=None)
@given(mt_cases(max_size=16, max_cap=9))
def test_doubled_levels_match_fraction_dp(case):
    """Caps up to 9 need levels built from unequal halves (3 = 2 + 1,
    5 = 3 + 2, 7 = 4 + 3, 9 = 5 + 4) and levels that no cap names."""
    params, x = case
    assert mt_norm(x, params) == fraction_mt_norm(x, params)


@pytest.mark.parametrize("pairs", [
    ((2, Fraction(1, 2)), (4, Fraction(1, 3)), (8, Fraction(1, 4))),
    ((3, Fraction(2, 5)),), ((5, Fraction(1, 2)), (7, Fraction(1, 3))),
    ((6, Fraction(3, 4)),),
    MTParams.from_schedule(validate_schedule((4, 16), (6, 2))).pairs],
    ids=["2-4-8", "3", "5-7", "6", "24-8"])
def test_doubled_levels_on_ties(pairs):
    """Entries in {+-1, +-2} make many splits attain: the cuts recovered
    for the returned tree are the fraction DP's lexicographically first
    ones.  Caps (24, 8) are `from_schedule`'s 4 n_j; past 24 points they
    tabulate the levels 2, 3, 4, 6, 8, 12 and 24."""
    rng = random.Random(len(pairs) * 100 + pairs[0][0])
    params = MTParams(pairs=pairs)
    for n in (20, 22, 24, 26):
        x = {k: Fraction(rng.choice((1, -1, 2, -2)))
             for k in rng.sample(range(3 * n), n)}
        assert mt_norm(x, params) == fraction_mt_norm(x, params)


def test_height_bound_is_tight():
    """Doubling entries under (2, 4/5): the optimum is a chain as tall as
    the bound H, so a scale with one power fewer cannot hold it."""
    chain = MTParams(pairs=((2, Fraction(4, 5)),))
    for n in range(2, 10):
        x = {k: Fraction(2 ** k) for k in range(n)}
        value, tree = mt_norm(x, chain)
        assert (value, tree) == fraction_mt_norm(x, chain)
        assert tree_height(tree) == norming_height(n, chain) == n - 1


@settings(max_examples=100, deadline=None)
@given(mt_cases(max_size=6))
def test_integer_oracle_matches_fraction_enumeration(case):
    """The oracle's integer scores against the per-weight enumeration in
    Fractions, on weights with non-unit numerators, cap 1, exclusions
    and ties."""
    params, x = case
    assert mt_norm_exhaustive(x, params) == pieces_mt_norm(x, params)


def test_integer_oracle_on_the_tallest_trees():
    """The doubling chain under (2, 4/5), whose optimum has n - 1 node
    levels over n points, the most the oracle's scale must hold."""
    chain = MTParams(pairs=((2, Fraction(4, 5)),))
    for n in range(1, 7):
        x = {k: Fraction(2 ** k, 3) for k in range(n)}
        assert mt_norm_exhaustive(x, chain) == fraction_mt_norm(x, chain)[0]


def test_oracle_short_scale_raises_invariant_violation(monkeypatch):
    """Without the weights' denominators in the scale, theta = 4/5 times
    a pool score leaves a remainder, which is named."""
    monkeypatch.setattr(mtnorm, "prod", lambda factors: 1)
    chain = MTParams(pairs=((2, Fraction(4, 5)),))
    with pytest.raises(InvariantViolation, match="oracle's integer scale"):
        mt_norm_exhaustive({0: Fraction(1), 1: Fraction(2)}, chain)


def test_unattained_split_raises_invariant_violation(monkeypatch):
    """Node values one unit too large under theta = 1/2: the root's
    split value read back from its node value, twice that value, exceeds
    every split's sum, and the cut recovery names that instead of taking
    some cut."""
    monkeypatch.setattr(mtnorm, "divmod", lambda v, d: (v // d + 1, 0),
                        raising=False)
    with pytest.raises(InvariantViolation, match="no cut of"):
        mt_norm({k: Fraction(1) for k in range(3)},
                MTParams(pairs=((2, Fraction(1, 2)),)))


def test_calls_leave_no_reference_cycles():
    """The DP's tree builder and the oracle's scorers call themselves;
    both routes drop those closures on return, so their tables and memos
    go at once and not at the next cyclic garbage collection."""
    x = {k: Fraction(k + 1, 3) for k in range(6)}
    calls = [lambda: mt_norm(x, PARAMS), lambda: mt_norm({1: 1, 2: 1}, PARAMS),
             lambda: mt_norm_exhaustive(x, PARAMS)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_short_scale_raises_invariant_violation(monkeypatch):
    """One power of lcm(b_j) too few leaves a remainder, which is named."""
    monkeypatch.setattr(mtnorm, "norming_height",
                        lambda n, params: norming_height(n, params) - 1)
    two_units = {0: Fraction(1), 1: Fraction(1)}
    with pytest.raises(InvariantViolation):
        mt_norm(two_units, PARAMS)
    # the chain of test_height_bound_is_tight at H = 4
    chain = MTParams(pairs=((2, Fraction(4, 5)),))
    with pytest.raises(InvariantViolation):
        mt_norm({k: Fraction(2 ** k) for k in range(5)}, chain)


def test_dp_tables_stay_small():
    """96 points under caps (2, 4, 8): the DP tabulates the levels 2, 4
    and 8 only, by doubling, and keeps by-end tables for the right
    operands 1, 2 and 4 alone.  Every level from 2 to 8 by the chain
    S_p = S_1 (x) S_(p-1), with first-cut tables, peaked at 3.3 MB."""
    rng = random.Random(96)
    x = {k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 4))
         for k in rng.sample(range(384), 96)}
    params = MTParams(pairs=((2, Fraction(1, 2)), (4, Fraction(1, 3)),
                             (8, Fraction(1, 4))))
    gc.collect()
    tracemalloc.start()
    try:
        value, tree = mt_norm(x, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20
    assert tree_action(tree, params).dot(x) == value


def test_large_average_stays_linear():
    """The first cap covers the support: the closed form, no tables."""
    n = 20000
    params = MTParams(pairs=((80000, Fraction(1, 4)), (8, Fraction(1, 16))))
    x = {k: Fraction(1, n) for k in range(1, n + 1)}
    tracemalloc.start()
    try:
        value, tree = mt_norm(x, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == Fraction(1, 4)
    assert peak < 32 * 2 ** 20
    assert tree.j == 1 and len(tree.children) == n

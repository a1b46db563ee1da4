"""The engine's reach-driven sparse paths against the dense oracles.

The c*, d* and prefix memos must equal the Fraction recursion read from
the registry records.  Points are random sparse d-vectors over the
generated stage-6 and rich stage-5 registries and over random forged
towers, whose ids are not in rank order.  Values, the nonzero listing,
norm intervals, combinations (sums, differences and scalings) and a
registry grown after an evaluation must all agree exactly.  Stage
matrices over the same registries must have the dense solve's columns,
in order, and the sparse D*.D check must list the dense sweep's
defects, also for deliberately corrupted matrices.  The FDD row norms
and the basis constant read from the prefix memo must equal the
outer-product sums over the dense columns."""

import random
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from bdspace.cli import forge_arena
from bdspace.engine import Engine, StageMatrix, combination
from bdspace.errors import UnknownGamma
from bdspace.funcs import Func, IntVec
from bdspace.norms import sup_norm_interval
from bdspace.schedule import slow_toy_schedule
from bdspace.spaces import forge_even
from dense_oracle import (FractionRecursion, dense_columns, dense_defects,
                          dense_fdd_row_norms, dense_sup_norm, dense_values,
                          fraction_listing)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

coefs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
    bool)


def assert_matches_dense(engine, x, n):
    """Every sparse read of x at stage n equals the dense oracle."""
    dense = dense_values(engine, x, n)
    assert fraction_listing(engine, x, n) == [(g, v) for g, v in dense.items()
                                              if v]
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
        if not second:   # no second link: a payload is never empty
            forge_random(registry, rng, rank)
            continue
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


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
@example(seed=0)
def test_sums_of_points_solved_alike_keep_their_values(seed):
    """Combinations of points solved to the same (stage, size) -- x + y,
    x - y, three terms, a coefficient of 0 -- add the solved values and
    keep the coverage marker; their nonzeros equal a fresh solve of the
    combined d-vector and the dense oracle.  A sum kept this way catches
    up like any point when the registry grows."""
    rng, registry, engine = random_tower(seed)
    top = registry.max_rank()
    ids = registry.gammas_up_to(top)
    x, y, w = (random_point(engine, rng, ids, rng.randint(1, 3))
               for _ in range(3))
    n = rng.randint(max(engine.ran(p)[1] for p in (x, y, w)), top)
    for p in (x, y, w):
        engine.evaluate(p, n)
    sums = (x + y, x - y, y - x.scaled(Fraction(-1, 2)),
            combination([(2, x), (Fraction(-1, 3), y), (Fraction(5, 2), w)]),
            combination([(0, x), (1, y), (-1, w)]))
    for z in sums:
        assert z.covered == x.covered == y.covered == w.covered
        fresh = engine.point_from_d(z.d_coords)
        assert fraction_listing(engine, z, n) == fraction_listing(
            engine, fresh, n)
        assert_matches_dense(engine, z, n)
    new = forge_random(registry, rng, rng.randint(2, top + 1))
    for z in sums:
        assert engine.value(z, new) == dense_values(
            engine, z, registry.rank_of(new))[new]
        assert_matches_dense(engine, z, registry.max_rank())


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_sums_keep_solved_values_only_under_one_marker(seed):
    """Points solved to different stages, or before and after the
    registry grew, sum to a point with no solved values, which evaluates
    exactly; where the two markers agree, the sum keeps the values.  One
    term off the marker of the others is enough to start unsolved, and
    no terms make the unsolved zero point."""
    rng, registry, engine = random_tower(seed)
    top = registry.max_rank()
    ids = registry.gammas_up_to(top)
    x, y, w = (random_point(engine, rng, ids, rng.randint(1, 3))
               for _ in range(3))
    engine.evaluate(x, top)
    engine.evaluate(y, engine.ran(y)[1])
    engine.evaluate(w, top)
    forge_random(registry, rng, rng.randint(2, top))
    z = engine.point_from_d(y.d_coords)
    engine.evaluate(z, top)   # solved as w was, unless the registry grew
    for a, b in ((x, y), (w, z)):
        for s in (a + b, b - a):
            assert s.covered == (a.covered if a.covered == b.covered
                                 else (0, 0))
            assert_matches_dense(engine, s, registry.max_rank())
    unsolved = engine.point_from_d(y.d_coords)
    assert x.covered == w.covered != unsolved.covered
    s = combination([(1, x), (Fraction(-1, 2), w), (3, unsolved)])
    assert s.covered == (0, 0)
    assert_matches_dense(engine, s, registry.max_rank())
    empty = combination([])
    assert empty.is_zero() and empty.covered == (0, 0)
    assert_matches_dense(engine, empty, registry.max_rank())


@pytest.mark.parametrize("scalar", [0.1, 1.0, 0.0, True, False])
def test_points_refuse_float_and_bool_scalars(stage6, scalar):
    """A float is no exact rational and a bool no number: scaling a Point
    or combining it with one raises ValueError, as `Func.scaled` does."""
    registry, engine = stage6
    x = engine.point_from_d({registry.gammas_up_to(2)[-1]: Fraction(1)})
    with pytest.raises(ValueError, match="exact rational"):
        x.scaled(scalar)
    with pytest.raises(ValueError, match="exact rational"):
        combination([(1, x), (scalar, x)])


def test_unknown_d_coordinate_is_named(stage6):
    registry, engine = stage6
    for gid in (len(registry), -1):
        with pytest.raises(UnknownGamma):
            engine.evaluate(engine.point_from_d({gid: Fraction(1)}), 6)


# -- the c*, d* and prefix memos ---------------------------------------------

def assert_memos_match_recursion(engine, n):
    """c*, d* and every P*_{(0,q]} e*_gamma over Gamma_n equal the
    Fraction recursion entry for entry; a fresh recursion, so nothing is
    shared with other tests."""
    registry = engine.registry
    oracle = FractionRecursion(registry)
    for gid in registry.gammas_up_to(n):
        assert engine._c_vec(gid).to_func() == oracle.c_star(gid)
        assert engine.d_star(gid) == oracle.d_star(gid)
        for q in range(0, n + 1):
            prefix = engine.project_prefix(q, Func.unit(gid))
            assert prefix == oracle.prefix(q, gid)
            assert all(type(v) is Fraction for v in prefix.values())


@pytest.mark.parametrize("name", ["stage6", "rich5"])
def test_memos_match_fraction_recursion(request, name):
    """The memos match the recursion, and c*_gamma is the prefix row at
    q = rank(gamma) - 1: equal in the oracle, which builds the two by
    separate rules, and one stored row in the engine."""
    registry, engine = request.getfixturevalue(name)
    assert_memos_match_recursion(engine, registry.max_rank())
    oracle = FractionRecursion(registry)
    for gid in registry.gammas_up_to(registry.max_rank()):
        rank = registry.rank_of(gid)
        if rank > 1:
            assert oracle.c_star(gid) == oracle.prefix(rank - 1, gid)
        assert engine._c_vec(gid) is engine._row(rank - 1, gid)


def test_rows_below_the_cut_are_the_predecessors(rich5):
    """For a Type2 element of cut p and q <= p, P*_{(0,q]} e*_gamma =
    P*_{(0,q]} e*_xi of its predecessor xi: the memo stores xi's row,
    the same object (`test_memos_match_fraction_recursion` checks its
    value against the plain recursion)."""
    registry, engine = rich5
    shared = 0
    for rec in registry.records:
        if rec.predecessor is not None:
            for q in range(1, rec.cut + 1):
                assert engine._row(q, rec.id) is \
                    engine._row(q, rec.predecessor)
                shared += 1
    assert shared > 0


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_forged_tower_memos_match_fraction_recursion(seed):
    _, registry, engine = random_tower(seed)
    assert_memos_match_recursion(engine, registry.max_rank())


# -- stage matrices ----------------------------------------------------------

def assert_stage_matrix_matches_dense(engine, n):
    """Columns equal to the dense solve as maps, and no defects by either
    check; returns the matrix."""
    sm = engine.stage_matrix(n)
    oracle = FractionRecursion(engine.registry)
    dense = dense_columns(sm.ids, {g: oracle.d_star(g) for g in sm.ids})
    assert list(sm.columns) == sm.ids
    assert [sm.columns[g].to_func() for g in sm.ids] == \
        [dense[g] for g in sm.ids]
    assert sm.biorthogonality_defects() == dense_defects(sm) == []
    return sm


def assert_defects_match_dense(sm):
    sparse, dense = sm.biorthogonality_defects(), dense_defects(sm)
    assert sparse == dense
    assert [type(v) for *_, v in sparse] == [type(v) for *_, v in dense]


CORRUPTIONS = ("perturb", "off-support", "drop-diagonal", "row")


def corrupt(sm, data):
    """A copy of sm with one to three drawn corruptions: a column entry
    perturbed (possibly to zero), an entry added off the column's
    support, a column's diagonal dropped, or a row entry added or
    perturbed.  Rows and columns are corrupted as Funcs and stored back
    as IntVecs, whose denominators then differ from the solve's."""
    rows = {g: r.to_func() for g, r in sm.rows.items()}
    columns = {g: c.to_func() for g, c in sm.columns.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(CORRUPTIONS))
        gamma = data.draw(st.sampled_from(sm.ids))
        col = columns[gamma]
        if kind == "perturb" and col:
            key = data.draw(st.sampled_from(sorted(col)))
            col[key] = col[key] + data.draw(coefs)
        elif kind == "off-support":
            free = [g for g in sm.ids if g not in col]
            if free:
                col[data.draw(st.sampled_from(free))] = data.draw(coefs)
        elif kind == "drop-diagonal":
            col.pop(gamma, None)
        elif kind == "row":
            rows[gamma] = rows[gamma] + Func.unit(
                data.draw(st.sampled_from(sm.ids)), data.draw(coefs))
    return StageMatrix(sm.ids,
                       {g: IntVec.from_func(r) for g, r in rows.items()},
                       {g: IntVec.from_func(c) for g, c in columns.items()})


@pytest.mark.parametrize("name, n", [("stage6", n) for n in range(1, 7)]
                         + [("rich5", n) for n in range(1, 5)])
def test_stage_matrix_matches_dense(request, name, n):
    _, engine = request.getfixturevalue(name)
    assert_stage_matrix_matches_dense(engine, n)


@SETTINGS
@given(data=st.data())
def test_corrupted_stage_matrix_defects_match_dense(stage6, rich5, data):
    _, engine = data.draw(st.sampled_from([stage6, rich5]))
    sm = engine.stage_matrix(data.draw(st.integers(1, 4)))
    assert_defects_match_dense(corrupt(sm, data))


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_forged_tower_stage_matrices_match_dense(seed, data):
    _, registry, engine = random_tower(seed)
    n = data.draw(st.integers(1, registry.max_rank()))
    sm = assert_stage_matrix_matches_dense(engine, n)
    assert_defects_match_dense(corrupt(sm, data))


def test_missing_diagonal_is_a_defect(stage6):
    """A column without its diagonal pairs with its own row to a
    structural zero that the scatter never reaches."""
    _, engine = stage6
    sm = engine.stage_matrix(4)
    gamma = sm.ids[-1]
    del sm.columns[gamma][gamma]
    assert sm.biorthogonality_defects() == dense_defects(sm) == [
        (gamma, gamma, Fraction(0))]


# -- FDD row norms -------------------------------------------------------------

def assert_row_norms_match_dense(engine, n):
    """Equal (interval, tail) dicts as ordered item lists of Fractions,
    and a basis constant equal to the largest dense (0, q] row sum."""
    fast, dense = engine.fdd_row_norms(n), dense_fdd_row_norms(engine, n)
    for sums, expected in zip(fast, dense):
        assert list(sums.items()) == list(expected.items())
        assert all(type(v) is Fraction for v in sums.values())
    assert engine.basis_constant(n) == max(
        dense[0][(0, q)] for q in range(1, n + 1))


@pytest.mark.parametrize("name, n", [("stage6", n) for n in range(1, 7)]
                         + [("rich5", n) for n in range(1, 6)])
def test_fdd_row_norms_match_dense(request, name, n):
    _, engine = request.getfixturevalue(name)
    assert_row_norms_match_dense(engine, n)


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
@example(seed=0)   # its prefix rows' denominators are not nested
def test_forged_tower_row_norms_match_dense(seed):
    _, registry, engine = random_tower(seed)
    for n in range(1, registry.max_rank() + 1):
        assert_row_norms_match_dense(engine, n)

"""Dual-basis recursion, projections and stage matrices.

The stage-matrix inverse is cross-checked against an independent dense
forward-substitution solve of the unit-triangular row system.
"""

from fractions import Fraction

import pytest

from bdspace.errors import BaseHasNoAnalysis, StageOverflow
from bdspace.funcs import Func


def test_base_functionals(stage6):
    registry, engine = stage6
    base = registry.base()
    assert engine._c_vec(base).to_func() == Func()
    assert engine.d_star(base) == Func.unit(base)


def test_d_star_unit_triangular(stage6):
    registry, engine = stage6
    order = {g: i for i, g in enumerate(registry.gammas_up_to(6))}
    for gid in registry.gammas_up_to(6):
        d = engine.d_star(gid)
        assert d[gid] == 1
        assert all(order[h] <= order[gid] for h in d)
        # off-diagonal support sits at strictly lower ranks
        assert all(h == gid or registry.rank_of(h) < registry.rank_of(gid)
                   for h in d)


@pytest.mark.parametrize("name", ["stage6", "rich5"])
def test_d_star_l1_from_integer_rows(request, name):
    """The ell_1 norm read off the integer row is the Func's, exactly;
    rich5 holds Type2 links, whose d* rows reach over several ranks."""
    registry, engine = request.getfixturevalue(name)
    norms = [engine.d_star_l1(g) for g in registry.gammas_up_to(5)]
    assert norms == [engine.d_star(g).l1()
                     for g in registry.gammas_up_to(5)]
    assert all(type(v) is Fraction for v in norms)
    assert max(norms) == {"stage6": Fraction(5, 4),
                          "rich5": Fraction(2181, 1024)}[name]


def test_stage_matrix_against_dense_solve(stage6):
    registry, engine = stage6
    n = 4
    sm = engine.stage_matrix(n)
    ids = sm.ids
    idx = {g: i for i, g in enumerate(ids)}
    k = len(ids)
    # dense unit-lower-triangular system: A[i][j] = <d*_{ids[i]}, e-coord j>
    A = [[Fraction(0)] * k for _ in range(k)]
    for i, g in enumerate(ids):
        for h, c in sm.rows[g].to_func().items():
            A[i][idx[h]] = c
    # independent forward substitution for A X = I
    for col in range(k):
        x = [Fraction(0)] * k
        for i in range(k):
            acc = Fraction(1) if i == col else Fraction(0)
            acc -= sum(A[i][j] * x[j] for j in range(i) if A[i][j])
            x[i] = acc  # A[i][i] == 1
        expected = {ids[i]: x[i] for i in range(k) if x[i]}
        assert expected == sm.columns[ids[col]].to_func()


def test_biorthogonality_stage4(stage6):
    _, engine = stage6
    assert engine.stage_matrix(4).biorthogonality_defects() == []


def test_prefix_projection_is_idempotent_and_monotone(stage6):
    registry, engine = stage6
    f = Func([(g, Fraction(1, 3)) for g in registry.gammas_up_to(5)[:7]])
    p3 = engine.project_prefix(3, f)
    assert engine.project_prefix(3, p3) == p3
    assert engine.project_prefix(2, p3) == engine.project_prefix(2, f)
    # interval decomposition: P*_{(0,5]} = P*_{(0,2]} + P*_{(2,5]}
    assert engine.project_prefix(5, f) == \
        engine.project_prefix(2, f) + engine.project_l1((2, 5), f)


def test_tail_plus_prefix_is_identity(stage6):
    registry, engine = stage6
    gid = registry.gammas_up_to(6)[-1]
    f = Func.unit(gid)
    assert engine.project_prefix(4, f) + engine.project_l1((4, None), f) == f


def test_evaluation_analysis_identity(stage6, rich5):
    """The window and the tail reconstruction of one shared walk both
    equal e*_gamma; rich5 holds Type2 chains of several links, stage6
    only one-link chains."""
    for registry, engine in (stage6, rich5):
        count = longest = 0
        for gid in registry.gammas_up_to(5):
            if registry.records[gid].rank == 1:
                with pytest.raises(BaseHasNoAnalysis):
                    engine.evaluation_analysis(gid)
                continue
            count += 1
            longest = max(longest, len(engine.evaluation_analysis(gid)))
            lhs, window, tail = engine.analysis_identity_sides(gid)
            assert lhs == window == tail
        assert count == registry.count_up_to(5) - 1
    assert longest > 1


def test_analysis_rows_shape(stage6):
    registry, engine = stage6
    for gid in registry.gammas_up_to(5):
        rec = registry.records[gid]
        if rec.rank == 1:
            continue
        rows = engine.evaluation_analysis(gid)
        assert rows[-1].id == gid
        assert [r.age for r in rows] == list(range(1, len(rows) + 1))
        assert [r.predecessor for r in rows] == \
            [None] + [r.id for r in rows[:-1]]
        assert all(a.rank < b.rank for a, b in zip(rows, rows[1:]))
        assert len(rows) == rec.age


def test_point_evaluation_matches_l1_side(stage6):
    registry, engine = stage6
    ids = registry.gammas_up_to(5)
    x = engine.point_from_d({ids[3]: Fraction(2), ids[10]: Fraction(-1, 2)})
    for gid in ids[:20]:
        assert engine.value(x, gid) == engine.pair(Func.unit(gid), x)


def test_extend_restricts_to_identity(stage6):
    registry, engine = stage6
    ids = registry.gammas_up_to(3)
    u = {ids[1]: Fraction(1), ids[4]: Fraction(-2, 3)}
    y = engine.extend(3, u, 5)
    for gid in ids:
        assert engine.value(y, gid) == u.get(gid, Fraction(0))


@pytest.mark.parametrize("value", [0.1, 0.0, True])
def test_extend_refuses_float_and_bool_values(stage6, value):
    """u's values are read by `funcs.exact`: a float or bool raises
    ValueError instead of entering as its binary expansion (or as 1),
    also a 0.0 that used to be skipped."""
    registry, engine = stage6
    ids = registry.gammas_up_to(3)
    with pytest.raises(ValueError, match="exact rational"):
        engine.extend(3, {ids[1]: Fraction(1), ids[4]: value}, 5)


def test_fdd_projection_partition(stage6):
    registry, engine = stage6
    ids = registry.gammas_up_to(5)
    x = engine.point_from_d({g: Fraction(1, 7) for g in ids[::9]})
    lo = engine.fdd_project((0, 3), x)
    hi = engine.fdd_project((3, None), x)
    assert (lo + hi).d_coords == x.d_coords


def test_basis_constant_is_one(stage6):
    _, engine = stage6
    assert engine.basis_constant(6) == 1


def test_stage_overflow(stage6):
    """Every stage-n method rejects a stage below 1 or beyond the
    registry."""
    _, engine = stage6
    for method in (engine.stage_matrix, engine.basis_constant,
                   engine.fdd_row_norms):
        for n in (0, 7):
            with pytest.raises(StageOverflow):
                method(n)


def test_eval_after_projection(stage6):
    registry, engine = stage6
    ids = registry.gammas_up_to(5)
    x = engine.point_from_d({ids[8]: Fraction(1)})
    gid = ids[-1]
    full = engine.value(x, gid)
    s = registry.rank_of(ids[8])
    # projecting above the whole support kills the value
    assert engine.eval_after_projection(gid, s, x) == \
        full - engine.pair(engine.project_prefix(s, Func.unit(gid)), x)

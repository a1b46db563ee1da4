"""Witness constructions: RIS, averages, exact pairs, dependent
sequences, the basic inequality, and the indecomposability probe."""

from fractions import Fraction

import pytest

from dataclasses import replace

from bdspace.analysis import (CarrierSource, alternating_report,
                              basic_inequality_witness, check_ris, hi_probe,
                              lower_estimate_witness, make_dependent_sequence,
                              make_exact_pair, ris_average_report,
                              suggested_js)
from bdspace.certificates import REPORTED, VERIFIED, VIOLATED, canonical_json
from bdspace.errors import (CutTooSmall, InvariantViolation, NotBlockSequence,
                            NotCertifiedRIS, NotSkippedBlock, SearchExhausted)
from bdspace.funcs import Func
from bdspace.norms import sup_norm_interval
from bdspace.spaces import forge_even
from dense_oracle import dense_values, fraction_listing


def escalating_blocks(forge_arena, n=3):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    return registry, engine, source, [source.next_block() for _ in range(n)]


def test_carrier_source_blocks_are_skipped_and_escalating(forge_arena):
    registry, engine, source, xs = escalating_blocks(forge_arena)
    rans = [engine.ran(x) for x in xs]
    for a, b in zip(rans, rans[1:]):
        assert a[1] + 2 <= b[0]          # at least one skipped rank
    ws = [registry.records[gid].weight_index
          for x in xs for gid in x.d_coords]
    assert all(w0 < w1 for w0, w1 in zip(ws, ws[1:]))


def test_ris_certificate(forge_arena):
    registry, engine, source, xs = escalating_blocks(forge_arena, n=4)
    js = suggested_js(engine, xs)
    cert = check_ris(engine, xs, Fraction(2), js, registry.max_rank())
    assert cert.passed
    assert cert.values["cond2"] and not cert.values["cond3_violations"]
    assert cert.verdict == VERIFIED and cert.values["js"] == js


def test_ris_rejects_overlapping_blocks(forge_arena):
    registry, engine, source, xs = escalating_blocks(forge_arena)
    with pytest.raises(NotBlockSequence):
        check_ris(engine, [xs[0], xs[0]], Fraction(2), [2, 4],
                  registry.max_rank())


def test_lower_estimate_identity(forge_arena):
    registry, engine, source, xs = escalating_blocks(forge_arena, n=3)
    xs = [x.scaled(c) for x, c in zip(xs, (1, Fraction(-1, 2), 2))]
    gamma, report, _ = lower_estimate_witness(engine, xs, 1)
    assert report.passed
    beta = registry.schedule.weight_value(2)
    assert report.values["lhs"] == beta * sum(report.values["maxima"])
    assert registry.records[gamma].weight_index == 2
    assert registry.records[gamma].age == 3


def test_lower_estimate_block_norms_are_window_maxima(forge_arena):
    """A skipped block vanishes at and below the previous cut, so its
    norm over Gamma_{p_r - 1} is the window maximum the witness records,
    and the half sum is rhs/2."""
    registry, engine = forge_arena()
    base = registry.base()
    xs = []
    for rank, (a, b) in zip((3, 6, 9), ((1, Fraction(-1, 2)),
                                        (Fraction(1, 3), 2), (-1, 1))):
        lo = forge_even(registry, 1, [rank], [Func.unit(base)])
        hi = forge_even(registry, 1, [rank + 1],
                        [Func.unit(lo, Fraction(-1))])
        xs.append(engine.point_from_d({lo: Fraction(a), hi: Fraction(b)}))
    _, report, _ = lower_estimate_witness(engine, xs, 1)
    maxima = report.values["maxima"]
    assert [sup_norm_interval(engine, x, p - 1).lower
            for x, p in zip(xs, report.values["cuts"])] == maxima
    assert len(set(maxima)) == 3
    assert report.detail["half_sum"] == report.values["rhs"] / 2


def test_lower_estimate_needs_skipping(forge_arena):
    """The block ranges are checked before the cut: a zero term raises
    NotBlockSequence and an unskipped pair NotSkippedBlock, also when j
    is too large for the second block."""
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    x1 = source.next_block()
    # forge an adjacent block with no skipped rank in between
    nxt = forge_even(registry, registry.max_rank() // 2,
                     [registry.max_rank() + 1],
                     [Func.unit(registry.base())])
    x2 = engine.point_from_d({nxt: Fraction(1)})
    for j in (1, engine.ran(x2)[0]):   # the second: 2j >= min ran x_2
        with pytest.raises(NotSkippedBlock):
            lower_estimate_witness(engine, [x1, x2], j)
        with pytest.raises(NotBlockSequence):
            lower_estimate_witness(engine, [x1, x2.scaled(0)], j)


def test_lower_estimate_block_sum_is_solved_to_gamma(forge_arena):
    """The returned block sum is sum x_r, marked solved to the rank of
    gamma, with the values of a fresh Fraction solve there."""
    registry, engine, source, xs = escalating_blocks(forge_arena, n=3)
    xs = [x.scaled(c) for x, c in zip(xs, (1, Fraction(-1, 2), 2))]
    gamma, _, total = lower_estimate_witness(engine, xs, 1)
    rank = registry.rank_of(gamma)
    assert total.covered[0] == rank
    assert total.d_coords == sum((x.d_coords for x in xs), Func())
    fresh = [(gid, v) for gid, v in dense_values(engine, total, rank).items()
             if v]
    assert fraction_listing(engine, total, rank) == fresh
    assert total.covered[0] == rank   # the listing solved nothing more


def test_lower_estimate_cut_too_small(forge_arena):
    registry, engine, source, xs = escalating_blocks(forge_arena)
    with pytest.raises(CutTooSmall):
        lower_estimate_witness(engine, xs, max(engine.ran(xs[1])))


def test_exact_pair_eps1(forge_arena):
    registry, engine, source, xs = escalating_blocks(forge_arena, n=3)
    theta, x, gamma, report = make_exact_pair(engine, xs, 1, 1, Fraction(2))
    assert report.values["value_at_gamma"] == 1
    assert engine.value(x, gamma) == 1
    assert report.passed
    assert report.values["pair_constant"] == 44
    assert report.detail["theta_ok"]


def test_exact_pair_eps0(forge_arena):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=True)  # gap 3
    xs = [source.next_block() for _ in range(3)]
    theta, z, gamma, report = make_exact_pair(engine, xs, 1, 0, Fraction(2))
    assert engine.value(z, gamma) == 0
    assert report.passed
    assert report.values["pair_constant"] == 24
    assert theta == 1
    assert any("middle index" in note for note in report.detail["notes"])


def test_dependent_sequence_partial_sums(forge_arena):
    registry, engine = forge_arena()
    sources = [CarrierSource(engine, companions=False)]
    rec = make_dependent_sequence(engine, 1, sources, 1, Fraction(45), 3,
                                  blocks_per_pair=2)
    rows = rec.partial_sums(engine)
    beta = Fraction(1, 4)
    for s, lhs, rhs, ok in rows:
        assert ok and lhs == s * beta
    assert rec.validate(engine)
    assert all(pc.passed for pc in rec.pair_checks)
    # chain weights follow the coding rule
    etas = [next(iter(registry.records[xi].payload)) for xi in rec.xis]
    assert registry.records[etas[0]].weight_index == 2
    for i in range(1, rec.length):
        assert registry.records[etas[i]].weight_index == \
            4 * registry.sigma(rec.xis[i - 1])


def test_dependent_sequence_validate_names_corruption(forge_arena):
    """A corrupted record raises InvariantViolation, which python -O keeps."""
    registry, engine = forge_arena()
    sources = [CarrierSource(engine, companions=False)]
    rec = make_dependent_sequence(engine, 1, sources, 1, Fraction(45), 2,
                                  blocks_per_pair=2)
    for field, value in (("xis", rec.xis[::-1]),
                         ("xis", [registry.base()] + rec.xis[1:]),
                         ("xs", rec.xs[::-1]),
                         ("xs", [rec.xs[0].scaled(0)] + rec.xs[1:]),
                         ("j0", 2)):
        with pytest.raises(InvariantViolation):
            replace(rec, **{field: value}).validate(engine)


def test_dependent_sequence_eps0(forge_arena):
    registry, engine = forge_arena()
    sources = [CarrierSource(engine, companions=True)]
    rec = make_dependent_sequence(engine, 1, sources, 0, Fraction(45), 2,
                                  blocks_per_pair=2)
    for s, lhs, rhs, ok in rec.partial_sums(engine):
        assert ok and lhs == 0


def test_alternating_report(forge_arena):
    registry, engine = forge_arena()
    sources = [CarrierSource(engine, companions=False)]
    rec = make_dependent_sequence(engine, 1, sources, 1, Fraction(45), 3,
                                  blocks_per_pair=2)
    out = alternating_report(engine, rec, registry.max_rank())
    assert out
    assert all(c.verdict in (VERIFIED, REPORTED, VIOLATED)
               for c in out.values())
    assert not any(c.verdict == VIOLATED for c in out.values())


def test_hi_probe_strict(forge_arena):
    registry, engine = forge_arena(8192)
    Y = CarrierSource(engine, companions=False)
    Z = CarrierSource(engine, companions=False)
    plus, minus, probe = hi_probe(engine, Y, Z, j0=1, length=5)
    assert probe.values["witness"] == Fraction(5, 4)
    assert plus.lower >= Fraction(5, 4)
    assert probe.detail["strict"]
    assert probe.verdict == REPORTED


def test_basic_inequality(forge_arena):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    xs = [source.next_block() for _ in range(4)]
    js = suggested_js(engine, xs)
    cert = check_ris(engine, xs, Fraction(2), js, registry.max_rank())
    gamma, _, _ = lower_estimate_witness(engine, xs, 1)
    lams = [Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(1, 3)]
    k0, gstar, wit = basic_inequality_witness(engine, xs, lams, 0, gamma,
                                              cert)
    assert wit.passed
    assert wit.values["inequality_ok"] and wit.values["tree_ok"]
    if gstar is not None:
        assert wit.values["supp_ok"] and wit.values["weight_ok"]


def test_basic_inequality_requires_certificate(forge_arena):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    xs = [source.next_block() for _ in range(2)]
    js = suggested_js(engine, xs)
    bad = check_ris(engine, xs, Fraction(0), js, registry.max_rank())
    assert not bad.passed  # C = 0 fails condition (1)
    gamma, _, _ = lower_estimate_witness(engine, xs, 1)
    with pytest.raises(NotCertifiedRIS):
        basic_inequality_witness(engine, xs, [1, 1], 0, gamma, bad)


def test_ris_average_report(forge_arena):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    xs = [source.next_block() for _ in range(3)]
    js = suggested_js(engine, xs)
    cert = check_ris(engine, xs, Fraction(2), js, registry.max_rank())
    out = ris_average_report(engine, xs, js[0], cert, [1, 1, 1])
    # one row per weight class in Gamma_N: the carriers' weights
    assert out.keys() == {"ris-h=%d" % j for j in js} | {"ris-norm"}
    # toy scale: rows are reports, never violations
    assert all(c.verdict == REPORTED for c in out.values())


def certified_blocks(forge_arena, n=3):
    registry, engine, source, xs = escalating_blocks(forge_arena, n)
    js = suggested_js(engine, xs)
    return engine, xs, js, check_ris(engine, xs, Fraction(2), js,
                                     registry.max_rank())


def test_basic_inequality_refuses_float_coefficients(forge_arena):
    """lambda_k is read by `funcs.exact`: 0.1 raises ValueError instead
    of entering as its binary expansion."""
    engine, xs, js, cert = certified_blocks(forge_arena)
    gamma, _, _ = lower_estimate_witness(engine, xs, 1)
    with pytest.raises(ValueError, match="exact rational, got 0.1"):
        basic_inequality_witness(engine, xs, [1, 0.1, 1], 0, gamma, cert)


def test_ris_average_refuses_float_coefficients(forge_arena):
    engine, xs, js, cert = certified_blocks(forge_arena)
    with pytest.raises(ValueError, match="exact rational, got 0.1"):
        ris_average_report(engine, xs, js[0], cert, [1, 0.1, 1])


def test_search_exhausted_past_schedule(forge_arena):
    registry, engine = forge_arena(16)
    source = CarrierSource(engine, companions=False)
    with pytest.raises(SearchExhausted):
        for _ in range(20):
            source.next_block()


# -- the basic inequality's branches, pinned ----------------------------------

def nested_tower(forge_arena):
    """gamma of weight index 4 whose two rows carry lower-estimate
    witnesses of weight index 2, each over two skipped carrier blocks."""
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    xs, etas = [], []
    for _ in range(2):
        pair = [source.next_block(), source.next_block()]
        etas.append(lower_estimate_witness(engine, pair, 1)[0])
        xs += pair
    gamma = forge_even(registry, 2, [registry.rank_of(eta) + 1
                                     for eta in etas],
                       [Func.unit(eta) for eta in etas])
    return engine, xs, gamma


def high_tower(forge_arena):
    """gamma of weight index 2 over three carrier blocks whose RIS
    indices all exceed 2, so no block has small weight."""
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    xs = [source.next_block(above=10) for _ in range(3)]
    return engine, xs, lower_estimate_witness(engine, xs, 1)[0]


def over_witness_tower(forge_arena):
    """gamma of weight index 4 with one row, whose payload is the
    weight-2 lower-estimate witness over the three blocks of
    `high_tower`."""
    engine, xs, eta = high_tower(forge_arena)
    registry = engine.registry
    return engine, xs, forge_even(registry, 2, [registry.rank_of(eta) + 1],
                                  [Func.unit(eta)])


def _top(engine, xs, gamma):
    return engine.registry.rank_of(gamma)


def _after_first(engine, xs, gamma):
    return engine.ran(xs[0])[1]


def _at_second(engine, xs, gamma):
    return engine.ran(xs[1])[0]


L4 = [Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(1, 3)]
L3 = [Fraction(2), Fraction(-1, 2), Fraction(1)]
TIED = [Fraction(2), Fraction(-1), Fraction(1)]   # |lam_1| = |lam_2|

# case: (tower, s, lams, j0, k0, tree JSON, Check values JSON)
BASIC_INEQUALITY_BRANCHES = {
    # a row's payload is a weight-2 element: a nested subtree
    "nested-subtree": (
        nested_tower, None, L4, None, 0,
        '{"children":[{"leaf":{"k":2,"sign":1}},{"children":[{"leaf":'
        '{"k":3,"sign":1}}],"j":2}],"j":4}',
        '{"excluded":null,"gamma":10,"inequality_ok":true,"k0":0,'
        '"lhs":"17/210","rhs":"272/21","s":0,"stage":12,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
    # the same payload at the excluded index: the j0 branch, and the
    # hypothesis scans the weight-2 elements
    "excluded-below-gamma": (
        nested_tower, None, L4, 2, 0,
        '{"children":[{"leaf":{"k":2,"sign":1}}],"j":4}',
        '{"excluded":2,"gamma":10,"inequality_ok":true,"k0":0,'
        '"lhs":"17/210","rhs":"90/7","s":0,"stage":12,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
    # gamma itself at the excluded index, blocks below s out of the
    # pool, and the first of two equal |lam_k| taken
    "excluded-at-gamma": (
        high_tower, _at_second, TIED, 2, 1, 'null',
        '{"excluded":2,"gamma":6,"inequality_ok":true,"k0":1,'
        '"lhs":"1/5","rhs":"10/1","s":14,"stage":17,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
    # gamma at or below s: the base case, whatever the coefficients
    "above-gamma": (
        nested_tower, _top, L4[::-1], None, 0, 'null',
        '{"excluded":null,"gamma":10,"inequality_ok":true,"k0":0,'
        '"lhs":"0/1","rhs":"10/3","s":12,"stage":12,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
    # no block of small weight: k0 is the least contributing index
    "no-small-block": (
        high_tower, None, L3, None, 0,
        '{"children":[{"leaf":{"k":1,"sign":1}},{"leaf":{"k":2,"sign":1}}],'
        '"j":2}',
        '{"excluded":null,"gamma":6,"inequality_ok":true,"k0":0,'
        '"lhs":"1/2","rhs":"23/1","s":0,"stage":17,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
    # the projection removes the first block, which then stays out of
    # the pool of the excluded index one level down
    "projected-away-below-gamma": (
        over_witness_tower, _after_first, L3, 2, 2, 'null',
        '{"excluded":2,"gamma":7,"inequality_ok":true,"k0":2,'
        '"lhs":"1/70","rhs":"10/1","s":12,"stage":18,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
    # the projection removes the first block
    "projected-away": (
        high_tower, _after_first, L3, None, 1,
        '{"children":[{"leaf":{"k":2,"sign":1}}],"j":2}',
        '{"excluded":null,"gamma":6,"inequality_ok":true,"k0":1,'
        '"lhs":"1/10","rhs":"7/1","s":12,"stage":17,"supp_ok":true,'
        '"tree_ok":true,"weight_ok":true}'),
}


@pytest.mark.parametrize("case", sorted(BASIC_INEQUALITY_BRANCHES))
def test_basic_inequality_branches_are_pinned(forge_arena, case):
    """Each case reaches a branch of the recursion that the suites never
    run; k0, the tree and the Check values are pinned."""
    tower, at, lams, j0, k0, tree, values = BASIC_INEQUALITY_BRANCHES[case]
    engine, xs, gamma = tower(forge_arena)
    s = at(engine, xs, gamma) if at else 0
    cert = check_ris(engine, xs, Fraction(2), suggested_js(engine, xs),
                     engine.registry.max_rank())
    got = basic_inequality_witness(engine, xs, lams, s, gamma, cert, j0)
    assert got[0] == k0
    assert canonical_json(got[1]).decode() == tree
    assert canonical_json(got[2].values).decode() == values
    assert got[2].passed

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
from bdspace.certificates import REPORTED, VERIFIED, VIOLATED
from bdspace.errors import (CutTooSmall, InvariantViolation, NotBlockSequence,
                            NotCertifiedRIS, NotSkippedBlock, SearchExhausted)
from bdspace.funcs import Func
from bdspace.norms import sup_norm_interval
from bdspace.spaces import forge_even


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
    gamma, report = lower_estimate_witness(engine, xs, 1)
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
    _, report = lower_estimate_witness(engine, xs, 1)
    maxima = report.values["maxima"]
    assert [sup_norm_interval(engine, x, p - 1).lower
            for x, p in zip(xs, report.values["cuts"])] == maxima
    assert len(set(maxima)) == 3
    assert report.detail["half_sum"] == report.values["rhs"] / 2


def test_lower_estimate_needs_skipping(forge_arena):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    x1 = source.next_block()
    # forge an adjacent block with no skipped rank in between
    nxt = forge_even(registry, registry.max_rank() // 2,
                     [registry.max_rank() + 1],
                     [Func.unit(registry.base())])
    x2 = engine.point_from_d({nxt: Fraction(1)})
    with pytest.raises(NotSkippedBlock):
        lower_estimate_witness(engine, [x1, x2], 1)


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
    gamma, _ = lower_estimate_witness(engine, xs, 1)
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
    gamma, _ = lower_estimate_witness(engine, xs, 1)
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
    gamma, _ = lower_estimate_witness(engine, xs, 1)
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

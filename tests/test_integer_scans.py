"""The integer magnitude scans against the Fraction scans they replace.

`sup_norm_interval`, the window maxima of the lower estimate, the RIS
conditions, the clauses 2 and 3 of an exact pair and the per-class
maxima of an RIS average compare integer numerators over a point's one
denominator (`Engine.numerators`), and so does the window annihilator
of an eps = 0 exact pair.  The references here scan `fraction_listing`,
the Fraction listing in the canonical (rank, id) order, and keep the
first maximum, as the scans did before.  Towers are seeded and forged
out of rank order; blocks mix companions and carriers with ties of
equal magnitude and negative maxima."""

import random
from fractions import Fraction

import pytest

from bdspace.analysis import (CarrierSource, _window_annihilator,
                              check_ris, lower_estimate_witness,
                              make_exact_pair, ris_average_report,
                              suggested_js)
from bdspace.cli import forge_arena
from bdspace.engine import Engine
from bdspace.errors import AnnihilatorMissing
from bdspace.funcs import Func
from bdspace.norms import sup_norm_interval
from bdspace.schedule import slow_toy_schedule
from bdspace.spaces import forge_even
from dense_oracle import fraction_listing


def fraction_sup_norm(engine, x, n):
    """(lower, upper, witness) from a Fraction scan of the listing."""
    rng = engine.ran(x)
    if rng is None:
        return Fraction(0), Fraction(0), None
    q = rng[1]
    lower, witness, local = Fraction(0), None, Fraction(0)
    for gid, v in fraction_listing(engine, x, n):
        v = abs(v)
        if v > lower:
            lower, witness = v, gid
        if engine.registry.rank_of(gid) <= q and v > local:
            local = v
    return lower, max(engine.registry.schedule.M * local, lower), witness


def fraction_bound_scan(engine, x, n, bound_of):
    """(max |x|, [[gid, i, |x(gid)|, bound]]) over the listing, for the
    elements whose weight index i has a bound that |x(gid)| exceeds."""
    peak, over = Fraction(0), []
    for gid, v in fraction_listing(engine, x, n):
        v = abs(v)
        peak = max(peak, v)
        i = engine.registry.records[gid].weight_index
        bound = None if i is None else bound_of(i)
        if bound is not None and v > bound:
            over.append([gid, i, v, bound])
    return peak, over


def fraction_window_peaks(engine, xs):
    """[(eta, signed value)] of each block's first largest |value| on
    its window (p_{r-1}, p_r - 1], p_r = max ran x_r + 1."""
    out, prev = [], 0
    for x in xs:
        top = engine.ran(x)[1]
        best, eta = None, None
        for gid, v in fraction_listing(engine, x, top):
            if engine.registry.rank_of(gid) > prev and (
                    best is None or abs(v) > abs(best)):
                best, eta = v, gid
        out.append((eta, best))
        prev = top + 1
    return out


def seeded_tower(seed, elements=16):
    """A forging arena grown by random even elements at random ranks, so
    ids are not in rank order."""
    rng = random.Random(seed)
    registry = forge_arena(slow_toy_schedule(64))
    for _ in range(elements):
        rank = rng.randint(2, max(registry.max_rank(), 2) + 2)
        window = registry.gammas_up_to(rank - 1)
        k = min(len(window), rng.randint(1, 3))
        payload = Func({g: Fraction(rng.choice([-1, 1]), k + rng.randint(0, 2))
                        for g in rng.sample(window, k)})
        top = forge_even(registry, rng.randint(1, rank // 2), [rank],
                         [payload])
        above = [g for g in registry.gammas_up_to(registry.max_rank())
                 if registry.rank_of(g) > rank]
        if above and rng.random() < 0.5:
            # a second link, whose value adds its predecessor's: values
            # above ran x can outgrow those within it
            registry.intern(registry.max_rank() + 1,
                            registry.records[top].weight_index,
                            Func.unit(rng.choice(above)), top)
    return rng, registry, Engine(registry)


def mixed_blocks(engine, patterns):
    """One skipped block per (a, b): a times the companion plus b times
    the carrier, whose values are a and b; the companion is forged just
    before the carrier, one rank below it."""
    source = CarrierSource(engine, companions=True)
    xs = []
    for a, b in patterns:
        (carrier,) = source.next_block().d_coords
        companion = len(engine.registry) - 2
        assert engine.registry.rank_of(companion) == \
            engine.registry.rank_of(carrier) - 1
        xs.append(engine.point_from_d({companion: Fraction(a),
                                       carrier: Fraction(b)}))
    return xs


# ties, a negative maximum, a zero companion, a positive maximum
PATTERNS = [(-1, 1), (1, -2), (Fraction(3, 2), Fraction(-3, 2)), (0, 5),
            (Fraction(-7, 3), 2), (2, 2)]


@pytest.mark.parametrize("seed", range(25))
def test_sup_norm_matches_the_fraction_scan(seed):
    rng, registry, engine = seeded_tower(seed)
    ids = registry.gammas_up_to(registry.max_rank())
    for _ in range(4):
        support = rng.sample(ids, min(len(ids), rng.randint(1, 4)))
        # repeated magnitudes, so that ties occur
        x = engine.point_from_d({g: Fraction(rng.choice([-2, -1, 1, 2]))
                                 for g in support})
        q = max(registry.rank_of(g) for g in support)
        for n in sorted({q, rng.randint(q, registry.max_rank()),
                         registry.max_rank()}):
            ni = sup_norm_interval(engine, x, n)
            assert (ni.lower, ni.upper, ni.witness) == \
                fraction_sup_norm(engine, x, n)


def test_a_tie_goes_to_the_lower_rank_and_a_negative_maximum_counts():
    """b is forged after a but one rank below it: |x(a)| = |x(b)| picks
    b, the first in (rank, id) order, though its id is larger; with
    x(b) = -2 the maximum is negative and b is still the witness."""
    registry = forge_arena(slow_toy_schedule(64))
    engine = Engine(registry)
    base = Func.unit(registry.base())
    a = forge_even(registry, 1, [6], [base])
    b = forge_even(registry, 1, [4], [base])
    assert b > a
    for cb, lower in ((-1, 1), (-2, 2)):
        x = engine.point_from_d({a: Fraction(1), b: Fraction(cb)})
        den, nums = engine.numerators(x, 6)
        assert engine.first_peak(nums) == b
        ni = sup_norm_interval(engine, x, 6)
        assert (ni.lower, ni.witness) == (lower, b)
        assert (ni.lower, ni.upper, ni.witness) == \
            fraction_sup_norm(engine, x, 6)
    assert engine.first_peak({}) is None


def test_lower_estimate_etas_and_signs_match_the_fraction_scan(forge_arena):
    registry, engine = forge_arena()
    xs = mixed_blocks(engine, PATTERNS)
    peaks = fraction_window_peaks(engine, xs)
    gamma, check, _ = lower_estimate_witness(engine, xs, 1)
    assert check.passed
    assert check.values["etas"] == [eta for eta, _ in peaks]
    assert check.values["maxima"] == [abs(v) for _, v in peaks]
    signs = [link.payload[eta] for link, (eta, _) in
             zip(registry.chain(gamma), peaks)]
    assert signs == [-1 if v < 0 else 1 for _, v in peaks]
    # the tie of the first block went to the companion, which is negative
    assert signs[0] == -1 and peaks[0][0] == min(xs[0].d_coords)


@pytest.mark.parametrize("eps", [0, 1])
def test_exact_pair_clauses_match_the_fraction_scan(forge_arena, eps):
    """A small C makes clause 3 fail at many elements, so the listing of
    violations, in (rank, id) order, is compared entry by entry."""
    registry, engine = forge_arena()
    xs = mixed_blocks(engine, PATTERNS)
    C = Fraction(1, 500)
    theta, x, gamma, check = make_exact_pair(engine, xs, 1, eps, C)
    values = check.values
    beta = registry.schedule.weight_value(2)
    K = values["pair_constant"]
    peak, over = fraction_bound_scan(
        engine, x, values["stage"],
        lambda i: None if i == 2 else K * (
            registry.schedule.weight_value(i) if i < 2 else beta))
    assert over and values["clause3_violations"] == over
    assert values["clause2_norm"] == [peak, K]


def test_ris_conditions_match_the_fraction_scan(forge_arena):
    registry, engine = forge_arena()
    xs = mixed_blocks(engine, PATTERNS)
    N = registry.max_rank()
    js = [engine.ran(x)[1] + 1 for x in xs]
    C = Fraction(1, 50)
    check = check_ris(engine, xs, C, js, N)
    lowers, violations = [], []
    for k, x in enumerate(xs):
        peak, over = fraction_bound_scan(
            engine, x, N,
            lambda i: C * registry.schedule.weight_value(i)
            if i < js[k] else None)
        lowers.append([peak, peak <= C])
        violations += [[k, gid, v, bound] for gid, _, v, bound in over]
    assert violations and check.values["cond3_violations"] == violations
    assert check.values["cond1"] == lowers


def test_a_value_equal_to_its_bound_is_no_violation(forge_arena):
    """With C = 5 the bound at the companions' weight index 2 is
    5 / m_2 = 1: a companion value of magnitude 1 is no violation, and
    one of 3/2 or 2 is."""
    registry, engine = forge_arena()
    xs = mixed_blocks(engine, PATTERNS)
    N = registry.max_rank()
    js = [engine.ran(x)[1] + 1 for x in xs]
    check = check_ris(engine, xs, Fraction(5), js, N)
    flagged = {(k, abs(v)) for k, gid, v, _ in
               check.values["cond3_violations"]
               if registry.records[gid].weight_index == 2}
    assert (0, 1) not in flagged and (1, 1) not in flagged
    assert {(2, Fraction(3, 2)), (4, Fraction(7, 3)), (5, 2)} <= flagged


def test_ris_average_classes_match_the_fraction_scan(forge_arena):
    registry, engine = forge_arena()
    source = CarrierSource(engine, companions=False)
    xs = [source.next_block() for _ in range(4)]
    cert = check_ris(engine, xs, Fraction(2), suggested_js(engine, xs),
                     registry.max_rank())
    lams = [1, -2, Fraction(1, 2), -1]
    checks = ris_average_report(engine, xs, 2, cert, lams)
    avg = engine.point_from_d(
        {g: Fraction(lam, len(xs)) * v for x, lam in zip(xs, lams)
         for g, v in x.d_coords.items()})
    N = registry.frontier()
    best = {}
    for gid, v in fraction_listing(engine, avg, N):
        h = registry.records[gid].weight_index
        if h is not None and (h not in best or abs(v) > best[h][0]):
            best[h] = (abs(v), gid)
    assert best
    for h, (v, gid) in best.items():
        got = checks["ris-h=%d" % h]
        assert (got.values["measured"], got.detail["witness"]) == (v, gid)
    peak, _ = fraction_bound_scan(engine, avg, N, lambda i: None)
    assert checks["ris-norm"].values["measured"] == peak


def fraction_annihilator(engine, x, lo, hi):
    """The window annihilator from a Fraction scan of the listing: e*_gid
    at the first element of (lo, hi] where x vanishes, else
    (v2 e*_g1 - v1 e*_g2) / (|v1| + |v2|) at the first two; None when the
    window has neither."""
    values = dict(fraction_listing(engine, x, hi))
    window = engine.registry.window(lo, hi)
    for k, gid in enumerate(window):
        if gid not in values:
            return Func.unit(gid)
        if k == 1:
            v1, v2 = values[window[0]], values[gid]
            scale = abs(v1) + abs(v2)
            return Func({window[0]: v2 / scale, gid: -v1 / scale})
    return None


def annihilator_kind(engine, x, lo, hi):
    """The functional of `_window_annihilator`, checked against the
    Fraction scan and for <b, x> = 0 and ||b||_1 = 1, and which case
    made it: "unit", the signs (v1 > 0, v2 > 0) of a pair, or
    "missing"."""
    expected = fraction_annihilator(engine, x, lo, hi)
    if expected is None:
        with pytest.raises(AnnihilatorMissing):
            _window_annihilator(engine, x, lo, hi)
        return "missing"
    b = _window_annihilator(engine, x, lo, hi)
    assert b == expected and list(b) == list(expected)
    assert engine.pair(b, x) == 0 and b.l1() == 1
    if len(b) == 1:
        return "unit"
    g1, g2 = b
    return (b[g2] < 0, b[g1] > 0)   # b = (v2, -v1) / scale


def test_window_annihilator_matches_the_fraction_scan():
    """Random points over random windows of seeded towers: unit windows,
    pairs of every sign order and windows with no annihilator all
    occur."""
    kinds = set()
    for seed in range(20):
        rng, registry, engine = seeded_tower(seed)
        top = registry.max_rank()
        ids = registry.gammas_up_to(top)
        for _ in range(6):
            x = engine.point_from_d(
                {g: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
                 for g in rng.sample(ids, min(len(ids), rng.randint(1, 3)))})
            lo = rng.randint(0, top - 1)
            kinds.add(annihilator_kind(engine, x, lo,
                                       rng.randint(lo + 1, top)))
    assert kinds == {"unit", "missing"} | {
        (a, b) for a in (True, False) for b in (True, False)}


@pytest.mark.parametrize("seed", range(4))
def test_eps0_pair_rows_are_the_fraction_annihilators(seed):
    """An eps = 0 exact pair over mixed blocks above a seeded tower: the
    payload of each analysis row of gamma is the annihilator the
    Fraction scan finds on the block's window."""
    _, registry, engine = seeded_tower(seed, elements=8)
    xs = mixed_blocks(engine, PATTERNS)
    cuts = [engine.ran(x)[1] + 1 for x in xs]
    lows = [0] + cuts[:-1]
    kinds = [annihilator_kind(engine, x, lo, cut - 1)
             for x, lo, cut in zip(xs, lows, cuts)]
    expected = [fraction_annihilator(engine, x, lo, cut - 1)
                for x, lo, cut in zip(xs, lows, cuts)]
    _, _, gamma, check = make_exact_pair(engine, xs, 1, 0, Fraction(1))
    assert check.values["value_at_gamma"] == 0
    assert [link.payload for link in registry.chain(gamma)] == expected
    # the first window holds the tower, where x vanishes, and (0, 5)
    # vanishes at its companion; the other blocks give their signs
    assert kinds == ["unit", (True, False), (True, False), "unit",
                     (False, True), (True, True)]

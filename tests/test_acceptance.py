"""Acceptance gate: the eleven exact-arithmetic criteria.

All tolerances are zero (exact rational equality) unless a criterion is
explicitly stage-truncated, in which case the direction of the truncated
comparison is fixed and stated inline.
"""

import hashlib
import random
import time
from fractions import Fraction

from bdspace.analysis import (CarrierSource, lower_estimate_witness,
                              make_dependent_sequence)
from bdspace.certificates import Ledger
from bdspace.cli import (SUITES, forge_arena, run_hi_probes, suite_basicineq,
                         suite_biorthogonality, suite_depseq,
                         suite_eval_analysis, suite_lowerest,
                         suite_mt_oracle, suite_projections, suite_treelike)
from bdspace.engine import Engine
from bdspace.mtnorm import (MTParams, mt_norm, mt_norm_exhaustive,
                            verify_norming_tree)
from bdspace.registry import Registry, WAIVE, XK
from bdspace.schedule import slow_toy_schedule, validate_schedule
from bdspace.spaces import SignedUnits, generate_up_to


# sha256 of each suite's ledger bytes at its defaults (seed 7), and of
# the 10-case HI-probe ledger; a refactor must leave these unchanged
GOLDEN_LEDGERS = {
    "biorthogonality":
        "de4ebbceeefb4adc6172a0d6de4feea77d9455d339a7374e5c0687359a76935f",
    "eval-analysis":
        "4c76d588542ce68f614ade77298755655e7de6fb57a63af93f4c400d3cdcf6e8",
    "projections":
        "e99455ebe41442c64bb9a1338f919e14f9b0c0bd9621c7c2b8390f26f7a6c161",
    "treelike":
        "d0ceb6f56f7b60b2529113f244f3dd165eedbb8a1a713f640ab6657098c23a73",
    "mt-oracle":
        "c3ef3f40b80fe38fed87a0bdc8cb2a329913079351aecfc5aabc6586b26b500b",
    "lowerest":
        "24a17583a272e077adff94b952fce357284d33bb3deb2e1aedca342ddb35c8a7",
    "basicineq":
        "f94b495e399c593a22c78a61e0dd344b702c7291102be29f3d83a7e01f927c23",
    "depseq":
        "3730571d9b973fc8df8fdc8b55ed86f4bdbab53b7ff147b0f24b3673fc6308c8",
    "averages":
        "95908e1671c3201afdfee838dacd599aeed15892a353606bcbf2803d995ec5ec",
}
GOLDEN_HIPROBE = \
    "4754457146a909686dcd6af3e08a2d4a27ceb45a2a1fe5f16f2a11ef5a1c7752"


def ledger_digest(ledger):
    """sha256 of the bytes the ledger writes to its JSON-lines file."""
    return hashlib.sha256(b"".join(c.to_bytes() + b"\n"
                                   for c in ledger.certificates)).hexdigest()


def timed(budget):
    start = time.monotonic()
    return lambda: time.monotonic() - start < budget


def all_verified(ledger):
    return all(c.verdict in ("verified", "reported")
               for c in ledger.certificates) and not ledger.violated


def test_01_biorthogonality_stage6():
    """Stage-6 toy registry: <d*_xi, d_gamma> = delta for all pairs."""
    within = timed(60)
    registry = Registry(validate_schedule((4, 16), (6, 1)), discipline=XK,
                        odd_guard=WAIVE, stage_cap=20000)
    generate_up_to(registry, 6, SignedUnits())
    engine = Engine(registry)
    sm = engine.stage_matrix(6)
    assert len(sm.ids) == 571
    assert sm.biorthogonality_defects() == []
    assert within()


def test_02_evaluation_analysis_identity(stage6):
    """Both reconstruction variants reproduce e*_gamma exactly for 100%
    of non-Base elements at stage 6."""
    within = timed(60)
    registry, engine = stage6
    checked = 0
    for gid in registry.gammas_up_to(6):
        if registry.records[gid].rank == 1:
            continue
        lhs, window, tail = engine.analysis_identity_sides(gid)
        assert lhs == window == tail
        checked += 1
    assert checked == 570
    assert within()


def test_03_projection_bounds(stage6):
    """Exact operator bounds at stage 6: prefix columns <= 2, interval
    rows <= 4, tail rows <= 3, dual-basis ell_1 <= 3; zero violations."""
    registry, engine = stage6
    assert engine.basis_constant(6) <= 2
    interval_sums, tail_sums = engine.fdd_row_norms(6)
    assert max(interval_sums.values()) <= 4
    assert max(tail_sums.values()) <= 3
    assert all(engine.d_star(g).l1() <= 3 for g in registry.gammas_up_to(6))


def test_04_mt_dp_vs_oracle_200():
    """200 seeded random instances: DP equals the successive-subset
    brute force exactly and every returned tree verifies."""
    within = timed(120)
    ledger = suite_mt_oracle(Ledger(), cases=200, seed=7)
    (cert,) = ledger.certificates
    assert cert.values["cases"] == 200
    assert cert.values["failures"] == 0
    assert cert.verdict == "verified"
    assert within()


def test_05_mt_average_value():
    """Admissible prefix m = (4, 16), n_1 = 128: the unit average norms
    to exactly 1/4; the excluded-index variant stays at or below 1/16."""
    within = timed(300)
    n2 = 16 ** 2 * (4 * 128) ** 4
    sched = validate_schedule((4, 16), (128, n2))
    assert sched.mode == "admissible"
    params = MTParams.from_schedule(sched, factor=4)
    x = {k: Fraction(1, 128) for k in range(1, 129)}
    value, tree = mt_norm(x, params)
    assert value == Fraction(1, 4)
    ok, why = verify_norming_tree(tree, params)
    assert ok, why
    v_ex, _ = mt_norm(x, MTParams(pairs=params.pairs, excluded=1))
    assert v_ex <= Fraction(1, 16)
    assert within()


def test_06_lower_estimate_50():
    """50 seeded skipped-block sequences: the witness identity holds
    exactly, 50/50."""
    ledger = suite_lowerest(Ledger(), cases=50, seed=7)
    (cert,) = ledger.certificates
    assert cert.values == {"cases": 50, "failures": 0}
    assert cert.verdict == "verified"


def test_07_treelike():
    """Exhaustive same-odd-weight pairs in a generated prefix plus 20
    forged tower pairs: unique branching index, 100%."""
    ledger = suite_treelike(Ledger(), forged_pairs=20, seed=7)
    assert all_verified(ledger)
    by_id = {c.claim_id: c for c in ledger.certificates}
    assert by_id["treelike-exhaustive"].values["failures"] == 0
    assert by_id["treelike-exhaustive"].values["pairs"] > 0
    forged = by_id["treelike-forged"]
    assert forged.values["failures"] == 0
    assert forged.values["pairs"] >= 20


def test_08_dependent_sequences():
    """10 toy eps = 1 dependent sequences of lengths 2-5: the prefix
    identity sum_{i<=s} x_i(xi_s) = s*m^{-1} holds at every s; eps = 0
    variants vanish at every link."""
    sched = slow_toy_schedule(2048)
    beta = Fraction(1, 4)
    for case in range(10):
        length = 2 + case % 4
        registry = forge_arena(sched)
        engine = Engine(registry)
        src = CarrierSource(engine, companions=False)
        rec = make_dependent_sequence(engine, 1, [src], 1, Fraction(45),
                                     length, blocks_per_pair=2)
        for s, lhs, rhs, ok in rec.partial_sums(engine):
            assert ok and lhs == s * beta
    for length in (2, 3):
        registry = forge_arena(sched)
        engine = Engine(registry)
        src = CarrierSource(engine, companions=True)
        rec = make_dependent_sequence(engine, 1, [src], 0, Fraction(45),
                                     length, blocks_per_pair=2)
        for s, lhs, rhs, ok in rec.partial_sums(engine):
            assert ok and lhs == 0


def test_09_hi_probe_direction():
    """10 seeded probes: the stage-truncated difference norm falls
    strictly below the exact sum witness in at least 9 of 10."""
    ledger = run_hi_probes(Ledger(), cases=10, length=5, seed=7)
    *probes, summary = ledger.certificates
    assert sum(1 for c in probes if c.detail["strict"]) >= 9
    assert summary.claim_id == "hiprobe-direction"
    assert summary.verdict == "verified"
    assert ledger_digest(ledger) == GOLDEN_HIPROBE


def test_10_basic_inequality_20():
    """20 seeded RIS/gamma instances: tree membership and the exact
    two-sided inequality, 20/20 (including excluded-index variants)."""
    ledger = suite_basicineq(Ledger(), cases=20, seed=7)
    (cert,) = ledger.certificates
    assert cert.values == {"cases": 20, "failures": 0}
    assert cert.verdict == "verified"


def test_11_determinism():
    """Identical manifest and seed reproduce byte-identical certificates
    across suites, and every suite's default ledger matches its golden
    digest."""
    for suite in (suite_biorthogonality, suite_eval_analysis,
                  suite_projections, suite_depseq):
        a = suite(Ledger(), seed=7)
        b = suite(Ledger(), seed=7)
        assert [c.to_bytes() for c in a.certificates] == \
            [c.to_bytes() for c in b.certificates]
    for name, suite in SUITES.items():
        assert ledger_digest(suite(Ledger())) == GOLDEN_LEDGERS[name], name
    # a different seed changes the digest of seeded suites
    x = suite_mt_oracle(Ledger(), cases=5, seed=1)
    y = suite_mt_oracle(Ledger(), cases=5, seed=2)
    assert x.certificates[0].inputs_digest != y.certificates[0].inputs_digest


def test_random_module_untouched():
    """Suites seed their own generators and leave global state alone."""
    random.seed(12345)
    before = random.random()
    random.seed(12345)
    suite_lowerest(Ledger(), cases=2, seed=7)
    assert random.random() == before

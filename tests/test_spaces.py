"""Stage generation, net policies, forging, and the tree-like check."""

from fractions import Fraction
from itertools import product

import pytest

from bdspace.errors import (AgeOverflow, BDSpaceError, CutTooSmall,
                            InputError, StageOverflow, WeightMismatch)
from bdspace.funcs import Func
from bdspace.registry import Registry, WAIVE, XK, BMT
from bdspace.schedule import slow_toy_schedule, validate_schedule
from bdspace.spaces import (PaperFactorial, SignedUnits, check_treelike,
                            forge_even, forge_odd_chain, generate_stage,
                            generate_up_to)


def test_stage_counts(stage6):
    registry, _ = stage6
    assert [len(registry.window(q - 1, q)) for q in range(1, 7)] == \
        [1, 2, 8, 30, 112, 418]
    assert registry.count_up_to(6) == 571


def test_stages_must_be_generated_in_order():
    reg = Registry(validate_schedule((4, 16), (6, 1)), discipline=XK)
    with pytest.raises(StageOverflow):
        generate_stage(reg, 2, SignedUnits())


def test_bmt_discipline_admits_every_weight():
    reg = Registry(validate_schedule((4, 16), (2, 2)), discipline=BMT,
                   stage_cap=20000)
    generate_up_to(reg, 3, SignedUnits())
    weights = {reg.records[g].weight_index for g in reg.gammas_up_to(3)}
    assert weights == {None, 1, 2}


def test_signed_units_net(stage6):
    registry, _ = stage6
    elems = SignedUnits().elements(registry, 3, 1)
    window = [g for g in registry.gammas_up_to(3)
              if registry.rank_of(g) > 1]
    assert len(elems) == 2 * len(window)
    assert all(e.l1() == 1 for e in elems)


def test_signed_units_compare_no_fraction(stage6, monkeypatch):
    """Each +-e*_eta of the net stores its one entry as it is."""
    registry, _ = stage6

    def refuse(*args):
        raise AssertionError("a Fraction was compared")

    monkeypatch.setattr(Fraction, "__eq__", refuse)
    assert len(SignedUnits().elements(registry, 6, 0)) == 2 * 571


def test_paper_factorial_net_lattice(stage6):
    """Independent enumeration of the n = 2 factorial net: all vectors
    with denominator dividing 2 and ell_1 norm at most 1."""
    registry, _ = stage6
    got = {frozenset(e.items())
           for e in PaperFactorial().elements(registry, 2, 1)}
    window = [g for g in registry.gammas_up_to(2)
              if registry.rank_of(g) > 1]
    expected = set()
    for coeffs in product([-2, -1, 0, 1, 2], repeat=len(window)):
        if 0 < sum(abs(c) for c in coeffs) <= 2:
            expected.add(frozenset(
                (g, Fraction(c, 2)) for g, c in zip(window, coeffs) if c))
    assert got == expected


def test_forge_even_validation(forge_arena):
    registry, _ = forge_arena()
    pay = Func.unit(registry.base())
    with pytest.raises(CutTooSmall):
        forge_even(registry, 2, [3], [pay])
    with pytest.raises(InputError):
        forge_even(registry, 1, [5, 4], [pay, pay])
    gid = forge_even(registry, 1, [5], [pay])
    assert registry.records[gid].weight_index == 2


def test_bad_chain_interns_nothing(forge_arena):
    """The forge loop checks the count, the order, the first cut and the
    length of a chain before its first intern."""
    registry, _ = forge_arena()
    pay = Func.unit(registry.base())
    eta = forge_even(registry, 1, [4], [pay])
    size = len(registry)
    for forge, error in (
            (lambda: forge_odd_chain(registry, 1, []), InputError),
            (lambda: forge_odd_chain(registry, 1, [(6, eta), (5, eta)]),
             InputError),
            (lambda: forge_even(registry, 1, [6, 7], [pay]), InputError),
            (lambda: forge_even(registry, 1, [], []), InputError),
            (lambda: forge_even(registry, 2, [3], [pay]), CutTooSmall),
            # n_2 = 10 for the slow schedule
            (lambda: forge_even(registry, 1, range(5, 16), [pay] * 11),
             AgeOverflow)):
        with pytest.raises(error):
            forge()
        assert len(registry) == size


def test_forge_even_age_cap(forge_arena):
    registry, _ = forge_arena()
    base_pay = Func.unit(registry.base())
    # n_2 = 10 for the slow schedule; an 11-row chain must overflow.
    # Rows r >= 2 need payloads inside their windows, so forge a weight-2
    # carrier one rank below each later cut first.
    cuts = [4 + 2 * i for i in range(11)]
    pays = [base_pay]
    for c in cuts[1:]:
        carrier = forge_even(registry, 1, [c - 1], [base_pay.copy()])
        pays.append(Func.unit(carrier))
    with pytest.raises(AgeOverflow):
        forge_even(registry, 1, cuts, pays)


def test_forge_odd_chain_and_treelike(forge_arena):
    registry, _ = forge_arena()
    unit = lambda: Func.unit(registry.base())
    # two weight-2 targets for the chain heads
    eta1 = forge_even(registry, 1, [4], [unit()])
    eta1b = forge_even(registry, 1, [5], [unit()])
    a1 = forge_odd_chain(registry, 1, [(6, eta1)])
    b1 = forge_odd_chain(registry, 1, [(7, eta1b)])
    # independent length-1 chains branch at the root
    assert check_treelike(registry, a1, b1) == 1
    # extend a1 twice with distinct coded targets: branch index 2
    coded = 4 * registry.sigma(a1)
    eta2 = forge_even(registry, coded // 2, [max(coded, 8)], [unit()])
    eta2b = forge_even(registry, coded // 2, [max(coded, 8) + 1], [unit()])
    a2 = registry.intern(rank=registry.rank_of(eta2b) + 1,
                         weight_index=1, predecessor=a1,
                         payload=Func.unit(eta2))
    a2b = registry.intern(rank=registry.rank_of(eta2b) + 2,
                          weight_index=1, predecessor=a1,
                          payload=Func.unit(eta2b))
    assert check_treelike(registry, a2, a2b) == 2
    assert check_treelike(registry, a2, b1) == 1
    with pytest.raises(WeightMismatch):
        check_treelike(registry, a2, eta1)


def test_treelike_exhaustive(rich5):
    registry, _ = rich5
    by_weight = {}
    for gid in registry.gammas_up_to(5):
        rec = registry.records[gid]
        if rec.is_odd_weight():
            by_weight.setdefault(rec.weight_index, []).append(gid)
    assert by_weight, "registry should contain odd-weight elements"
    pairs = 0
    for group in by_weight.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert check_treelike(registry, group[i], group[j]) >= 1
                pairs += 1
    assert pairs > 0


def test_generation_is_deterministic():
    def build():
        reg = Registry(validate_schedule((4, 16), (6, 1)), discipline=XK,
                       odd_guard=WAIVE, stage_cap=20000)
        generate_up_to(reg, 5, SignedUnits())
        return reg.export_stage_table(5)

    assert list(build()) == list(build())

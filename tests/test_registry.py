"""Interning, structural validation, and the sigma-coding."""

from dataclasses import replace
from fractions import Fraction

import pytest

from bdspace.errors import (AgeOverflow, InvariantViolation,
                            OddWeightRuleViolation, ScheduleViolation,
                            StageOverflow, SupportOutOfWindow, UnknownGamma,
                            WeightMismatch)
from bdspace.funcs import Func
from bdspace.registry import BASE, Registry, TYPE1, TYPE2, WAIVE, XK
from bdspace.schedule import slow_toy_schedule, validate_schedule


def fresh(schedule=None):
    reg = Registry(schedule or slow_toy_schedule(64), discipline=XK,
                   odd_guard=WAIVE)
    reg.base()
    return reg


def unit_payload(reg):
    return Func.unit(reg.base())


def test_base_is_unique():
    reg = fresh()
    assert reg.base() == reg.base() == 0
    assert reg.records[0].rank == 1


def test_intern_idempotent():
    reg = fresh()
    a = reg.intern(rank=4, weight_index=2,
                   payload=unit_payload(reg))
    b = reg.intern(rank=4, weight_index=2,
                   payload=unit_payload(reg))
    assert a == b
    assert len(reg) == 2


def test_chain_age_and_cut():
    reg = fresh()
    head = reg.intern(rank=4, weight_index=2,
                      payload=unit_payload(reg))
    mid = reg.intern(rank=5, weight_index=4,
                     payload=unit_payload(reg))
    link = reg.intern(rank=7, weight_index=2, predecessor=head,
                      payload=Func.unit(mid))
    rec = reg.records[link]
    assert rec.age == 2 and rec.cut == 4


def test_predecessor_makes_a_type2_link():
    """With no predecessor intern makes a Type1 head; with one, the Type2
    link whose cut is the predecessor's rank and whose age is one more."""
    reg = fresh()
    head = reg.intern(4, 2, unit_payload(reg))
    mid = reg.intern(5, 4, unit_payload(reg))
    link = reg.intern(7, 2, Func.unit(mid), head)
    top = reg.intern(9, 2, Func.unit(reg.intern(8, 4, unit_payload(reg))),
                     link)
    rows = [(r.kind, r.cut, r.age, r.predecessor)
            for r in (reg.records[g] for g in (head, link, top))]
    assert rows == [(TYPE1, 0, 1, None), (TYPE2, 4, 2, head),
                    (TYPE2, 7, 3, link)]
    assert reg.intern(7, 2, Func.unit(mid), head) == link  # idempotent


def test_chain_runs_from_the_head():
    reg = fresh()
    head = reg.intern(4, 2, unit_payload(reg))
    mid = reg.intern(5, 4, unit_payload(reg))
    link = reg.intern(7, 2, Func.unit(mid), head)
    assert [r.id for r in reg.chain(link)] == [head, link]
    assert [r.id for r in reg.chain(head)] == [head]
    (base,) = reg.chain(reg.base())  # Base is a chain of one
    assert base.kind == BASE
    with pytest.raises(UnknownGamma):
        reg.chain(99)


def test_validation_errors():
    reg = fresh()
    pay = unit_payload(reg)
    with pytest.raises(ScheduleViolation):
        reg.intern(rank=2, weight_index=5, payload=pay)  # w > rank
    with pytest.raises(SupportOutOfWindow):
        reg.intern(rank=4, weight_index=2,
                   payload=Func.unit(reg.base(), Fraction(3, 2)))
    head = reg.intern(rank=4, weight_index=2, payload=pay)
    with pytest.raises(SupportOutOfWindow):
        # payload below the cut of the extension
        reg.intern(rank=7, weight_index=2, predecessor=head,
                   payload=Func.unit(reg.base()))
    with pytest.raises(WeightMismatch):
        reg.intern(rank=7, weight_index=3, predecessor=head,
                   payload=Func.unit(head))
    with pytest.raises(UnknownGamma):
        reg.intern(rank=4, weight_index=2,
                   payload=Func.unit(99))


def test_age_cap():
    reg = fresh(validate_schedule((4, 16), (6, 1)))  # n_2 = 1
    head = reg.intern(rank=4, weight_index=2,
                      payload=unit_payload(reg))
    with pytest.raises(AgeOverflow):
        reg.intern(rank=7, weight_index=2, predecessor=head,
                   payload=Func.unit(head))


def test_forging_below_generated_prefix_is_refused():
    reg = fresh()
    reg.generated_stage = 10
    with pytest.raises(StageOverflow):
        reg.intern(rank=5, weight_index=2,
                   payload=unit_payload(reg))


def test_frontier_is_the_higher_of_generated_and_forged():
    reg = fresh()
    reg.generated_stage = 3
    assert reg.max_rank() == 1 and reg.frontier() == 3
    reg.intern(rank=5, weight_index=2, payload=unit_payload(reg))
    assert reg.frontier() == 5


def test_sigma_lazy_injective_and_above_quarter_rank():
    reg = fresh()
    ids = [reg.intern(rank=r, weight_index=2,
                      payload=unit_payload(reg)) for r in (4, 5, 6, 20)]
    assert all(reg.records[g].sigma is None for g in ids)
    values = [reg.sigma(g) for g in ids]
    assert len(set(values)) == len(values)
    for g, v in zip(ids, values):
        assert 4 * v > reg.records[g].rank
        assert reg.sigma(g) == v  # stable on re-demand
    assert reg.revalidate() == len(reg)


def test_revalidate_names_corruption():
    """Each corrupted record raises InvariantViolation, which python -O
    keeps."""
    corruptions = [(0, {"rank": 2}), (1, {"age": 2}), (1, {"cut": 3}),
                   (1, {"rank": 1}), (1, {"sigma": 1}),
                   (1, {"payload": Func.unit(0, Fraction(2))}),
                   (3, {"age": 3}), (3, {"weight_index": 4}),
                   (3, {"cut": 5})]
    for gid, change in corruptions:
        reg = fresh()
        head = reg.intern(rank=4, weight_index=2,
                          payload=unit_payload(reg))
        mid = reg.intern(rank=5, weight_index=4,
                         payload=unit_payload(reg))
        reg.intern(rank=7, weight_index=2, predecessor=head,
                   payload=Func.unit(mid))
        assert reg.revalidate() == 4
        reg.records[gid] = replace(reg.records[gid], **change)
        with pytest.raises(InvariantViolation):
            reg.revalidate()


def test_odd_rules():
    reg = fresh()
    even = reg.intern(rank=4, weight_index=2,
                      payload=unit_payload(reg))  # weight 2 = 2 mod 4
    odd = reg.intern(rank=5, weight_index=1,
                     payload=Func.unit(even))
    with pytest.raises(OddWeightRuleViolation):
        # payload must be a single unit functional
        reg.intern(rank=6, weight_index=1,
                   payload=Func.unit(even, Fraction(1, 2)))
    with pytest.raises(OddWeightRuleViolation):
        # Type2 target weight must be the coded weight of the predecessor
        reg.intern(rank=9, weight_index=1, predecessor=odd,
                   payload=Func.unit(
                       reg.intern(rank=7, weight_index=2,
                                  payload=unit_payload(reg))))


def test_stage_table_export(stage6):
    registry, _ = stage6
    rows = registry.export_stage_table(3)
    assert rows[0]["kind"] == "Base"
    assert all(r["rank"] <= 3 for r in rows)
    assert len(rows) == registry.count_up_to(3)


def test_canonical_order(stage6):
    registry, _ = stage6
    ids = registry.gammas_up_to(6)
    ranks = [registry.rank_of(g) for g in ids]
    assert ranks == sorted(ranks)


def test_equal_payloads_share_one_stored_copy():
    """Hash-consing: records with equal payloads hold one stored Func,
    which is not the caller's object."""
    reg = fresh()
    pay = unit_payload(reg)
    a = reg.intern(4, 2, pay)
    b = reg.intern(5, 2, Func.unit(reg.base()))
    c = reg.intern(6, 4, {reg.base(): 1})  # a plain mapping normalizes
    stored = reg.records[a].payload
    assert a != b != c
    assert reg.records[b].payload is stored
    assert reg.records[c].payload is stored
    assert stored is not pay and stored == pay
    assert not hasattr(reg.records[a], "__dict__")  # a slots record


def test_caller_changes_do_not_reach_a_record():
    reg = fresh()
    pay = unit_payload(reg)
    gid = reg.intern(4, 2, pay)
    pay[reg.base()] = Fraction(1, 2)
    pay[gid] = Fraction(1, 4)
    assert reg.records[gid].payload == Func.unit(reg.base())
    # the changed Func is another payload: a new element, its own copy
    other = reg.intern(5, 2, pay)
    assert reg.records[other].payload == pay
    assert reg.records[other].payload is not pay
    assert reg.revalidate() == len(reg) == 3


def test_revalidate_passes_on_a_generated_stage6(stage6):
    registry, _ = stage6
    assert registry.revalidate() == len(registry) == 571

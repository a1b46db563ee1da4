"""Interning, structural validation, and the sigma-coding."""

import json
import tracemalloc
from fractions import Fraction

import pytest

from bdspace.errors import (AgeOverflow, BDSpaceError, IndexOutOfSchedule,
                            InputError, InvariantViolation,
                            OddWeightRuleViolation,
                            ScheduleViolation, StageOverflow,
                            SupportOutOfWindow, UnknownGamma, WeightMismatch)
from bdspace.certificates import canonical_json
from bdspace.cli import (ROW_BLOCK, build_registry, default_stage6_schedule,
                         forge_arena, write_rows)
from bdspace.funcs import Func
from bdspace.registry import (BASE, BMT, ENFORCE, Registry, TYPE1, TYPE2,
                              WAIVE, XK, kind_of)
from bdspace.schedule import slow_toy_schedule, validate_schedule
from bdspace.spaces import (SignedUnits, forge_even, forge_odd_chain,
                            generate_up_to)


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
    rows = [(kind_of(r.rank, r.predecessor), r.cut, r.age, r.predecessor)
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
    assert kind_of(base.rank, base.predecessor) == BASE
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


def test_bools_are_not_ids():
    """An id is an int and no bool: `record` does not take True for
    element 1, so `intern` admits no link whose stored predecessor is
    True, which a stage table would write as `"predecessor": true`."""
    reg = build_registry(validate_schedule((4, 16), (6, 1)), 3,
                         discipline=BMT)
    assert reg.records[1].rank == 2 and reg.records[1].weight_index == 1
    for gid in (True, False):
        with pytest.raises(UnknownGamma):
            reg.record(gid)
        with pytest.raises(UnknownGamma):
            reg.rank_of(gid)
    top = reg.gammas_up_to(3)[-1]
    with pytest.raises(UnknownGamma):
        reg.intern(4, 1, Func.unit(top), predecessor=True)
    assert len(reg) == 25


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


def test_frontier_follows_towers_forged_out_of_rank_order():
    """The frontier is kept as elements are admitted, so it equals the
    largest rank of any element, whatever order the towers come in."""
    reg = fresh()
    for rank in (9, 4, 12, 7, 12, 3):
        reg.intern(rank=rank, weight_index=2, payload=unit_payload(reg))
        assert reg.frontier() == reg.max_rank() == max(
            rec.rank for rec in reg.records)
    forge_even(reg, 1, [5, 8], [unit_payload(reg),
                                Func.unit(reg.gammas_up_to(7)[-1])])
    assert reg.frontier() == max(rec.rank for rec in reg.records) == 12
    reg.generated_stage = 20
    assert reg.frontier() == 20


@pytest.mark.parametrize("payload", [Func(), {}, Func({1: Fraction(0)})])
def test_an_empty_payload_is_refused(payload):
    """A Type1 or Type2 element needs a nonzero payload: one that is
    empty, or whose only entry is 0, is a malformed draft, and nothing
    is admitted."""
    reg = fresh()
    head = reg.intern(rank=3, weight_index=2, payload=unit_payload(reg))
    size = len(reg)
    for predecessor in (None, head):
        with pytest.raises(InputError, match="nonzero payload"):
            reg.intern(rank=5, weight_index=2, payload=payload,
                       predecessor=predecessor)
    assert len(reg) == size


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
        reg.records[gid] = reg.records[gid]._replace(**change)
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


# (m, n) whose odd guard m_h > n_1^2 = 9 fails at h = 2 and holds at h = 6
MIXED_GUARD = validate_schedule((4, 5, 6, 7, 8, 12, 13, 14),
                                (3, 2, 2, 2, 2, 2, 2, 2))


def faults_arena():
    """An ENFORCE arena on MIXED_GUARD, counted as generated to its top
    rank 8, so a draft that passed every check would raise StageOverflow:
    0 Base; 1 (2, w2); 2 a head (3, w2); 3 (4, w4); 4 the link (5, w2)
    after 2, at age n_2 = 2; 5 (6, w6); 6 an odd head (7, w1) on 5,
    whose links target 4 sigma(6) = 8; 7 (8, w4)."""
    reg = Registry(MIXED_GUARD, discipline=XK, odd_guard=ENFORCE)
    g = reg.base()
    for draft in [(2, 2, {g: 1}), (3, 2, {g: 1}), (4, 4, {g: 1}),
                  (5, 2, {3: 1}, 2), (6, 6, {g: 1}), (7, 1, {5: 1}),
                  (8, 4, {g: 1})]:
        reg.intern(*draft)
    reg.generated_stage = 8
    return reg


HALF = Fraction(1, 2)
ODD_OFF_HEAD = "target weight index %d is not 2 mod 4 (under enforce, " \
    "with m_h > n_1^2)"

# (draft, exception type, message), in the order intern checks them; a
# draft with two faults reports the one it checks first
INTERN_FAULTS = {
    "rank below 2": ((1, 2, {0: 1}), ScheduleViolation,
                     "Type1/Type2 elements need rank >= 2"),
    "weight index 0": ((3, 0, {0: 1}), IndexOutOfSchedule,
                       "weight index 0 not in 1..8"),
    "weight index past the schedule": ((9, 9, {0: 1}), IndexOutOfSchedule,
                                       "weight index 9 not in 1..8"),
    "weight index above the rank": ((3, 4, {0: 1}), ScheduleViolation,
                                    "weight index 4 exceeds rank 3"),
    "dangling predecessor": ((9, 2, {0: 1}, 99), UnknownGamma,
                             "no element with id 99"),
    "non-int predecessor": ((9, 2, {0: 1}, "2"), UnknownGamma,
                            "no element with id '2'"),
    "bool predecessor": ((9, 2, {0: 1}, True), UnknownGamma,
                         "no element with id True"),
    "Base predecessor": ((3, 2, {0: 1}, 0), WeightMismatch,
                         "Base element cannot head a chain"),
    "weight mismatch": ((6, 4, {3: 1}, 2), WeightMismatch,
                        "chain weight m_4 != predecessor weight m_2"),
    "cut at the rank": ((3, 2, {0: 1}, 2), ScheduleViolation,
                        "cut 3 must be below rank 3"),
    "age above n_j": ((7, 2, {5: 1}, 4), AgeOverflow,
                      "age 3 exceeds n_2 = 2"),
    "dangling payload id": ((3, 2, {99: 1}), UnknownGamma,
                            "no element with id 99"),
    "negative payload id": ((3, 2, {-1: 1}), UnknownGamma,
                            "no element with id -1"),
    "non-int payload id": ((3, 2, {"0": 1}), UnknownGamma,
                           "no element with id '0'"),
    "bool payload id": ((3, 2, {True: 1}), UnknownGamma,
                        "no element with id True"),
    "payload id below the cut": ((5, 2, {0: 1}, 2), SupportOutOfWindow,
                                 "payload id 0 has rank 1 outside (3, 4]"),
    "payload id at the cut": ((5, 2, {2: 1}, 2), SupportOutOfWindow,
                              "payload id 2 has rank 3 outside (3, 4]"),
    "payload id at the rank": ((4, 2, {3: 1}), SupportOutOfWindow,
                               "payload id 3 has rank 4 outside (0, 3]"),
    "payload id above the window": ((3, 2, {3: 1}), SupportOutOfWindow,
                                    "payload id 3 has rank 4 outside (0, 2]"),
    "one-entry l1 above 1": ((3, 2, {0: Fraction(3, 2)}), SupportOutOfWindow,
                             "payload ell_1-norm exceeds 1"),
    "multi-entry l1 above 1": ((3, 2, {0: HALF, 1: Fraction(2, 3)}),
                               SupportOutOfWindow,
                               "payload ell_1-norm exceeds 1"),
    "odd payload of half a unit": (
        (8, 1, {5: HALF}), OddWeightRuleViolation,
        "odd-weight payload must be a single evaluation functional e*_eta"),
    "odd payload of two entries": (
        (8, 1, {5: HALF, 6: HALF}), OddWeightRuleViolation,
        "odd-weight payload must be a single evaluation functional e*_eta"),
    "odd payload -e*": (
        (8, 1, {5: -1}), OddWeightRuleViolation,
        "odd-weight payload must be a single evaluation functional e*_eta"),
    "odd target without a weight": ((2, 1, {0: 1}), OddWeightRuleViolation,
                                    "odd-weight target eta must carry a "
                                    "weight"),
    "odd head target not 2 mod 4": ((5, 1, {3: 1}), OddWeightRuleViolation,
                                    ODD_OFF_HEAD % 4),
    "odd head target failing the guard": (
        (3, 1, {1: 1}), OddWeightRuleViolation, ODD_OFF_HEAD % 2),
    "odd link target off the coding": (
        (9, 1, {7: 1}, 6), OddWeightRuleViolation,
        "target weight index 4 is not 4*sigma(xi) = 8"),
    "new draft in the generated prefix": (
        (8, 2, {5: 1}), StageOverflow,
        "rank 8 is inside the enumerated prefix (stage 8); forged towers "
        "must sit above it"),
    # two faults each
    "rank below 2, weight index past": ((1, 99, {99: 1}), ScheduleViolation,
                                        "Type1/Type2 elements need rank >= 2"),
    "weight index above the rank, dangling id": (
        (3, 4, {99: 1}), ScheduleViolation, "weight index 4 exceeds rank 3"),
    "age above n_j, payload below the cut, l1": (
        (7, 2, {0: 3}, 4), AgeOverflow, "age 3 exceeds n_2 = 2"),
    "dangling id, then an id above the window": (
        (3, 2, {99: HALF, 3: HALF}), UnknownGamma, "no element with id 99"),
    "an id above the window, then a dangling id": (
        (3, 2, {3: HALF, 99: HALF}), SupportOutOfWindow,
        "payload id 3 has rank 4 outside (0, 2]"),
    "payload id above the window, l1": (
        (3, 2, {3: 2}), SupportOutOfWindow,
        "payload id 3 has rank 4 outside (0, 2]"),
    "odd payload not a unit, target off the coding": (
        (9, 1, {7: HALF}, 6), OddWeightRuleViolation,
        "odd-weight payload must be a single evaluation functional e*_eta"),
    "odd rule, in the generated prefix": (
        (8, 1, {5: HALF}), OddWeightRuleViolation,
        "odd-weight payload must be a single evaluation functional e*_eta"),
}


@pytest.mark.parametrize("fault", sorted(INTERN_FAULTS))
def test_intern_reports_each_fault(fault):
    """Each faulty draft raises its own exception type and message, the
    first fault in check order when it has two, and admits nothing;
    the arena's own drafts still return their ids."""
    draft, kind, message = INTERN_FAULTS[fault]
    reg = faults_arena()
    with pytest.raises(BDSpaceError) as info:
        reg.intern(*draft)
    assert (type(info.value), str(info.value)) == (kind, message)
    assert len(reg) == 8
    assert reg.intern(3, 2, {0: 1}) == 2 and reg.intern(7, 1, {5: 1}) == 6


def test_target_weights_follow_the_coding():
    """A head may target each weight index = 2 mod 4, under ENFORCE only
    those that pass the guard; a later link targets 4 sigma of its
    predecessor, and nothing once that leaves the schedule."""
    waive, enforce = (Registry(MIXED_GUARD, discipline=XK, odd_guard=g)
                      for g in (WAIVE, ENFORCE))
    assert list(waive.target_weights(1, None)) == [2, 6]
    assert list(enforce.target_weights(1, None)) == [6]
    assert list(enforce.target_weights(3, None)) == [2, 6]  # n_3^2 = 4 < m_2
    eta = waive.intern(2, 2, Func.unit(waive.base()))
    near, far = (waive.intern(r, 1, Func.unit(eta)) for r in (3, 9))
    assert waive.target_weights(1, near) == (4 * waive.sigma(near),) == (4,)
    assert waive.target_weights(1, far) == ()
    assert waive.records[far].sigma == 3  # demanded all the same
    target = enforce.intern(2, 2, Func.unit(enforce.base()))
    with pytest.raises(OddWeightRuleViolation):
        enforce.intern(3, 1, Func.unit(target))


def test_a_head_that_fails_the_guard_is_admitted_under_waive():
    """A head that fails the guard under WAIVE is admitted, and
    re-interning it returns the same id."""
    reg = Registry(MIXED_GUARD, discipline=XK, odd_guard=WAIVE)
    eta = reg.intern(2, 2, Func.unit(reg.base()))
    head = reg.intern(3, 1, Func.unit(eta))
    assert not reg.guard_holds(2, 1)
    assert reg.intern(3, 1, Func.unit(eta)) == head
    assert reg.intern(4, 1, Func.unit(eta)) == head + 1


def test_window_reads_the_rank_filter(stage6, forge_arena):
    """window(lo, hi) lists the ids of ranks (lo, hi] in (rank, id)
    order, on a generated prefix and on a sparse forged arena."""
    forged, _ = forge_arena(64)
    for rank, sign in ((3, 1), (4, 1), (4, -1), (7, 1), (12, -1)):
        forge_even(forged, 1, [rank], [Func.unit(forged.base(),
                                                 Fraction(sign))])
    for reg in (stage6[0], forged):
        top = reg.max_rank()
        for lo in range(top + 1):
            for hi in range(lo, top + 2):
                assert reg.window(lo, hi) == [
                    rec.id for rec in sorted(reg.records,
                                             key=lambda r: (r.rank, r.id))
                    if lo < rec.rank <= hi]


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


def test_rich5_drafts_intern_to_their_own_ids(rich5):
    """Re-interning each record's own draft returns its id and changes
    nothing, not even a sigma-code, inside the generated prefix."""
    registry, _ = rich5
    before = list(registry.records)
    assert len(before) == 1305
    for rec in before[1:]:
        assert registry.intern(rec.rank, rec.weight_index, rec.payload,
                               rec.predecessor) == rec.id
    assert all(a is b for a, b in zip(registry.records, before))
    assert len(registry) == 1305
    assert registry.revalidate() == 1305


def test_records_are_immutable_and_not_certifiable(rich5):
    """A record's fields cannot be assigned, it takes no new attribute,
    and canonical_json refuses it rather than writing its fields as a
    list, as it writes a plain tuple."""
    registry, _ = rich5
    rec = next(r for r in registry.records
               if kind_of(r.rank, r.predecessor) == TYPE2)
    for field in rec._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    with pytest.raises(TypeError):
        canonical_json(rec)
    with pytest.raises(TypeError):
        canonical_json({"records": [registry.records[0]]})
    assert canonical_json(tuple(registry.records[0])) == \
        b"[0,1,null,null,0,null,null,null]"


def per_record_table(registry, n):
    """The oracle: the stage table with each record's payload exported
    on its own, by `Func.to_json`."""
    return [{"id": rec.id, "rank": rec.rank,
             "kind": kind_of(rec.rank, rec.predecessor),
             "weight_index": rec.weight_index, "age": rec.age,
             "cut": rec.cut, "predecessor": rec.predecessor,
             "payload": (rec.payload.to_json()
                         if rec.payload is not None else None),
             "sigma": rec.sigma}
            for rec in map(registry.record, registry.gammas_up_to(n))]


def forged_registry():
    reg = forge_arena(slow_toy_schedule(2048))
    g = reg.base()
    eta = forge_even(reg, 1, [3], [Func.unit(g)])
    forge_even(reg, 2, [5], [Func({g: Fraction(-1, 3), eta: Fraction(2, 3)})])
    forge_even(reg, 1, [6], [Func.unit(g, Fraction(-1))])
    forge_odd_chain(reg, 1, [(7, eta)])
    return reg


TABLES = pytest.mark.parametrize("make", [
    lambda: build_registry(validate_schedule((4, 16), (6, 1)), 5),
    lambda: build_registry(validate_schedule((4, 16), (6, 1)), 5,
                           discipline=BMT),
    forged_registry,
], ids=["XK-stage5", "BmT-stage5", "forged"])


@TABLES
def test_export_matches_the_per_record_payloads(make):
    """Each row, after a JSON round trip, is the row with its payload
    exported per record; the shared tuples make the same JSON."""
    reg = make()
    n = reg.max_rank()
    rows = reg.export_stage_table(n)
    assert json.loads(json.dumps(list(rows))) == per_record_table(reg, n)
    assert len(rows) == len(reg)


def plain(rows):
    """Rows as a JSON round trip reads them: tuples become lists."""
    return json.loads(json.dumps(rows))


@TABLES
def test_stage_table_reads_as_a_sequence(make):
    """Length, int and negative indices, slices and iteration read the
    rows of the per-record table; within a read and across reads, rows
    with equal payloads hold one tuple."""
    reg = make()
    n = reg.max_rank()
    rows, table = reg.export_stage_table(n), per_record_table(reg, n)
    assert len(rows) == len(table) > 2
    assert plain(list(rows)) == table
    for i in range(-len(table), len(table)):
        assert plain(rows[i]) == table[i]
    for cut in (slice(None), slice(1, 5), slice(-3, None), slice(None, -2, 3),
                slice(5, 1)):
        assert plain(rows[cut]) == table[cut]
    with pytest.raises(IndexError):
        rows[len(table)]
    with pytest.raises(IndexError):
        rows[-len(table) - 1]
    forms = {}
    for row in list(rows) + rows[::-1] + [rows[i] for i in range(len(rows))]:
        if row["payload"] is not None:
            assert forms.setdefault(row["payload"], row["payload"]) \
                is row["payload"]
    assert len(forms) == len({id(rec.payload) for rec in reg.records[1:]})


def test_stage_table_keeps_the_records_it_was_read_from():
    """Rows read after the registry has grown, by new elements of a
    rank the table covers and by sigma-codes that the growth demands of
    its records, read as before; a new export sees both."""
    reg = build_registry(validate_schedule((4, 16), (6, 2)), 4)
    rows = reg.export_stage_table(5)
    before = plain(list(rows))
    sigmas = [rec.sigma for rec in reg.records]
    generate_up_to(reg, 5, SignedUnits())
    assert plain(list(rows)) == before and len(rows) == len(sigmas)
    assert [rec.sigma for rec in reg.records[:len(sigmas)]] != sigmas
    assert plain(list(reg.export_stage_table(5))) == \
        per_record_table(reg, 5) != before


class Discard:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def traced_peak(call):
    """The tracemalloc peak of call(), above the memory traced before."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - start


def test_writer_holds_one_block_of_stage_table_rows():
    """The writer reads the table a block of ROW_BLOCK rows at a time,
    so the stage table of the default schedule at stage 8 never has all
    its row dicts alive: writing it peaks lower than writing the same
    rows from a list by more than half their size.  (The per-payload
    memos of the table and the writer, 4,263 distinct payloads here,
    are alive in both.)"""
    reg = build_registry(default_stage6_schedule(), 8)
    assert len(reg.gammas_up_to(8)) > 3 * ROW_BLOCK
    tracemalloc.start()
    try:
        eager = list(reg.export_stage_table(8))
        start = tracemalloc.get_traced_memory()[0]
        copies = [dict(row) for row in eager]
        size = tracemalloc.get_traced_memory()[0] - start
        del eager, copies
        listed = traced_peak(lambda: write_rows(
            list(reg.export_stage_table(8)), Discard(), "json"))
        streamed = traced_peak(lambda: write_rows(
            reg.export_stage_table(8), Discard(), "json"))
    finally:
        tracemalloc.stop()
    assert listed - streamed > size / 2


def test_exported_rows_cannot_change_each_other():
    reg = build_registry(validate_schedule((4, 16), (6, 1)), 4)
    rows = reg.export_stage_table(4)
    by_payload = {}
    for row in rows[1:]:
        by_payload.setdefault(row["payload"], []).append(row)
    a, b = next(group for group in by_payload.values() if len(group) > 1)[:2]
    assert a["payload"] is b["payload"]  # one form per stored payload
    for row in rows[1:]:
        assert type(row["payload"]) is tuple
        assert all(type(pair) is tuple for pair in row["payload"])
    with pytest.raises(TypeError):
        a["payload"][0] = (0, "1/2")
    with pytest.raises(TypeError):
        a["payload"][0][1] = "1/2"
    before = json.dumps(b)
    a["payload"] = ((0, "1/3"),)
    a["rank"] = 99
    assert json.dumps(b) == before
    assert json.loads(json.dumps(list(reg.export_stage_table(4)))) == \
        per_record_table(reg, 4)
    assert reg.revalidate() == len(reg)


def test_equal_payloads_in_any_form_intern_to_one_id():
    """The intern key is built from integers, so a payload given as an
    int, an unreduced Fraction or a unit Func is one key; -1 is not."""
    reg = fresh()
    g = reg.base()
    ids = {reg.intern(4, 2, pay)
           for pay in ({g: 1}, {g: Fraction(2, 2)}, Func.unit(g))}
    assert ids == {1}
    minus = reg.intern(4, 2, {g: -1})
    assert minus not in ids
    assert reg.records[minus].payload == Func.unit(g, Fraction(-1))
    assert len(reg) == 3


def test_intern_runs_no_fraction_hash_or_eq(monkeypatch):
    reg = fresh()
    g = reg.base()
    unit, half = Func.unit(g), Func.unit(g, Fraction(1, 2))
    head = reg.intern(4, 2, unit)
    odd_target, minus = Func.unit(head), Func.unit(head, Fraction(-1))

    def refuse(*args):
        raise AssertionError("a Fraction was hashed or compared")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    monkeypatch.setattr(Fraction, "__eq__", refuse)
    assert reg.intern(4, 2, unit) == head
    assert reg.intern(5, 2, half) == 2
    assert reg.intern(6, 1, odd_target) == 3  # the odd-weight rules
    with pytest.raises(OddWeightRuleViolation):
        reg.intern(7, 1, minus)


@pytest.mark.parametrize("values", [
    [1], [-1], [Fraction(3, 2)], [Fraction(-3, 2)],
    [Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-2, 3)],
], ids=["1", "-1", "3/2", "-3/2", "1/2+1/2", "1/2+2/3"])
def test_integer_l1_check_agrees_with_l1(values):
    """The one-entry bound is checked in integers, abs(num) <= den; it
    rejects exactly the payloads whose ell_1-norm exceeds 1."""
    reg = fresh()
    g = reg.base()
    window = [g, reg.intern(4, 2, Func.unit(g))]
    payload = Func(zip(window, values))
    if payload.l1() > 1:
        with pytest.raises(SupportOutOfWindow):
            reg.intern(5, 2, payload)
    else:
        gid = reg.intern(5, 2, payload)
        assert reg.records[gid].payload == payload

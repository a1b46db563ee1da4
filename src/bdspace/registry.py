"""The Gamma registry: interned construction elements with ranks and weights.

Every element gamma of the index set is one of

  Base    -- the single element of Delta_1,
  Type1   -- (rank, weight m_j^{-1}, payload b*), age 1,
  Type2   -- (rank, predecessor xi, weight m_j^{-1}, payload b*), extending
             the chain of xi by one link,

where the payload b* is a Func of ell_1-norm at most 1 supported in the
window Gamma_{rank-1} \\ Gamma_cut.  `intern(rank, weight_index, payload,
predecessor=None)` is the one chain-link constructor: without a
predecessor it makes a Type1 head, with one the Type2 link whose cut and
age come from the predecessor.  `chain(gid)` reads a chain back, head
first.  Interning validates all structural invariants, is idempotent on
identical drafts, and assigns ids densely in insertion order.  The
canonical total order on elements is (rank, id).

A record (`ElementRecord`) is an immutable tuple with named fields, the
cheapest record Python builds; only the registry builds one (`base`,
`intern`, and `sigma`, which fills in a sigma-code), so each record in
an arena has passed the checks that `revalidate` repeats.

Odd-weight discipline ("XK"): elements of odd weight carry a single unit
payload e*_eta whose weight is pinned down by the sigma-coding; this is
what makes odd-weight chains tree-like; `target_weights` states the rule.
sigma assigns the smallest unused positive integer exceeding rank/4, on
first demand rather than at intern time -- injective, deterministic in
demand order, and small enough that coded even weights stay within reach
of toy schedules.
"""

from collections import defaultdict
from collections.abc import Sequence
from typing import NamedTuple, Optional

from .errors import (AgeOverflow, InputError, OddWeightRuleViolation,
                     ScheduleViolation, StageOverflow, SupportOutOfWindow,
                     UnknownGamma, WeightMismatch, require)
from .funcs import Func

BASE = "Base"
TYPE1 = "Type1"
TYPE2 = "Type2"

XK = "XK"
BMT = "BmT"

ENFORCE = "enforce"
WAIVE = "waive"

STAGE_CAP = 20000   # the most elements a registry admits, unless told more


def first_sigma(rank):
    """The least sigma-code of an element of this rank: above rank/4."""
    return rank // 4 + 1


def coded_weight(sigma):
    """The weight index of the target after a link of this sigma-code."""
    return 4 * sigma


def kind_of(rank, predecessor):
    """The element type, which its structure decides: Base at rank 1,
    Type2 when it extends a predecessor's chain, Type1 otherwise."""
    if rank == 1:
        return BASE
    return TYPE1 if predecessor is None else TYPE2


class ElementRecord(NamedTuple):
    """One element, immutable: a tuple whose fields are named."""

    id: int
    rank: int
    weight_index: Optional[int] = None
    age: Optional[int] = None
    cut: int = 0
    predecessor: Optional[int] = None
    payload: Optional[Func] = None
    sigma: Optional[int] = None

    def is_odd_weight(self):
        return self.weight_index is not None and self.weight_index % 2 == 1


class Registry:
    """Single-writer arena of ElementRecords over a fixed schedule."""

    def __init__(self, schedule, discipline=XK, odd_guard=WAIVE,
                 stage_cap=STAGE_CAP):
        if discipline not in (XK, BMT):
            raise ValueError("unknown discipline %r" % discipline)
        self.schedule = schedule
        self.discipline = discipline
        self.odd_guard = odd_guard
        self.stage_cap = stage_cap
        self.records = []
        self._by_key = {}
        self._payloads = {}  # payload ratios -> (the same ratios, stored Func)
        self._stages = defaultdict(list)   # rank -> ids of that rank
        self._max_rank = 0                 # the highest rank admitted
        self._sigma_used = set()
        self.generated_stage = 0

    # -- lookups -------------------------------------------------------------

    def record(self, gid):
        if type(gid) is not int or not 0 <= gid < len(self.records):
            raise UnknownGamma("no element with id %r" % (gid,))
        return self.records[gid]

    def rank_of(self, gid):
        return self.record(gid).rank

    def sigma(self, gid):
        """The sigma-code of an element, assigned on first demand."""
        rec = self.record(gid)
        if rec.sigma is None:
            rec = rec._replace(sigma=self._next_sigma(rec.rank))
            self.records[gid] = rec
        return rec.sigma

    def guard_holds(self, h, w):
        """The odd guard m_h > n_w^2 on a target of weight index h at
        the head of an odd chain of weight index w."""
        n_w = self.schedule.length_value(w)
        return self.schedule.m[h - 1] > n_w * n_w

    def target_weights(self, w, predecessor):
        """The weight indices of the schedule, in increasing order, that
        the target of an odd link of weight index w after `predecessor`
        may carry: for a head every h = 2 mod 4, under ENFORCE only those
        that pass the guard; for a later link the coded 4 sigma(xi) of
        its predecessor xi, whose sigma-code this demands."""
        size = len(self.schedule.m)
        if predecessor is not None:
            coded = coded_weight(self.sigma(predecessor))
            return (coded,) if coded <= size else ()
        heads = range(2, size + 1, 4)
        if self.odd_guard == ENFORCE:
            return [h for h in heads if self.guard_holds(h, w)]
        return heads

    def __len__(self):
        return len(self.records)

    def gammas_up_to(self, n):
        """Ids of Gamma_n in the canonical (rank, id) order."""
        return self.window(0, n)

    def window(self, lo, hi):
        """Ids of the ranks (lo, hi] in the canonical (rank, id) order."""
        out = []
        for q in range(lo + 1, hi + 1):
            out.extend(self._stages.get(q, ()))
        return out

    def max_rank(self):
        return self._max_rank

    def frontier(self):
        """The highest stage materialized, generated or forged."""
        return max(self._max_rank, self.generated_stage)

    def count_up_to(self, n):
        return sum(len(v) for q, v in self._stages.items() if q <= n)

    def chain(self, gid):
        """The records of the chain ending at gid, head first: its
        Type1 head, then each Type2 link.  Base is a chain of one."""
        rec = self.record(gid)
        out = [rec]
        while rec.predecessor is not None:
            rec = self.records[rec.predecessor]
            out.append(rec)
        out.reverse()
        return out

    # -- interning -----------------------------------------------------------

    def base(self):
        """The unique element of Delta_1 (interned on first use)."""
        key = (1, None, None, None)
        if key in self._by_key:
            return self._by_key[key]
        return self._admit(key, ElementRecord(id=len(self.records), rank=1))

    def intern(self, rank, weight_index, payload, predecessor=None):
        """Validate a draft element and return its id (idempotent).

        With no predecessor the draft is a Type1 element, the head of a
        chain; with one it is the Type2 link that extends the
        predecessor's chain, whose cut and age it takes from there.
        Records with equal payloads share one stored Func, a copy made
        when the payload is first stored (hash-consing), so no caller
        can change a record's payload afterwards."""
        if rank < 2:
            raise ScheduleViolation("Type1/Type2 elements need rank >= 2")
        # the checks read the schedule and the arena straight from their
        # lists, and call the methods that raise only to raise
        schedule, records = self.schedule, self.records
        if not 1 <= weight_index <= len(schedule.m):
            schedule.require_weight_index(weight_index)
        if weight_index > rank:
            raise ScheduleViolation(
                "weight index %d exceeds rank %d" % (weight_index, rank))

        size = len(records)
        if predecessor is None:
            cut, age = 0, 1
        else:
            if type(predecessor) is not int or not 0 <= predecessor < size:
                self.record(predecessor)  # UnknownGamma if dangling
            pred = records[predecessor]
            if pred.rank == 1:
                raise WeightMismatch("Base element cannot head a chain")
            if pred.weight_index != weight_index:
                raise WeightMismatch(
                    "chain weight m_%d != predecessor weight m_%s"
                    % (weight_index, pred.weight_index))
            cut, age = pred.rank, pred.age + 1
            if not cut < rank:
                raise ScheduleViolation("cut %d must be below rank %d" % (cut, rank))
            if age > schedule.n[weight_index - 1]:
                raise AgeOverflow("age %d exceeds n_%d = %d"
                                  % (age, weight_index,
                                     schedule.n[weight_index - 1]))

        if not isinstance(payload, Func):
            payload = Func(payload)
        # the payload as (id, numerator, denominator) integers, which the
        # checks and keys below hash and compare in C, not through the
        # pure-Python Fraction.__hash__ and __eq__
        ratios = []
        for gid, v in payload.items():
            if type(gid) is not int or not 0 <= gid < size:
                self.record(gid)  # UnknownGamma if dangling
            r = records[gid].rank
            if not cut < r <= rank - 1:
                raise SupportOutOfWindow(
                    "payload id %d has rank %d outside (%d, %d]"
                    % (gid, r, cut, rank - 1))
            ratios.append((gid,) + v.as_integer_ratio())
        if len(ratios) == 1:
            if abs(ratios[0][1]) > ratios[0][2]:
                raise SupportOutOfWindow("payload ell_1-norm exceeds 1")
        elif not ratios:
            raise InputError("a Type1/Type2 element needs a nonzero payload")
        elif payload.l1() > 1:
            raise SupportOutOfWindow("payload ell_1-norm exceeds 1")

        if self.discipline == XK and weight_index % 2 == 1:
            self._check_odd_rules(weight_index, predecessor, ratios)

        # one key, holding the stored payload's ratios when there is one
        items = frozenset(ratios)
        stored = self._payloads.get(items)
        key = (rank, weight_index, predecessor,
               items if stored is None else stored[0])
        gid = self._by_key.get(key)
        if gid is not None:
            return gid
        if rank <= self.generated_stage:
            raise StageOverflow(
                "rank %d is inside the enumerated prefix (stage %d); "
                "forged towers must sit above it" % (rank, self.generated_stage))
        if stored is None:
            stored = self._payloads[items] = (items, Func(payload))
        return self._admit(key, ElementRecord(
            size, rank, weight_index, age, cut, predecessor, stored[1]))

    def _check_odd_rules(self, weight_index, predecessor, ratios):
        if len(ratios) != 1 or ratios[0][1:] != (1, 1):
            raise OddWeightRuleViolation(
                "odd-weight payload must be a single evaluation functional e*_eta")
        ((eta, _, _),) = ratios
        h = self.records[eta].weight_index  # a payload id: it exists
        if h is None:
            raise OddWeightRuleViolation("odd-weight target eta must carry a weight")
        if h not in self.target_weights(weight_index, predecessor):
            rule = ("2 mod 4 (under %s, with m_h > n_%d^2)"
                    % (ENFORCE, weight_index) if predecessor is None else
                    "4*sigma(xi) = %d" % coded_weight(self.sigma(predecessor)))
            raise OddWeightRuleViolation(
                "target weight index %d is not %s" % (h, rule))

    def _admit(self, key, rec):
        self.records.append(rec)
        self._by_key[key] = rec.id
        self._stages[rec.rank].append(rec.id)
        if rec.rank > self._max_rank:
            self._max_rank = rec.rank
        return rec.id

    def _next_sigma(self, rank):
        v = first_sigma(rank)
        while v in self._sigma_used:
            v += 1
        self._sigma_used.add(v)
        return v

    # -- integrity -----------------------------------------------------------

    def revalidate(self):
        """Re-check every record invariant; returns the number of records.

        Raises InvariantViolation at the first broken invariant."""
        seen_sigma = set()
        for rec in self.records:
            at = "element %d: " % rec.id
            if rec.sigma is not None:
                require(rec.sigma not in seen_sigma, at + "sigma not injective")
                require(rec.sigma >= first_sigma(rec.rank), at + "sigma too small")
                seen_sigma.add(rec.sigma)
            if rec.rank == 1:
                require(rec.payload is None and rec.predecessor is None,
                        at + "malformed Base")
                continue
            require(rec.weight_index is not None
                    and rec.weight_index <= rec.rank,
                    at + "weight index above rank")
            if rec.predecessor is None:
                require(rec.age == 1 and rec.cut == 0, at + "Type1 in a chain")
            else:
                pred = self.record(rec.predecessor)
                require(pred.weight_index == rec.weight_index,
                        at + "weight differs from the predecessor's")
                require(rec.cut == pred.rank and rec.age == pred.age + 1,
                        at + "cut or age off the chain")
                require(rec.age <= self.schedule.length_value(rec.weight_index),
                        at + "age above n_j")
            require(rec.payload.l1() <= 1, at + "payload ell_1-norm above 1")
            for gid in rec.payload:
                require(rec.cut < self.rank_of(gid) <= rec.rank - 1,
                        at + "payload outside its window")
        return len(self.records)

    # -- export --------------------------------------------------------------

    def export_stage_table(self, n):
        """The stage table of Gamma_n in (rank, id) order, as a `Rows`
        view over the records of Gamma_n as they are now: each read
        builds fresh row dicts, so a writer holds only the rows it reads,
        and a record interned or given a sigma-code later changes no row.

        A payload is exported as a tuple of (id, "p/q") tuples, built once
        per stored payload and shared by every row that holds it; being
        immutable, no row can change another row or the registry."""
        # id of a stored payload -> its exported form; the records the
        # table holds keep each payload alive, so no id is reused
        forms = {}

        def row(rec):
            gid, rank, weight_index, age, cut, predecessor, payload, sigma = \
                rec
            if payload is not None:
                form = forms.get(id(payload))
                if form is None:
                    form = forms[id(payload)] = tuple(
                        map(tuple, payload.to_json()))
                payload = form
            return {
                "id": gid,
                "rank": rank,
                "kind": kind_of(rank, predecessor),
                "weight_index": weight_index,
                "age": age,
                "cut": cut,
                "predecessor": predecessor,
                "payload": payload,
                "sigma": sigma,
            }

        records = self.records
        return Rows([records[gid] for gid in self.gammas_up_to(n)], row)


class Rows(Sequence):
    """A read-only table: row(item) for each item of a list, built afresh
    on every read, so only the rows a reader holds are alive.  It has a
    length, int indices (negative too), slices, which read as lists of
    rows, and iteration."""

    __slots__ = ("_items", "_row")

    def __init__(self, items, row):
        self._items = items
        self._row = row

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._row, self._items[i]))
        return self._row(self._items[i])

    def __iter__(self):
        return map(self._row, self._items)

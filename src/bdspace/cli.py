"""Command-line front end: generation, forging, norm queries,
verification suites, and the export of the dual-basis rows d*.

Subcommands: schedule | gen | forge | norm | mtnorm | verify | hiprobe |
export; each accepts only the options it reads, and `verify` only the
options its suite has parameters for.  Most verification suites come
from two factories: a stage suite judges one claim over a generated
stage, a seeded suite runs seeded cases into one tally.  The `mt-oracle`
cases draw mixed-Tsirelson instances; the `lowerest`, `basicineq` and
`depseq` cases each build a fresh forging arena (`forge_arena`).  The
`averages` suite and the HI probe certify each check of each case on its
own.  Every suite takes a seed (default 7) and is fully deterministic
given (schedule, seed, stage, cap): re-running reproduces byte-identical
certificates.

Exit codes: 0 when no certificate carries verdict "violated" ("reported"
rows never affect it), 1 when one does, and 2 on bad input or usage,
with a one-line message naming the error.
"""

import argparse
import csv
import inspect
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .analysis import (CARRIER_GAP, DEPENDENT_C, CarrierSource,
                       alternating_report, basic_inequality_witness,
                       check_ris, hi_probe, lower_estimate_witness,
                       make_dependent_sequence, ris_average_report,
                       suggested_js)
from .certificates import Check, Ledger, judge, make_certificate
from .engine import Engine, Point
from .errors import BDSpaceError, InputError
from .funcs import Func, frac_str, parse_int
from .mtnorm import MTParams, mt_norm, mt_norm_exhaustive, verify_norming_tree
from .norms import sup_norm_interval
from .registry import (BMT, ENFORCE, STAGE_CAP, Registry, Rows, WAIVE, XK,
                       coded_weight, first_sigma)
from .schedule import (geometric_toy_schedule, slow_toy_schedule,
                       validate_schedule)
from .spaces import (DyadicAverages, PaperFactorial, SignedUnits,
                     check_treelike, forge_even, forge_odd_chain,
                     generate_up_to)

DEFAULT_SEED = 7


# -- shared plumbing -----------------------------------------------------------

def default_stage6_schedule():
    """The standard toy generation schedule: two weights, short lengths."""
    return validate_schedule((4, 16), (6, 1))


def read_input(path, parse):
    """parse(the JSON document in a file); InputError when the file cannot
    be read or its content does not have the shape parse expects."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InputError("cannot read %s (%s: %s)"
                         % (path, type(exc).__name__, exc)) from None


def load_schedule(path):
    """The schedule in a JSON file {"m": [...], "n": [...]}; the default
    toy schedule when path is None."""
    if path is None:
        return default_stage6_schedule()
    return read_input(path, lambda obj: validate_schedule(obj["m"], obj["n"]))


def parse_forge_spec(spec):
    """The even towers [(j, cuts, payloads)] and odd towers [(j0,
    [(cut, target)])] of a forge spec, every index an int that
    `parse_int` reads; ValueError or TypeError when the spec has another
    shape."""
    even = [(parse_int(t["j"]), list(map(parse_int, t["cuts"])),
             [Func.from_json(b) for b in t["payloads"]])
            for t in spec.get("even", [])]
    odd = [(parse_int(t["j0"]), [(parse_int(p), parse_int(eta))
                                 for p, eta in t["targets"]])
           for t in spec.get("odd", [])]
    return even, odd


def net_policy(name):
    if name == "units":
        return SignedUnits()
    if name == "paper":
        return PaperFactorial()
    kind, _, k = name.partition(":")
    # ASCII digits only: str.isdigit takes full-width digits too, and the
    # name is echoed in certificates as given
    if kind == "dyadic" and k.isascii() and k.isdigit() and int(k) >= 1:
        return DyadicAverages(int(k))
    raise InputError("unknown net policy %r (paper | units | dyadic:K, "
                     "K >= 1)" % name)


def build_registry(schedule, stage, net="units", cap=STAGE_CAP,
                   discipline=XK, guard=WAIVE):
    registry = Registry(schedule, discipline=discipline, odd_guard=guard,
                        stage_cap=cap)
    generate_up_to(registry, stage, net_policy(net))
    return registry


def at_least_one(value, option):
    """InputError when an integer option is given and below 1."""
    if value is not None and value < 1:
        raise InputError("--%s must be at least 1, got %d" % (option, value))


def check_registry_options(args):
    """InputError when a registry option that was given (not None) is
    bad, so bad input exits before anything is built or emptied."""
    at_least_one(args.stage, "stage")
    at_least_one(args.cap, "cap")
    if args.net is not None:
        net_policy(args.net)


def registry_options(args):
    """(schedule, stage, net, cap) from the registry options of a
    subcommand, checked."""
    check_registry_options(args)
    return load_schedule(args.schedule), args.stage, args.net, args.cap


def registry_of(args):
    """The registry that the registry options of a subcommand describe."""
    return build_registry(*registry_options(args))


def forge_arena(schedule):
    """A registry holding Gamma_1 only, the ground for forged towers."""
    return build_registry(schedule, 1)


# -- verification suites -------------------------------------------------------

def tally(values, failures, name="failures"):
    """The Check of a list of failures: verified when it is empty, with
    its length among the values and its first five rows in the detail."""
    return Check(judge(not failures), dict(values, **{name: len(failures)}),
                 {"first_" + name: failures[:5]})


def stage_suite(claim_id, claim, check):
    """A suite judging one claim over Gamma_stage of a generated registry;
    check(engine, stage) returns its Check."""
    def suite(ledger, schedule=None, stage=6, net="units",
              cap=STAGE_CAP, seed=DEFAULT_SEED):
        schedule = schedule or default_stage6_schedule()
        registry = build_registry(schedule, stage, net, cap)
        ledger.add(make_certificate(
            claim_id, claim, schedule,
            {"stage": stage, "net": net, "cap": cap},
            check(Engine(registry), stage),
            stage=stage, net_policy=net, odd_guard=registry.odd_guard,
            seed=seed))
        return ledger
    return suite


def _biorthogonality(engine, stage):
    sm = engine.stage_matrix(stage)
    defects = sm.biorthogonality_defects()
    return tally({"elements": len(sm.ids)}, defects, "defects")


def _eval_analysis(engine, stage):
    registry = engine.registry
    checked, bad = 0, []
    for gid in registry.gammas_up_to(stage):
        if registry.records[gid].rank == 1:
            continue
        lhs, window, tail = engine.analysis_identity_sides(gid)
        for is_tail, rhs in ((False, window), (True, tail)):
            checked += 1
            if lhs != rhs:
                bad.append([gid, is_tail])
    return tally({"checked": checked}, bad, "mismatches")


def _projections(engine, stage):
    interval_sums, tail_sums = engine.fdd_row_norms(stage)
    # the basis constant, as `Engine.basis_constant` reads it
    bc = max(interval_sums[(0, q)] for q in range(1, stage + 1))
    interval, tail = max(interval_sums.values()), max(tail_sums.values())
    dstar = max(map(engine.d_star_l1, engine.registry.gammas_up_to(stage)))
    return Check(judge(bc <= 2 and interval <= 4 and tail <= 3 and dstar <= 3),
                 {"basis_constant": bc, "max_interval_rowsum": interval,
                  "max_tail_rowsum": tail, "max_dstar_l1": dstar})


suite_biorthogonality = stage_suite(
    "biorthogonality",
    "the dual basis rows pair with the basis columns to the exact "
    "identity matrix at the generated stage", _biorthogonality)

suite_eval_analysis = stage_suite(
    "eval-analysis",
    "every non-Base evaluation functional equals its chain "
    "reconstruction, in both the window and the tail form, exactly",
    _eval_analysis)

suite_projections = stage_suite(
    "projections",
    "exact operator-norm bounds: prefix column sums at most 2, "
    "interval row sums at most 4, tail row sums at most 3, dual-basis "
    "ell_1 norms at most 3", _projections)


def _treelike_pairs(engine, stage):
    registry = engine.registry
    checked, failures = 0, []
    by_weight = {}
    for gid in registry.gammas_up_to(stage):
        rec = registry.records[gid]
        if rec.is_odd_weight():
            by_weight.setdefault(rec.weight_index, []).append(gid)
    for w, group in sorted(by_weight.items()):
        for i in range(len(group)):
            for k in range(i + 1, len(group)):
                checked += 1
                try:
                    check_treelike(registry, group[i], group[k])
                except BDSpaceError as exc:
                    failures.append([group[i], group[k], str(exc)])
    return tally({"pairs": checked}, failures)


_suite_treelike_exhaustive = stage_suite(
    "treelike-exhaustive",
    "every pair of same-odd-weight chains in the generated prefix has "
    "a unique branching index", _treelike_pairs)


def suite_treelike(ledger, schedule=None, stage=5, net="units",
                   cap=STAGE_CAP, forged_pairs=20, seed=DEFAULT_SEED):
    _suite_treelike_exhaustive(
        ledger, schedule or validate_schedule((4, 16), (6, 2)), stage, net,
        cap, seed)

    # forged pairs: towers sharing a prefix (branch point 2) and
    # independent towers (branch point 1), on a slow schedule
    rng = random.Random(seed)
    f_sched = slow_toy_schedule(2048)
    f_reg = forge_arena(f_sched)
    f_checked, f_failures = 0, []
    unit_base = lambda: Func.unit(f_reg.base())

    def forge_head():
        r = max(f_reg.max_rank(), 2) + rng.randint(1, 3)
        eta1 = forge_even(f_reg, 1, [r], [unit_base()])
        return forge_odd_chain(f_reg, 1, [(r + 1, eta1)])

    def extend(xi):
        (coded,) = f_reg.target_weights(1, xi)
        t = max(f_reg.max_rank(), coded) + rng.randint(1, 2)
        eta = forge_even(f_reg, coded // 2, [t], [unit_base()])
        return f_reg.intern(t + 1, 1, Func.unit(eta), xi)

    prev_tail = None
    for p in range(forged_pairs):
        xi1 = forge_head()
        a, b = extend(xi1), extend(xi1)
        expect = [(a, b, 2)]
        if prev_tail is not None:
            expect.append((a, prev_tail, 1))
        prev_tail = b
        for left, right, want in expect:
            f_checked += 1
            try:
                got = check_treelike(f_reg, left, right)
                if got != want:
                    f_failures.append([left, right, "l=%d, wanted %d"
                                       % (got, want)])
            except BDSpaceError as exc:
                f_failures.append([left, right, str(exc)])
    ledger.add(make_certificate(
        "treelike-forged",
        "forged same-odd-weight tower pairs branch at the predicted index: "
        "shared prefixes at the split link, independent towers at the root",
        f_sched,
        {"forged_pairs": forged_pairs, "seed": seed},
        tally({"pairs": f_checked}, f_failures),
        stage=f_reg.max_rank(), odd_guard=WAIVE, seed=seed))
    return ledger


def seeded_suite(claim_id, claim, make_schedule, default_cases, run_case):
    """A suite of seeded cases over make_schedule(); run_case(case, rng,
    schedule) returns None when the case holds and the tail of its
    failure row otherwise, and a case that raises a BDSpaceError fails
    with its message."""
    def suite(ledger, cases=default_cases, seed=DEFAULT_SEED):
        schedule = make_schedule()
        rng = random.Random(seed)
        failures = []
        for case in range(cases):
            try:
                failure = run_case(case, rng, schedule)
            except BDSpaceError as exc:
                failure = [str(exc)]
            if failure:
                failures.append([case] + failure)
        ledger.add(make_certificate(
            claim_id, claim, schedule, {"cases": cases, "seed": seed},
            tally({"cases": cases}, failures),
            seed=seed))
        return ledger
    return suite


def _mt_oracle_case(case, rng, schedule):
    """A seeded two-pair instance on a nonzero vector of support at most
    6, drawn again whole until the vector is nonzero."""
    x = None
    while not x:
        caps = sorted(rng.sample(range(2, 5), 2))
        thetas = sorted([Fraction(1, rng.randint(2, 6)),
                         Fraction(1, rng.randint(7, 12))], reverse=True)
        params = MTParams(pairs=((caps[0], thetas[0]), (caps[1], thetas[1])),
                          excluded=rng.choice([None, None, 1, 2]))
        x = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for k in rng.sample(range(10), rng.randint(1, 6))}
        x = {k: v for k, v in x.items() if v}
    dp, tree = mt_norm(x, params)
    oracle = mt_norm_exhaustive(x, params)
    tree_ok, why = verify_norming_tree(tree, params)
    if dp != oracle or not tree_ok:
        return [frac_str(dp), frac_str(oracle), why]


def _lowerest_case(case, rng, schedule):
    engine = Engine(forge_arena(schedule))
    source = CarrierSource(engine, companions=False)
    blocks = []
    for _ in range(rng.randint(2, 4)):
        b = source.next_block()
        blocks.append(b.scaled(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                        rng.randint(1, 3))))
    _, check, _ = lower_estimate_witness(engine, blocks, 1)
    if not check.passed:
        return [frac_str(check.values["lhs"]), frac_str(check.values["rhs"])]


def _ris_blocks(rng, engine, fewest, most):
    """Seeded skipped blocks, their 2-RIS Check with the suggested
    indices, and seeded coefficients, one per block."""
    source = CarrierSource(engine, companions=False)
    xs = [source.next_block() for _ in range(rng.randint(fewest, most))]
    ris = check_ris(engine, xs, Fraction(2), suggested_js(engine, xs),
                    engine.registry.max_rank())
    return xs, ris, [Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                     for _ in xs]


def _basicineq_case(case, rng, schedule):
    engine = Engine(forge_arena(schedule))
    xs, ris, lams = _ris_blocks(rng, engine, 3, 5)
    gamma, _, _ = lower_estimate_witness(engine, xs, 1)
    s = rng.choice([0, engine.ran(xs[0])[0] - 1])
    _, _, check = basic_inequality_witness(
        engine, xs, lams, s, gamma, ris, j0=1 if case % 5 == 4 else None)
    if not check.passed:
        return [check.detail["tree_reason"] or "inequality"]


def _dependent_sequence(case, rng, engine):
    """The dependent sequence of a seeded case over 1-2 block sources;
    eps alternates with the case's parity."""
    eps = 0 if case % 2 else 1
    sources = [CarrierSource(engine, companions=(eps == 0))
               for _ in range(rng.randint(1, 2))]
    return make_dependent_sequence(engine, 1, sources, eps, DEPENDENT_C,
                                   2 + case % 4, blocks_per_pair=2)


def _depseq_case(case, rng, schedule):
    engine = Engine(forge_arena(schedule))
    rec = _dependent_sequence(case, rng, engine)
    if not all(ok for _, _, _, ok in rec.partial_sums(engine)):
        return ["partial sums"]


suite_mt_oracle = seeded_suite(
    "mt-oracle",
    "the interval dynamic program agrees exactly with the brute-force "
    "successive-subset oracle, and the attaining trees verify",
    lambda: {"m": [], "n": [], "mode": "n/a"}, 200, _mt_oracle_case)

suite_lowerest = seeded_suite(
    "lowerest",
    "the forged even-weight witness pairs with the block sum to "
    "exactly the weighted sum of the window maxima",
    lambda: slow_toy_schedule(2048), 50, _lowerest_case)

suite_basicineq = seeded_suite(
    "basicineq",
    "the recursive norming-tree construction bounds the projected "
    "evaluation by the direct term plus the tree action, exactly, "
    "with the tree inside the admissible norming set",
    lambda: geometric_toy_schedule(64), 20, _basicineq_case)

suite_depseq = seeded_suite(
    "depseq",
    "dependent-sequence partial sums at the chain links equal the "
    "index times the chain weight exactly (and vanish when the pairs "
    "are annihilating)",
    lambda: slow_toy_schedule(2048), 10, _depseq_case)


# the claim of each check of an averages case, by its key up to "=";
# x_1..x_n is the dependent sequence, of chain weight m^{-1}
AVERAGE_CLAIMS = {
    "alternating-sums": "every interval sum of (-1)^i x_i is at most 4C "
                        "at every element of the chain weight (eps = 1)",
    "plain-lower": "the plain average of the x_i has stage norm at least "
                   "m^{-1} (eps = 1)",
    "alternating-norm": "the alternating average of the x_i has stage "
                        "norm at most 12C m^{-2} (eps = 1)",
    "plain-norm": "the plain average of the x_i has stage norm at most "
                  "4C m^{-2} (eps = 0)",
    "ris": "the skipped blocks form a 2-RIS with the indices read off "
           "their local supports",
    "ris-h": "the RIS average is at most 11C m_{j0}^{-1} m_h^{-1} (h < j0) "
             "or 5C/n + 5C m_h^{-1} (h >= j0) on weight class h",
    "ris-norm": "the RIS average has stage norm at most 6C m_{j0}^{-1}",
}


def suite_averages(ledger, cases=10, seed=DEFAULT_SEED):
    """Per case, on a fresh arena: the alternating-sum and average
    estimates along a dependent sequence, then the RIS check of a few
    skipped blocks and, when it passes, the estimates of their seeded
    average.  Each check is its own certificate, with its own verdict."""
    sched = slow_toy_schedule(2048)
    rng = random.Random(seed)
    for case in range(cases):
        engine = Engine(forge_arena(sched))
        registry = engine.registry
        rec = _dependent_sequence(case, rng, engine)
        checks = alternating_report(engine, rec, registry.max_rank())
        xs, ris, lams = _ris_blocks(rng, engine, 2, 4)
        checks["ris"] = ris
        if ris.passed:
            checks.update(ris_average_report(engine, xs, ris.values["js"][0],
                                             ris, lams))
        for key, check in checks.items():
            ledger.add(make_certificate(
                "averages-%d-%s" % (case, key),
                AVERAGE_CLAIMS[key.partition("=")[0]], sched,
                {"case": case, "eps": rec.eps, "length": rec.length,
                 "blocks": len(xs), "seed": seed},
                check, stage=check.values["stage"], odd_guard=WAIVE,
                seed=seed))
    return ledger


SUITES = {
    "biorthogonality": suite_biorthogonality,
    "eval-analysis": suite_eval_analysis,
    "treelike": suite_treelike,
    "projections": suite_projections,
    "mt-oracle": suite_mt_oracle,
    "lowerest": suite_lowerest,
    "basicineq": suite_basicineq,
    "depseq": suite_depseq,
    "averages": suite_averages,
}


PILOT_RANKS = (2, 5)   # lowest, highest rank of a probe case's pilot


def probe_length_limit(sched):
    """The longest HI-probe chain that fits in `sched` from the highest
    pilot rank, capped at n_1 (the chain has odd weight index 1).

    Pair i, of coded weight index w, takes min(m_w, n_w) carrier blocks
    CARRIER_GAP ranks apart, the first CARRIER_GAP above max(frontier,
    w), as a source without companions forges them; a block of rank r
    carries the even weight index at most r, which the schedule must
    hold.  The pair's witness sits one rank above its last block
    and the chain link one above that, at the cut p; the link's sigma
    code is at least its first candidate, the smallest integer above
    p/4, which codes the next weight 4*sigma.
    """
    frontier, length = PILOT_RANKS[1], 0
    w = forge_arena(sched).target_weights(1, None)[0]
    while length < sched.length_value(1) and w <= len(sched.m):
        last = max(frontier, w) + CARRIER_GAP * min(sched.m[w - 1],
                                                    sched.length_value(w))
        if last - last % 2 > len(sched.m):
            break
        length += 1
        frontier = last + 2
        w = coded_weight(first_sigma(frontier))
    return length


def probe_schedule(cases, length):
    """The schedule of the HI probe; InputError when the case count or
    the chain length is out of its range."""
    sched = slow_toy_schedule(8192)
    if cases < 1:
        raise InputError("the probe needs at least one case, got %d" % cases)
    longest = probe_length_limit(sched)
    if not 1 <= length <= longest:
        raise InputError("probe length %d not in 1..%d" % (length, longest))
    return sched


def run_hi_probes(ledger, cases=10, length=5, seed=DEFAULT_SEED):
    """Add a `hiprobe-<case>` certificate per case and the
    `hiprobe-direction` tally of them; returns the ledger, whose
    certificates `bdspace hiprobe` prints its lines from."""
    sched = probe_schedule(cases, length)
    rng = random.Random(seed)
    strict = 0
    for case in range(cases):
        engine = Engine(forge_arena(sched))
        registry = engine.registry
        # a seeded pilot element shifts every later rank in the towers,
        # giving each case a genuinely different instance of the same size
        forge_even(registry, 1, [rng.randint(*PILOT_RANKS)],
                   [Func.unit(registry.base())])
        Y = CarrierSource(engine, companions=False)
        Z = CarrierSource(engine, companions=False)
        _, minus, probe = hi_probe(engine, Y, Z, j0=1, length=length)
        strict += probe.detail["strict"]
        ledger.add(make_certificate(
            "hiprobe-%d" % case,
            "stage-truncated difference norm against the exact chain "
            "witness for the sum norm (direction probe; the asymptotic "
            "bound is out of reach at this scale)",
            sched,
            # the first link weight is 4 * first_even_j - 2
            {"case": case, "length": length, "gap": Y.gap,
             "first_even_j": 1, "seed": seed},
            probe, stage=minus.stage, odd_guard=WAIVE, seed=seed))
    ledger.add(make_certificate(
        "hiprobe-direction",
        "the stage-truncated difference norm falls strictly below the "
        "exact sum-norm witness in at least nine of ten probes",
        sched,
        {"cases": cases, "length": length, "seed": seed},
        Check(judge(strict * 10 >= cases * 9),
              {"strict": strict, "cases": cases}),
        odd_guard=WAIVE, seed=seed))
    return ledger


# -- file formats --------------------------------------------------------------

# a table is written column by column, at most this many rows at a
# time, so the texts held stay small
ROW_BLOCK = 2048
FLAT = frozenset((int, str, bool, type(None)))
# a column of flat values in one C call: no value's text holds "\0",
# which the encoder spells \u0000 inside a string
FLAT_COLUMN = json.JSONEncoder(separators=("\0", ": "), check_circular=False)
LISTS = frozenset((list, tuple))
# a list of nonempty flat lists in one C call: its items' separator
# spells the line breaks between entries of an item at depth 3, and the
# text ",\n    " joins items only after a "]", which no flat entry's
# text ends with, so the breaks between items are mended by a replace
NESTED = json.JSONEncoder(separators=(",\n    ", ": "), check_circular=False)


def nested_text(value):
    """The text at depth 2 of a nonempty list or tuple of nonempty flat
    lists or tuples, as `json.dumps(value, indent=1)` spells it there,
    such as the d* row [[id, "p/q"], ...] of an exported row; None for
    any other value."""
    if type(value) not in LISTS or not value or \
            not LISTS.issuperset(map(type, value)) or not all(value) or \
            not FLAT.issuperset(map(type, chain.from_iterable(value))):
        return None
    return "[\n   [\n    %s\n   ]\n  ]" % NESTED.encode(value)[2:-2].replace(
        "],\n    [", "\n   ],\n   [\n    ")


def column_texts(column, texts):
    """The text at depth 2 of each value of a column: a flat column in
    one call of FLAT_COLUMN, a list of flat lists by `nested_text`, any
    other value as `json.dumps(value, indent=1)`, which escapes each
    newline inside a string, so every newline of its text is a line
    break to indent.  `texts` keeps the text of each tuple by identity
    for one write, so a payload that rows share is spelled once; each
    entry holds its tuple, so no id is reused and (1,) and (True,) never
    share a text.  Other values, as the d* row list of each exported
    row, are not kept."""
    if FLAT.issuperset(map(type, column)):
        return FLAT_COLUMN.encode(column)[1:-1].split("\0")
    spelled = []
    for value in column:
        hit = texts.get(id(value))
        if hit is None:
            hit = (value, nested_text(value) or
                   json.dumps(value, indent=1).replace("\n", "\n  "))
            if type(value) is tuple:
                texts[id(value)] = hit
        spelled.append(hit[1])
    return spelled


def write_rows(rows, out, fmt):
    """A table, as indented JSON or as CSV with list, tuple and dict
    cells in compact JSON.  A table is a sequence of non-empty plain
    dicts that have the keys of rows[0] (strings) in the same order, as
    every table bdspace writes.  JSON is written ROW_BLOCK rows at a
    time, a column at a time, by one %-template of the keys, byte for
    byte as `json.dump(list(rows), indent=1)` and a newline; the texts
    of a block are unnamed, so none outlives its write, and a `Rows`
    table builds the rows of a block only when its slice is read."""
    if fmt == "csv":
        if not rows:
            return
        writer = csv.DictWriter(out, fieldnames=sorted(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(v, separators=(",", ":"))
                             if isinstance(v, (list, tuple, dict)) else v
                             for k, v in row.items()})
    elif not rows:
        out.write("[]\n")
    else:
        keys = list(rows[0])
        template = "{\n  %s\n }" % ",\n  ".join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %s"
            for k in keys)
        texts = {}
        sep = "[\n "
        for start in range(0, len(rows), ROW_BLOCK):
            block = rows[start:start + ROW_BLOCK]
            out.write(sep + ",\n ".join(map(template.__mod__, zip(*[
                column_texts(list(map(itemgetter(k), block)), texts)
                for k in keys]))))
            sep = ",\n "
        out.write("\n]\n")


def open_output(path, opener):
    """opener(path) for an output file, or opener(None) when path is
    None; InputError when the file cannot be opened for writing."""
    try:
        return opener(path)
    except OSError as exc:
        raise InputError("cannot write %s (%s: %s)"
                         % (path, type(exc).__name__, exc)) from None


def rows_sink(args):
    """--out opened for writing, or standard output when it is not given,
    as a context manager; InputError when --out cannot be opened."""
    if args.out:
        return open_output(args.out, lambda path: open(path, "w"))
    return nullcontext(sys.stdout)


# -- subcommands ---------------------------------------------------------------

def cmd_schedule(args):
    sched = load_schedule(args.schedule)
    print(json.dumps({"m": list(sched.m), "n": list(sched.n),
                      "mode": sched.mode, "theta": frac_str(sched.theta),
                      "M": frac_str(sched.M)}))
    return 0


def cmd_gen(args):
    options = registry_options(args)
    with rows_sink(args) as sink:  # an unwritable --out exits before the build
        registry = build_registry(*options, discipline=args.discipline,
                                  guard=ENFORCE if args.mode == "admissible"
                                  else WAIVE)
        write_rows(registry.export_stage_table(args.stage), sink, args.format)
    print("generated %d elements to stage %d"
          % (registry.count_up_to(args.stage), args.stage), file=sys.stderr)
    return 0


def cmd_forge(args):
    even, odd = read_input(args.spec, parse_forge_spec)
    registry = registry_of(args)
    forged = ([forge_even(registry, *tower) for tower in even]
              + [forge_odd_chain(registry, *tower) for tower in odd])
    print(json.dumps({"forged": forged}))
    return 0


def cmd_norm(args):
    coords = read_input(args.point, Func.from_json)
    engine = Engine(registry_of(args))
    ni = sup_norm_interval(engine, Point(coords), args.stage)
    print(json.dumps(ni.to_json()))
    return 0


def cmd_mtnorm(args):
    at_least_one(args.factor, "factor")
    sched = load_schedule(args.schedule)
    if args.excluded is not None and not 1 <= args.excluded <= len(sched.m):
        raise InputError("--excluded %d not in 1..%d"
                         % (args.excluded, len(sched.m)))
    if args.avg:
        key, _, j0 = args.avg.partition("=")
        if key != "j0" or not (j0.isascii() and j0.isdigit()):
            raise InputError("--avg takes j0=J, got %r" % args.avg)
        n = sched.length_value(int(j0))
        x = {k: Fraction(1, n) for k in range(1, n + 1)}
    elif args.point:
        x = read_input(args.point, Func.from_json)
    else:
        raise InputError("mtnorm needs --point or --avg")
    params = MTParams.from_schedule(sched, factor=args.factor,
                                    excluded=args.excluded)
    value, tree = mt_norm(x, params)
    print(frac_str(value))
    if args.tree and tree is not None:
        print(json.dumps(tree.to_json()))
    return 0


def cmd_verify(args):
    """Run a suite with the options given; an option that the suite has
    no parameter for is an InputError."""
    suite = SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    check_registry_options(args)
    at_least_one(args.cases, "cases")
    kw = {"seed": args.seed}
    for opt in ("schedule", "net", "stage", "cap", "cases"):
        value = getattr(args, opt)
        if value is None:
            continue
        if opt not in takes:
            raise InputError("verify %s takes no --%s" % (args.suite, opt))
        kw[opt] = load_schedule(value) if opt == "schedule" else value
    ledger = open_output(args.out, lambda path: Ledger(path))
    suite(ledger, **kw)
    print(json.dumps({"suite": args.suite, "counts": ledger.counts()}))
    return ledger.exit_code()


def cmd_hiprobe(args):
    probe_schedule(args.cases, args.length)  # before --out is emptied
    ledger = open_output(args.out, lambda path: Ledger(path))
    run_hi_probes(ledger, cases=args.cases, length=args.length,
                  seed=args.seed)
    *probes, _ = ledger.certificates   # the last is the direction
    for case, cert in enumerate(probes):
        v = cert.values
        print(json.dumps({"case": case, "witness": v["witness"],
                          "minus_lower": v["minus_lower"],
                          "ratio": v["ratio"],
                          "strict": cert.detail["strict"]}))
    return ledger.exit_code()


def cmd_export(args):
    options = registry_options(args)
    with rows_sink(args) as sink:  # an unwritable --out exits before the build
        engine = Engine(build_registry(*options))
        write_rows(Rows(engine.registry.gammas_up_to(args.stage),
                        lambda xi: {"xi": xi,
                                    "row": engine.d_star(xi).to_json()}),
                   sink, args.format)
    return 0


OPTIONS = {
    "schedule": {"help": "JSON schedule file {m: [...], n: [...]}"},
    "net": {"default": "units", "help": "net policy: paper | units | dyadic:K"},
    "stage": {"type": int, "default": 6},
    "cap": {"type": int, "default": STAGE_CAP},
    "mode": {"choices": ["admissible", "toy"], "default": "toy"},
    "seed": {"type": int, "default": DEFAULT_SEED},
    "out": {"help": "output file (ledger/table)"},
    "format": {"choices": ["json", "csv"], "default": "json"},
}
REGISTRY_OPTIONS = ("schedule", "net", "stage", "cap")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bdspace",
        description="exact finite-stage constructions, norms and "
                    "verification certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, options):
        p = sub.add_parser(name, help=help)
        for opt in options:
            p.add_argument("--" + opt, **OPTIONS[opt])
        p.set_defaults(fn=fn)
        return p

    add("schedule", cmd_schedule, "validate/derive a schedule", ("schedule",))

    p = add("gen", cmd_gen, "materialize stages",
            REGISTRY_OPTIONS + ("mode", "out", "format"))
    p.add_argument("--discipline", choices=[XK, BMT], default=XK)

    p = add("forge", cmd_forge, "forge towers from a JSON description",
            REGISTRY_OPTIONS)
    p.add_argument("spec", help="JSON tower description")

    p = add("norm", cmd_norm, "sup-norm interval of a point file",
            REGISTRY_OPTIONS)
    p.add_argument("point", help="JSON d-coordinates [[gid, 'p/q'], ...]")

    p = add("mtnorm", cmd_mtnorm, "mixed Tsirelson norm", ("schedule",))
    p.add_argument("--point", help="JSON coordinates [[k, 'p/q'], ...]")
    p.add_argument("--avg", help="j0=J: norm of the length-n_J unit average")
    p.add_argument("--factor", type=int, default=4)
    p.add_argument("--excluded", type=int, default=None)
    p.add_argument("--tree", action="store_true")

    p = add("verify", cmd_verify, "run a verification suite",
            REGISTRY_OPTIONS + ("seed", "out"))
    # each suite has its own defaults; None marks an option not given
    p.set_defaults(stage=None, net=None, cap=None)
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--cases", type=int, default=None)

    p = add("hiprobe", cmd_hiprobe, "run the indecomposability probe",
            ("seed", "out"))
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--length", type=int, default=5)

    add("export", cmd_export, "dump the dual-basis rows d*",
        REGISTRY_OPTIONS + ("out", "format"))

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BDSpaceError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

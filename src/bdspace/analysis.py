"""Witness constructions over the materialized index set.

Every device here turns an existence proof into an explicit object plus a
machine-checkable record: RIS certification, lower-estimate elements,
exact pairs, dependent sequences with their alternating-sum estimates,
RIS averages, the basic-inequality recursion producing a norming tree,
and the HI probe comparing ||y+z|| against ||y-z||.  Each check returns a
`Check` (certificates.py): its verdict, the exact values it computed and
a detail mapping; a Check certifies as it stands.

Norm-dependent statements are stage-relative: a violation at stage N is
a disproof, satisfaction is only claimed for the materialized prefix.
Claims whose prerequisites fail at toy scale get the verdict reported.
Everything else is exact rational arithmetic with zero tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction

from .certificates import Check, judge
from .engine import Point, combination
from .errors import (AnnihilatorMissing, BDSpaceError, CutTooSmall,
                     EmptySupport, NotBlockSequence, NotCertifiedRIS,
                     NotSkippedBlock, SearchExhausted, StageOverflow, require)
from .funcs import Func, common_denominator, exact
from .mtnorm import Leaf, MTParams, Node, tree_action, tree_support, \
    verify_norming_tree
from .norms import sup_norm_interval
from .spaces import forge_even

DEPENDENT_C = Fraction(45)    # the constant C of the dependent sequences
MINUS_ONE = Fraction(-1)      # the sign of a unit payload, shared


# -- block sources -------------------------------------------------------------

CARRIER_GAP = 2  # ranks between carriers without companions: skips one


class CarrierSource:
    """Generator of skipped blocks in a fresh tower above the registry.

    Each call forges a carrier element whose single analysis row evaluates
    the Base element, and returns its biorthogonal d-vector.  The
    carrier's weight index escalates past the previous block's range
    (the rapidly-increasing-local-weight recipe, which is what makes the
    blocks a RIS).  A companion of minimal weight is forged one rank
    below the carrier; the block vanishes on it, so every window later
    owns an annihilating unit functional (used by the epsilon = 0 exact
    pairs).  Carriers sit `gap` ranks apart: CARRIER_GAP, and one more
    with companions.
    """

    def __init__(self, engine, companions):
        self.registry = engine.registry
        self.engine = engine
        self.gap = CARRIER_GAP + 1 if companions else CARRIER_GAP
        self.companions = companions

    def next_block(self, above=0):
        """A block vector whose range starts above `above` and above
        everything materialized so far, skipping at least one rank."""
        rank = max(self.registry.frontier(), above) + self.gap
        w = rank if rank % 2 == 0 else rank - 1
        if w > len(self.registry.schedule.m):
            raise SearchExhausted(
                "carrier weight index %d beyond the schedule" % w)
        payload = Func.unit(self.registry.base())
        if self.companions:
            forge_even(self.registry, 1, [rank - 1], [payload.copy()])
        carrier = forge_even(self.registry, w // 2, [rank], [payload])
        return Point(Func.unit(carrier))


def suggested_js(engine, xs):
    """RIS indices read off the local supports: the minimal weight index
    of each block's local support (Base elements excluded)."""
    out = []
    for x in xs:
        _, supp = engine.range_and_local_support(x)
        ws = [engine.registry.records[g].weight_index for g in supp]
        ws = [w for w in ws if w is not None]
        if not ws:
            raise BDSpaceError("block has weightless local support")
        out.append(min(ws))
    return out


def _block_ranges(engine, xs):
    """Ranges of a verified block sequence (strictly increasing, no zeros)."""
    if not xs:
        raise EmptySupport("empty block sequence")
    rans = []
    for k, x in enumerate(xs):
        rng = engine.ran(x)
        if rng is None:
            raise NotBlockSequence("term %d is the zero vector" % k)
        rans.append(rng)
    for k in range(len(rans) - 1):
        if rans[k][1] >= rans[k + 1][0]:
            raise NotBlockSequence(
                "ranges %s and %s of terms %d, %d are not successive"
                % (rans[k], rans[k + 1], k, k + 1))
    return rans


def _skipped_cuts(engine, xs):
    """Cuts p_r = max ran x_r + 1 for a skipped block sequence."""
    rans = _block_ranges(engine, xs)
    for k in range(len(rans) - 1):
        if rans[k][1] + 2 > rans[k + 1][0]:
            raise NotSkippedBlock(
                "no rank is skipped between terms %d and %d" % (k, k + 1))
    return rans, [hi + 1 for _, hi in rans]


def _window_witness(engine, xs, cuts, j, payload):
    """Forge gamma of weight m_{2j} over the skipped cuts p_r = max ran
    x_r + 1: row r carries payload(x_r, p_{r-1}, p_r - 1), a unit-ball
    functional on the window (p_{r-1}, p_r - 1], with p_0 = 0."""
    return forge_even(engine.registry, j, cuts,
                      [payload(x, lo, cut - 1)
                       for x, lo, cut in zip(xs, [0] + cuts, cuts)])


def _at_most(measured, bound, stage, decidable, **detail):
    """The Check of measured <= bound at a stage."""
    return Check(judge(measured <= bound, decidable),
                 {"measured": measured, "bound": bound, "stage": stage}, detail)


def _over_bounds(engine, den, nums, bound_of):
    """[(gid, i, |x(gid)|, bound)] in the canonical (rank, id) order for
    the values num / den of `nums` ({gid: num}, as `Engine.numerators`
    gives them) whose magnitude exceeds bound_of(i), the bound of their
    weight index i; bound_of returns None where no bound applies, and
    Base elements carry none.  Magnitudes are compared as integers, and
    a Fraction is made only for a value above its bound."""
    records = engine.registry.records
    scaled = {}   # i -> (numerator * den, denominator, bound) or None
    over = []
    for gid, v in nums.items():
        i = records[gid].weight_index
        if i is None:
            continue
        b = scaled.get(i, False)
        if b is False:
            bound = bound_of(i)
            b = scaled[i] = None if bound is None else (
                bound.numerator * den, bound.denominator, bound)
        if b is not None and abs(v) * b[1] > b[0]:
            over.append(gid)
    over.sort(key=lambda gid: (records[gid].rank, gid))
    return [(gid, records[gid].weight_index, Fraction(abs(nums[gid]), den),
             scaled[records[gid].weight_index][2]) for gid in over]


def _peak_value(den, nums):
    """max |x(gamma)| over the values num / den of `nums`; 0 if none."""
    return Fraction(max(map(abs, nums.values()), default=0), den)


# -- RIS certification ---------------------------------------------------------

def check_ris(engine, xs, C, js, N):
    """Certify xs as a C-RIS with indices js, exactly over Gamma_N.

    Condition (1) is stage-relative (lower norms at stage N); conditions
    (2) and (3) are exact over the materialized prefix.  The Check's
    values carry C, js and the stage N for the constructions built on it.
    """
    C = Fraction(C)
    js = list(js)
    if len(js) != len(xs):
        raise ValueError("need one index per block")
    if any(js[k] >= js[k + 1] for k in range(len(js) - 1)):
        raise ValueError("indices must be strictly increasing")
    rans = _block_ranges(engine, xs)
    if N < rans[-1][1]:
        raise StageOverflow("stage %d below max ran = %d" % (N, rans[-1][1]))
    sched = engine.registry.schedule
    norm_lowers = []
    cond2_ok = all(js[k + 1] > rans[k][1] for k in range(len(xs) - 1))
    violations = []
    for k, x in enumerate(xs):
        den, nums = engine.numerators(x, N)
        lo = _peak_value(den, nums)   # the stage-N lower norm
        violations += [[k, gid, v, bound] for gid, _, v, bound in _over_bounds(
            engine, den, nums,
            lambda i: C * sched.weight_value(i) if i < js[k] else None)]
        norm_lowers.append([lo, lo <= C])
    ok = cond2_ok and not violations and all(ok for _, ok in norm_lowers)
    return Check(judge(ok), {"C": C, "js": js, "stage": N,
                             "cond1": norm_lowers, "cond2": cond2_ok,
                             "cond3_violations": violations})


# -- lower estimates -----------------------------------------------------------

def lower_estimate_witness(engine, xs, j):
    """Forge gamma of weight m_{2j} witnessing the lower estimate;
    returns (gamma, check, block sum).

    Cuts sit one rank above each block; each analysis row carries the
    signed unit functional at the block's max-abs element over its
    window.  The Check judges the exact identity <e*_gamma, sum x_r> =
    m_{2j}^{-1} sum_r |x_r(eta_r)|; its detail records the
    1/2-sum-of-norms comparison, rhs/2: a skipped block vanishes up to
    the previous cut, so its norm over Gamma_{p_r - 1} is its maximum.
    The block sum is the Point sum x_r, solved up to the rank of gamma,
    which the exact pair scales instead of solving the sum again.
    """
    registry = engine.registry
    rans, cuts = _skipped_cuts(engine, xs)
    if len(xs) >= 2 and 2 * j >= rans[1][0]:
        raise CutTooSmall(
            "weight index %d not below min ran x_2 = %d" % (2 * j, rans[1][0]))
    etas, maxima = [], []

    def signed_peak(x, lo, hi):
        # x vanishes below its range, so on ranks <= lo
        den, nums = engine.numerators(x, hi)
        eta = engine.first_peak(nums)
        if eta is None:     # x vanishes on the window: its first element
            window = registry.window(lo, hi)
            if not window:
                raise BDSpaceError(
                    "window (%d, %d] holds no elements" % (lo, hi))
            eta, best = window[0], 0
        else:
            best = nums[eta]
        etas.append(eta)
        maxima.append(Fraction(abs(best), den))
        return Func.unit(eta, MINUS_ONE) if best < 0 else Func.unit(eta)

    gamma = _window_witness(engine, xs, cuts, j, signed_peak)
    beta = registry.schedule.weight_value(2 * j)
    total = combination([(1, x) for x in xs])
    lhs = engine.pair(Func.unit(gamma), total)
    # the maxima summed as integers over their common denominator
    den = common_denominator(maxima)
    rhs = beta * Fraction(sum(v.numerator * (den // v.denominator)
                              for v in maxima), den)
    half = rhs / 2
    return gamma, Check(
        judge(lhs == rhs),
        {"cuts": cuts, "etas": etas, "maxima": maxima, "lhs": lhs, "rhs": rhs},
        {"half_sum": half, "half_ok": lhs >= half}), total


# -- exact pairs ----------------------------------------------------------------

def _window_annihilator(engine, x, lo, hi):
    """A unit-ball functional on ranks (lo, hi] with <b, x> = 0: e*_gid
    at the first element of the window where x vanishes, else
    (v2 e*_g1 - v1 e*_g2) / (|v1| + |v2|) at its first two, read from
    the integer numerators v, over which x's denominator cancels."""
    _, nums = engine.numerators(x, hi)
    nonzero = []
    for gid in engine.registry.window(lo, hi):
        v = nums.get(gid)
        if v is None:
            return Func.unit(gid)
        nonzero.append((gid, v))
        if len(nonzero) == 2:
            (g1, v1), (g2, v2) = nonzero
            scale = abs(v1) + abs(v2)
            return Func(((g1, Fraction(v2, scale)),
                         (g2, Fraction(-v1, scale))))
    raise AnnihilatorMissing(
        "window (%d, %d] admits no annihilator of the block" % (lo, hi))


def make_exact_pair(engine, xs, j, eps, C):
    """Build a (pair_constant, 2j, eps)-exact pair from a skipped-block RIS.

    eps = 1 scales the block sum so that x(gamma) = 1 exactly, gamma being
    the lower-estimate witness.  eps = 0 forges gamma by the same window
    walk from annihilating rows, one per window, so z(gamma) = 0 exactly.
    Returns (theta, x, gamma, check); the check judges the definition's
    three clauses over the materialized prefix.
    """
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    C = Fraction(C)
    registry = engine.registry
    sched = registry.schedule
    a = len(xs)
    n2j = sched.length_value(2 * j)
    m2j = sched.m[2 * j - 1]
    beta = sched.weight_value(2 * j)
    notes = []
    if a != n2j:
        notes.append("toy length a = %d instead of n_{2j} = %d" % (a, n2j))
    if eps == 1:
        gamma, wit, block_sum = lower_estimate_witness(engine, xs, j)
        total = wit.values["rhs"] / beta   # sum of window maxima
        if total == 0:
            raise SearchExhausted("every block vanishes on its window")
        theta = Fraction(a) / total
        x = block_sum.scaled(theta * m2j / a)
        theta_ok = abs(theta) <= 2
        if not wit.detail["half_ok"]:
            notes.append("half-bound failed at stage scope; theta reported")
        default_claim = 2 * j
    else:
        _, cuts = _skipped_cuts(engine, xs)
        gamma = _window_witness(engine, xs, cuts, j, lambda x, lo, hi:
                                _window_annihilator(engine, x, lo, hi))
        theta = Fraction(1)
        theta_ok = True
        x = combination([(Fraction(m2j, a), xr) for xr in xs])
        # the paper states the middle index as n_{2j}; the 2j-pattern of
        # the section suggests otherwise: the check uses 2j, the detail
        # records n_{2j} as the claimed index
        default_claim = n2j
        notes.append("middle index stated as n_{2j} in the source claim; "
                     "checked with weight index 2j")
    pair_constant = (22 if eps == 1 else 12) * C
    N = registry.rank_of(gamma)
    value = engine.value(x, gamma)
    if value != eps:
        raise BDSpaceError("pair value %s != eps = %d" % (value, eps))
    max_d = max((abs(v) for v in x.d_coords.values()), default=Fraction(0))
    c1_bound = pair_constant * beta
    den, nums = engine.numerators(x, N)
    norm_lower = _peak_value(den, nums)   # the stage-N lower norm
    above = pair_constant * beta   # the bound above weight index 2j
    violations = [list(over) for over in _over_bounds(
        engine, den, nums,
        lambda i: None if i == 2 * j else (
            pair_constant * sched.weight_value(i) if i < 2 * j else above))]
    ok = (max_d <= c1_bound and norm_lower <= pair_constant
          and not violations)
    check = Check(judge(ok), {
        "C": C, "pair_constant": pair_constant, "j": 2 * j, "eps": eps,
        "gamma": gamma, "stage": N, "theta": theta, "value_at_gamma": value,
        "clause1": [max_d, c1_bound],             # max |<d*, x>|, bound
        "clause2_norm": [norm_lower, pair_constant],   # stage-relative
        "clause3_violations": violations,         # gamma', index, value, bound
    }, {"theta_ok": theta_ok, "toy_length": a != n2j, "notes": notes,
        "claimed_index": default_claim})
    return theta, x, gamma, check


# -- dependent sequences ---------------------------------------------------------

@dataclass
class DependentSequenceRecord:
    j0: int
    eps: int
    C: Fraction
    length: int
    xis: list                   # the chain's links; p_i = rank of xi_i
    xs: list                    # the pair vectors
    pair_checks: list           # the Check of each exact pair

    def partial_sums(self, engine):
        """Rows (s, sum_{i<=s} x_i(xi_s), s*eps*m^{-1}, ok) for every s."""
        beta = engine.registry.schedule.weight_value(2 * self.j0 - 1)
        rows = []
        for s in range(1, self.length + 1):
            xi = self.xis[s - 1]
            lhs = sum(engine.value(x, xi) for x in self.xs[:s])
            rhs = s * self.eps * beta
            rows.append((s, lhs, rhs, lhs == rhs))
        return rows

    def validate(self, engine):
        """Exact structural checks of the dependent-sequence definition;
        raises InvariantViolation at the first one that fails.  The
        registry keeps each link's target, its payload id, in its window."""
        registry = engine.registry
        w_odd = 2 * self.j0 - 1
        require(len(self.xs) == len(self.xis) == self.length,
                "link lists differ in length")
        prev, pred = 0, None
        for i, (x, xi) in enumerate(zip(self.xs, self.xis), start=1):
            lo, hi = engine.ran(x) or (prev, prev)  # a zero x has no range
            rec = registry.record(xi)
            for ok, what in (
                    (rec.weight_index == w_odd, "xi off the chain weight"),
                    (rec.predecessor == pred, "xi does not extend the chain"),
                    (prev < lo and hi < rec.rank,
                     "range outside (p_{i-1}, p_i)"),
                    (len(rec.payload or ()) == 1,
                     "xi evaluates no single eta")):
                require(ok, "link %d: %s" % (i, what))
            (eta,) = rec.payload
            # the first weight index the registry admits is the link's
            require(registry.record(eta).weight_index
                    in registry.target_weights(w_odd, pred)[:1],
                    "link %d: eta weight index is not the link weight" % i)
            prev, pred = rec.rank, xi
        return True


def make_dependent_sequence(engine, j0, sources, eps, C, length,
                            blocks_per_pair):
    """Thread exact pairs through a forged odd-weight chain of weight
    m_{2j0-1}, alternating over the given block sources.

    Each pair is built at the first weight index the registry admits for
    the target of its link: for the head the least index = 2 mod 4, then
    the coded index 4*sigma(previous link).  Toy lengths below n_{2j0-1}
    are allowed and recorded.

    blocks_per_pair is an int, or "weight" to use m_w blocks for a pair
    of weight m_w -- the sizing that keeps every coordinate of the pair
    vectors at most 1 (needed when comparing norms, as in the HI probe).
    """
    registry = engine.registry
    sched = registry.schedule
    w_odd = 2 * j0 - 1
    if w_odd > len(sched.m):
        raise SearchExhausted("odd weight index %d beyond schedule" % w_odd)
    if length > sched.length_value(w_odd):
        raise ValueError("length exceeds n_{2j0-1} = %d"
                         % sched.length_value(w_odd))
    sources = list(sources)
    rec = DependentSequenceRecord(
        j0=j0, eps=eps, C=Fraction(C), length=length, xis=[], xs=[],
        pair_checks=[])
    xi = None
    prev_cut = 0
    for i in range(1, length + 1):
        allowed = registry.target_weights(w_odd, xi)
        if not allowed:
            raise SearchExhausted(
                "link %d admits no target weight index within the schedule"
                % i)
        w = allowed[0]
        if blocks_per_pair == "weight":
            a_i = min(sched.m[w - 1], sched.length_value(w))
        else:
            a_i = min(blocks_per_pair, sched.length_value(w))
        source = sources[(i - 1) % len(sources)]
        blocks = [source.next_block(above=max(prev_cut, w))
                  for _ in range(a_i)]
        _, x, eta, pr = make_exact_pair(engine, blocks, w // 2, eps, C)
        p_i = registry.rank_of(eta) + 1
        xi = registry.intern(p_i, w_odd, Func.unit(eta), xi)
        rec.xis.append(xi)
        rec.xs.append(x)
        rec.pair_checks.append(pr)
        prev_cut = p_i
    rec.validate(engine)
    return rec


def alternating_report(engine, rec, N):
    """Exact interval sums of (-1)^i x_i at odd-weight elements, plus the
    stage-N norms of the plain and alternating averages: {key: Check},
    the keys "alternating-sums", "plain-lower" and "alternating-norm"
    (eps = 1) or "plain-norm" (eps = 0).

    The paper bounds (4C; 12C m^{-2} / 4C m^{-2}) are judged only when
    the schedule satisfies the quoted prerequisites; otherwise the
    verdict is reported.
    """
    registry = engine.registry
    sched = registry.schedule
    w_odd = 2 * rec.j0 - 1
    beta = sched.weight_value(w_odd)
    n = rec.length
    top = registry.rank_of(rec.xis[-1])
    if N < top:
        raise StageOverflow("stage %d below the chain top %d" % (N, top))
    # the odd guard at the first link's target weight is what makes
    # PlusMinus assertable
    (eta,) = registry.record(rec.xis[0]).payload
    guard_ok = registry.guard_holds(registry.record(eta).weight_index, w_odd)
    signs = [(-1) ** i for i in range(1, n + 1)]
    worst, worst_at = Fraction(0), None
    for gid, prefix in _prefix_sums(engine, signs, rec.xs, w_odd, N):
        # the largest |prefix[hi] - prefix[lo]| over lo < hi
        s = max(prefix) - min(prefix)
        if s > worst:
            worst, worst_at = s, gid
    plain = combination([(Fraction(1, n), x) for x in rec.xs])
    alt = combination([(Fraction(c, n), x) for c, x in zip(signs, rec.xs)])
    ni_plain = sup_norm_interval(engine, plain, N)
    ni_alt = sup_norm_interval(engine, alt, N)
    C = rec.C
    if rec.eps == 0:
        return {"plain-norm":
                _at_most(ni_plain.lower, 4 * C * beta * beta, N, False)}
    return {
        "alternating-sums":
            _at_most(worst, 4 * C, N, guard_ok, witness=worst_at),
        "plain-lower":
            Check(judge(ni_plain.lower >= beta),
                  {"measured": ni_plain.lower, "bound": beta, "stage": N}),
        "alternating-norm":
            _at_most(ni_alt.lower, 12 * C * beta * beta, N, False),
    }


def hi_probe(engine, Y, Z, j0, length):
    """The ||y+z|| vs ||y-z|| experiment along an alternating dependent
    sequence (C = DEPENDENT_C, m_w blocks for a pair of weight m_w): y
    sums the odd-indexed pairs (from Y), z the even-indexed (from Z).
    ||y+z|| >= length * m_{2j0-1}^{-1} exactly by the chain identity.

    Returns the norm intervals of y+z and y-z over Gamma_N, N the
    registry's frontier, and the reported Check of the minus norm
    against the witness and the paper bound."""
    rec = make_dependent_sequence(engine, j0, [Y, Z], eps=1, C=DEPENDENT_C,
                                  length=length, blocks_per_pair="weight")
    beta = engine.registry.schedule.weight_value(2 * j0 - 1)
    N = engine.registry.frontier()
    # each pair vector holds its values up to its gamma: catch them up to
    # stage N, so that y + z and y - z add solved values
    for x in rec.xs:
        engine.evaluate(x, N)
    witness_value = length * beta
    ni_plus = sup_norm_interval(
        engine, combination([(1, x) for x in rec.xs]), N)
    ni_minus = sup_norm_interval(engine, combination(
        [((-1) ** i, x) for i, x in enumerate(rec.xs)]), N)
    require(ni_plus.lower >= witness_value, "chain witness missing from stage")
    paper_bound = 12 * DEPENDENT_C * length * beta * beta
    return ni_plus, ni_minus, Check(
        judge(ni_minus.lower <= paper_bound, decidable=False),
        {"witness": witness_value, "minus_lower": ni_minus.lower,
         "ratio": ni_minus.lower / witness_value, "paper_bound": paper_bound},
        {"strict": ni_minus.lower < witness_value})


def _prefix_sums(engine, coefs, xs, w, N):
    """(gid, prefix) for each element of weight index w in Gamma_N, in
    (rank, id) order: prefix[i] sums c_k x_k(gid) over the first i terms."""
    registry = engine.registry
    for gid in registry.gammas_up_to(N):
        if registry.records[gid].weight_index == w:
            prefix = [Fraction(0)]
            for c, x in zip(coefs, xs):
                prefix.append(prefix[-1] + c * engine.value(x, gid))
            yield gid, prefix


# -- the basic inequality --------------------------------------------------------

def basic_inequality_witness(engine, xs, lams, s, gamma, cert, j0=None):
    """Run the basic-inequality recursion, returning (k0, g*, check).

    g* is a norming tree over the block indices in W[(A_{3n_j}, m_j^{-1})]
    (excluding j0 when given); the certificate checks tree membership,
    supp g* > k0, weight(g*) = weight(gamma), and the exact two-sided
    inequality |<e*_gamma, P_(s,inf) sum lam_k x_k>| <=
    5C|lam_{k0}| + 5C<g*, sum |lam_k| e_k>.
    """
    if cert is None or not cert.passed:
        raise NotCertifiedRIS("blocks lack a passing RIS certificate")
    registry = engine.registry
    C, js, stage = (cert.values[k] for k in ("C", "js", "stage"))
    lams = [exact(l) for l in lams]
    if len(lams) != len(xs):
        raise ValueError("need one coefficient per block")
    rans = _block_ranges(engine, xs)
    params = MTParams.from_schedule(registry.schedule, factor=3, excluded=j0)

    if j0 is not None:
        _check_excluded_hypothesis(engine, xs, lams, C, j0, stage)

    def argmax_lam(pool):   # the first largest |lam_k|
        return max(pool, key=lambda k: abs(lams[k]))

    def rec(gid, idx, lo):
        record = registry.record(gid)
        if record.rank == 1 or record.rank <= lo:
            return idx[0], None
        h = record.weight_index
        if j0 is not None and h == j0:
            below = [k for k in idx if rans[k][0] <= lo]
            pool = idx if not below else [k for k in idx if k >= max(below)]
            return argmax_lam(pool), None
        rows = engine.evaluation_analysis(gid)
        small = [k for k in idx if js[k] <= h]
        if small:
            l = max(small)
            k0 = argmax_lam([k for k in idx if k <= l])
            idx_prime = [k for k in idx if k > l]
        else:
            k0 = None
            idx_prime = idx
        # ran P_(lo,inf) x_k of each block that the projection keeps
        kept = [(k, max(rans[k][0], lo + 1), rans[k][1])
                for k in idx_prime if rans[k][1] > lo]
        cutranks = [row.rank for row in rows]
        I0 = [k for k, a, b in kept if any(a <= p <= b for p in cutranks)]
        rest = [(k, a, b) for k, a, b in kept if k not in I0]
        children = [(k, Leaf(1, k)) for k in I0]
        prev_cut = 0
        for row in rows:
            Ir = [k for k, a, b in rest if a < row.rank and b > prev_cut]
            if Ir:
                s_r = max(lo, prev_cut)
                ysum = combination([(lams[k], xs[k]) for k in Ir])
                # the first eta in (rank, id) order where |P_(s_r,inf) y| peaks
                etas = sorted(row.payload,
                              key=lambda g: (registry.rank_of(g), g))
                best_eta = max(etas, key=lambda g: abs(
                    engine.eval_after_projection(g, s_r, ysum)))
                k_r, g_r = rec(best_eta, Ir, s_r)
                children.append((k_r, Leaf(1, k_r)))
                if g_r is not None:
                    children.append((tree_support(g_r)[0], g_r))
            prev_cut = row.rank
        if k0 is None:
            # no small-weight block: the direct 5C|lam_{k0}| term absorbs
            # the smallest contributing index, whose leaf is dropped
            k0 = min((k for k, _ in children), default=idx[0])
            children = [(key, t) for key, t in children
                        if not (isinstance(t, Leaf) and t.k == k0)]
        children.sort(key=lambda kt: kt[0])
        if not children:
            return k0, None
        return k0, Node(j=h, children=tuple(t for _, t in children))

    k0, gstar = rec(gamma, list(range(len(xs))), s)
    total = combination(zip(lams, xs))
    lhs = abs(engine.eval_after_projection(gamma, s, total))
    action = Fraction(0)
    tree_ok, tree_reason = True, ""
    supp_ok, weight_ok = True, True
    if gstar is not None:
        tree_ok, tree_reason = verify_norming_tree(gstar, params)
        supp_ok = tree_support(gstar)[0] > k0
        weight_ok = gstar.j == registry.record(gamma).weight_index
        action = tree_action(gstar, params).dot(
            {k: abs(lams[k]) for k in range(len(xs))})
    rhs = 5 * C * abs(lams[k0]) + 5 * C * action
    return k0, gstar, Check(
        judge(lhs <= rhs and tree_ok and supp_ok and weight_ok),
        {"k0": k0, "gamma": gamma, "s": s, "stage": stage, "lhs": lhs,
         "rhs": rhs, "inequality_ok": lhs <= rhs, "tree_ok": tree_ok,
         "supp_ok": supp_ok, "weight_ok": weight_ok, "excluded": j0},
        {"tree_reason": tree_reason})


def _check_excluded_hypothesis(engine, xs, lams, C, j0, N):
    """The extra hypothesis of the excluded-index variant, exactly over
    Gamma_N: interval sums at weight-m_{j0} elements stay below 2C max."""
    n = len(xs)
    for gid, prefix in _prefix_sums(engine, lams, xs, j0, N):
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                cap = 2 * C * max(abs(lams[k]) for k in range(lo, hi))
                if abs(prefix[hi] - prefix[lo]) > cap:
                    raise BDSpaceError(
                        "excluded-index hypothesis fails at element %d, "
                        "interval [%d, %d)" % (gid, lo, hi))


def ris_average_report(engine, xs, j0, cert, lams):
    """Maxima of |n^{-1} sum lam_k x_k(gamma)| over Gamma_N, N the
    registry's frontier, grouped by the weight class h of gamma, against
    the bound table (11C m_{j0}^{-1} m_h^{-1} below j0; 5C/n + 5C
    m_h^{-1} at or above): {"ris-h=<h>": Check}, plus "ris-norm", the
    stage-N norm against 6C m_{j0}^{-1}.

    A class is judged only when the schedule satisfies the quoted
    prerequisite n_{j0} > 5 m_{j0}^2 at length n = n_{j0}; otherwise,
    and always for the norm, the verdict is reported."""
    if cert is None or not cert.passed:
        raise NotCertifiedRIS("blocks lack a passing RIS certificate")
    registry = engine.registry
    sched = registry.schedule
    C = cert.values["C"]
    n = len(xs)
    avg = combination([(exact(lam) / n, x) for lam, x in zip(lams, xs)])
    N = registry.frontier()
    den, nums = engine.numerators(avg, N)
    norm_lower = _peak_value(den, nums)   # the stage-N lower norm
    classes = {}   # h -> {gid: num} of weight index h
    for gid, v in nums.items():
        h = registry.records[gid].weight_index
        if h is not None:
            classes.setdefault(h, {})[gid] = v
    per_class = {}
    for h, values in classes.items():
        at = engine.first_peak(values)
        per_class[h] = (Fraction(abs(values[at]), den), at)
    for gid in registry.gammas_up_to(N):   # a class where avg vanishes
        h = registry.records[gid].weight_index
        if h is not None and h not in per_class:
            per_class[h] = (Fraction(0), gid)
    m_j0 = sched.m[j0 - 1]
    prereq = sched.length_value(j0) > 5 * m_j0 * m_j0
    toy_length = n != sched.length_value(j0)
    checks = {}
    for h in sorted(per_class):
        measured, at = per_class[h]
        if h < j0:
            bound = 11 * C * Fraction(1, m_j0) * sched.weight_value(h)
        else:
            bound = 5 * C * Fraction(1, n) + 5 * C * sched.weight_value(h)
        checks["ris-h=%d" % h] = _at_most(
            measured, bound, N, prereq and not toy_length, witness=at,
            prereq_ok=prereq, toy_length=toy_length)
    checks["ris-norm"] = _at_most(norm_lower, 6 * C * Fraction(1, m_j0), N,
                                  False)
    return checks

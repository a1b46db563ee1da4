"""Dense oracles for the engine's sparse paths: the c*, d* and prefix
recursion in `Fraction`s straight from the registry records; the point
evaluator x(gamma) = d_gamma + <c*_gamma, x> for every gamma of Gamma_n
in the canonical (rank, id) order, zeros included; the stage-matrix
columns by forward substitution through every row; and the
biorthogonality check as the full |Gamma_n|^2 sweep of row-column
pairings; the FDD row norms from column-by-row outer products of those
columns.  Also the `Fraction` interval DP for the mixed Tsirelson norm,
the oracle of the integer DP in `bdspace.mtnorm`, and the per-weight
enumeration of every successive-subset split, the reference of the
memoized brute force `mt_norm_exhaustive`.  None of them computes
through the engine's memos or its integer kernel: a stage matrix is read
as Funcs.  The one exception is `fraction_listing`, a point's nonzero
values as Fractions in (rank, id) order, which the tests' Fraction scans
read from `Engine.numerators`."""

from fractions import Fraction

from bdspace import mtnorm
from bdspace.errors import BruteForceCapExceeded
from bdspace.funcs import Func
from bdspace.mtnorm import Leaf, Node


class FractionRecursion:
    """c*_gamma, d*_gamma and P*_{(0,q]} e*_gamma as Funcs of Fractions,
    read from the registry records by the paper's recursion:
    c*_gamma = e*_xi + beta (b* - P*_{(0,cut]} b*) (no e*_xi without a
    predecessor, 0 at the Base), d*_gamma = e*_gamma - c*_gamma, and
    P*_{(0,q]} e*_gamma = e*_gamma at rank <= q, else the sum of
    c*_gamma[h] P*_{(0,q]} e*_h.  Plain recursion, for small
    registries.  It keeps c* and the prefix rows in two memos of its own
    and never reads c*_gamma as the row at q = rank(gamma) - 1, so it
    stays independent of the engine's one row memo."""

    def __init__(self, registry):
        self.registry = registry
        self._c = {}
        self._p = {}

    def c_star(self, gid):
        if gid not in self._c:
            rec = self.registry.records[gid]
            out = Func()
            if rec.rank > 1:
                beta = self.registry.schedule.weight_value(rec.weight_index)
                out.accumulate(rec.payload, beta)
                for h, coef in rec.payload.items():
                    out.accumulate(self.prefix(rec.cut, h), -beta * coef)
                if rec.predecessor is not None:
                    out.iadd(rec.predecessor, Fraction(1))
            self._c[gid] = out
        return self._c[gid]

    def d_star(self, gid):
        return Func.unit(gid) - self.c_star(gid)

    def prefix(self, q, gid):
        if q <= 0:
            return Func()
        if (q, gid) not in self._p:
            if self.registry.rank_of(gid) <= q:
                out = Func.unit(gid)
            else:
                out = Func()
                for h, coef in self.c_star(gid).items():
                    out.accumulate(self.prefix(q, h), coef)
            self._p[(q, gid)] = out
        return self._p[(q, gid)]


def dense_values(engine, point, n):
    """{gid: x(gid)} over all of Gamma_n, in (rank, id) order."""
    oracle = FractionRecursion(engine.registry)
    values = {}
    for gid in engine.registry.gammas_up_to(n):
        val = point.d_coords.get(gid, Fraction(0))
        cs = oracle.c_star(gid)
        if cs:
            val = val + cs.dot(values)
        values[gid] = val
    return values


def dense_sup_norm(engine, point, n):
    """(lower, upper, witness) of the stage-n norm interval, by a full
    sweep: the witness is the first maximum in (rank, id) order."""
    rng = engine.ran(point)
    if rng is None:
        return Fraction(0), Fraction(0), None
    lower, witness, local_max = Fraction(0), None, Fraction(0)
    for gid, v in dense_values(engine, point, n).items():
        v = abs(v)
        if v > lower:
            lower, witness = v, gid
        if engine.registry.rank_of(gid) <= rng[1] and v > local_max:
            local_max = v
    upper = max(engine.registry.schedule.M * local_max, lower)
    return lower, upper, witness


def fraction_listing(engine, point, n):
    """[(gid, x(gid))] for the nonzero values of rank <= n, as Fractions
    in the canonical (rank, id) order, read from `Engine.numerators`."""
    den, nums = engine.numerators(point, n)
    records = engine.registry.records
    return [(gid, Fraction(nums[gid], den))
            for gid in sorted(nums, key=lambda gid: (records[gid].rank,
                                                     gid))]


def dense_columns(ids, rows):
    """{gamma: d_gamma} solving <d*_xi, d_gamma> = delta row by row over
    all of `ids`, each column's nonzeros in the order of `ids`; the rows
    are Funcs."""
    columns = {}
    for gamma in ids:
        col = {}
        for xi in ids:
            val = Fraction(1) if xi == gamma else Fraction(0)
            for delta, coef in rows[xi].items():
                if delta != xi and delta in col:
                    val -= coef * col[delta]
            if val:
                col[xi] = val
        columns[gamma] = col
    return columns


def dense_defects(sm):
    """All (xi, gamma, <d*_xi, d_gamma>) off the identity, pairing every
    row with every column, both read as Funcs."""
    columns = {g: c.to_func() for g, c in sm.columns.items()}
    defects = []
    for xi in sm.ids:
        row = sm.rows[xi].to_func()
        for gamma in sm.ids:
            val = row.dot(columns[gamma])
            if val != (1 if xi == gamma else 0):
                defects.append((xi, gamma, val))
    return defects


def dense_fdd_row_norms(engine, n):
    """({(p, q): value}, {p: value}) of `Engine.fdd_row_norms`, building
    every row of every P_{(0,q]} from the outer products d_xi x d*_xi
    over rank(xi) <= q, and summing each (p, q) and tail row over the
    union of the supports."""
    registry = engine.registry
    ids = registry.gammas_up_to(n)
    oracle = FractionRecursion(registry)
    rows = {xi: oracle.d_star(xi) for xi in ids}
    columns = dense_columns(ids, rows)
    running = {g: {} for g in ids}
    prefix_rows = {0: {g: {} for g in ids}}
    for q in range(1, n + 1):
        for xi in registry.window(q - 1, q):
            for gamma, bval in columns[xi].items():
                tgt = running[gamma]
                for delta, aval in rows[xi].items():
                    v = tgt.get(delta, Fraction(0)) + bval * aval
                    if v:
                        tgt[delta] = v
                    else:
                        tgt.pop(delta, None)
        prefix_rows[q] = {g: dict(r) for g, r in running.items()}
    interval_sums = {}
    for p in range(0, n + 1):
        for q in range(p + 1, n + 1):
            best = Fraction(0)
            for g in ids:
                hi, lo = prefix_rows[q][g], prefix_rows[p][g]
                s = sum((abs(hi.get(k, Fraction(0)) - lo.get(k, Fraction(0)))
                         for k in set(hi) | set(lo)), Fraction(0))
                best = max(best, s)
            interval_sums[(p, q)] = best
    tail_sums = {}
    for p in range(0, n + 1):
        best = Fraction(0)
        for g in ids:
            row = prefix_rows[p][g]
            s = Fraction(0)
            for k in set(row) | {g}:
                ident = Fraction(1) if k == g else Fraction(0)
                s += abs(ident - row.get(k, Fraction(0)))
            best = max(best, s)
        tail_sums[p] = best
    return interval_sums, tail_sums


def fraction_mt_norm(x, params):
    """(value, tree) of `mt_norm` by a top-down DP in `Fraction`s, each
    candidate keyed by (weight index, full cut tuple) and ties broken
    towards the smaller key.  A cap-1 node over its own window is
    theta_j times the window's norm, so it is skipped as never attaining."""
    entries = {int(k): Fraction(v) for k, v in dict(x).items() if v}
    if not entries:
        return Fraction(0), None
    pos = sorted(entries)
    vals = [entries[p] for p in pos]
    memo = {}

    def window(i, k):
        """(value, decision) for the support window [i, k)."""
        key = (i, k)
        if key in memo:
            return memo[key]
        best_val = None
        best_key = None
        best_dec = None
        for t in range(i, k):
            v = abs(vals[t])
            cand_key = (0, (t,))
            if best_val is None or v > best_val or (v == best_val
                                                    and cand_key < best_key):
                best_val, best_key = v, cand_key
                best_dec = ("leaf", t)
        size = k - i
        for j in params.active_indices(size):
            cap = params.cap(j)
            theta = params.theta(j)
            if cap == 1 and size > 1:
                continue
            if cap >= size:
                # singleton split attains the ell_1 bound
                v = theta * sum(abs(vals[t]) for t in range(i, k))
                cuts = tuple(range(i + 1, k))
                cand_key = (j, cuts)
            else:
                v, cuts = best_split(i, k, cap)
                v = theta * v
                cand_key = (j, cuts)
            if v > best_val or (v == best_val and cand_key < best_key):
                best_val, best_key = v, cand_key
                best_dec = ("node", j, cand_key[1])
        memo[key] = (best_val, best_dec)
        return memo[key]

    split_memo = {}

    def best_split(i, k, pieces):
        """Max sum of window norms over exactly min(pieces, k-i) intervals.

        Returns (value, interior cut tuple); refining a split never
        decreases the sum (triangle inequality), so the maximal piece
        count is optimal.
        """
        pieces = min(pieces, k - i)
        key = (i, k, pieces)
        if key in split_memo:
            return split_memo[key]
        if pieces == 1:
            out = (window(i, k)[0], ())
        else:
            best = None
            for cut in range(i + 1, k - pieces + 2):
                head = window(i, cut)[0]
                tail_v, tail_cuts = best_split(cut, k, pieces - 1)
                cand = (head + tail_v, (cut,) + tail_cuts)
                if best is None or cand[0] > best[0] or (
                        cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
            out = best
        split_memo[key] = out
        return out

    def build(i, k):
        _, dec = window(i, k)
        if dec[0] == "leaf":
            t = dec[1]
            return Leaf(sign=1 if vals[t] >= 0 else -1, k=pos[t])
        _, j, cuts = dec
        bounds = [i] + list(cuts) + [k]
        children = tuple(build(bounds[r], bounds[r + 1])
                         for r in range(len(bounds) - 1))
        return Node(j=j, children=children)

    value, _ = window(0, len(pos))
    return value, build(0, len(pos))


def pieces_mt_norm(x, params):
    """The mixed Tsirelson norm by enumerating, for each weight index j,
    every split of a subset into at most l_j successive nonempty subsets
    and summing the memoized norms of its pieces.  Raises
    BruteForceCapExceeded past `mtnorm.ORACLE_BUDGET` distinct subsets."""
    entries = {int(k): Fraction(v) for k, v in dict(x).items() if v}
    if not entries:
        return Fraction(0)
    coords = tuple(sorted(entries))
    memo = {}
    budget = [mtnorm.ORACLE_BUDGET]

    def pieces(pool, max_count):
        """Ordered tuples of disjoint successive nonempty subsets of pool."""
        if max_count == 0 or not pool:
            yield ()
            return
        n = len(pool)
        for first_lo in range(n):
            # the first piece starts at pool[first_lo]
            rest = pool[first_lo + 1:]
            for mask in range(1 << len(rest)):
                piece = (pool[first_lo],) + tuple(
                    c for i, c in enumerate(rest) if mask >> i & 1)
                tail_pool = tuple(c for c in rest if c > piece[-1])
                for tail in pieces(tail_pool, max_count - 1):
                    yield (piece,) + tail

    def best(pool):
        if pool in memo:
            return memo[pool]
        budget[0] -= 1
        if budget[0] < 0:
            raise BruteForceCapExceeded(
                "exhaustive oracle exceeds %d evaluations"
                % mtnorm.ORACLE_BUDGET)
        out = max(abs(entries[c]) for c in pool)
        for j in range(1, len(params.pairs) + 1):
            if j == params.excluded:
                continue
            theta = params.theta(j)
            cap_j = min(params.cap(j), len(pool))
            for split in pieces(pool, cap_j):
                if not split:
                    continue
                if len(split) == 1 and split[0] == pool:
                    # theta < 1, so a one-piece self-split never improves
                    continue
                v = theta * sum(best(p) for p in split)
                if v > out:
                    out = v
        memo[pool] = out
        return out

    return best(coords)

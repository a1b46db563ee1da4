"""The triangular-basis recursion over a registry.

Provides the BD-functionals c*_gamma, the unit-triangular dual basis
d*_gamma = e*_gamma - c*_gamma, the ell_1-side basis projections
P*_{(p,q]}, the biorthogonal vectors d_gamma (columns of the inverse
stage matrix), extension operators, and evaluation analyses.

All functionals are Funcs in e*-coordinates.  X-side vectors are Points:
coefficient vectors in the d-basis plus the nonzero e-coordinates x(gamma)
solved so far.  Ids are a topological order of the basis (c*_gamma only
mentions older ids), so a Point is evaluated by a sparse triangular solve
in the style of Gilbert & Peierls: the engine keeps a reverse-dependency
index (for each id, the ids whose c* mentions it), walks it from the
d-support up to the requested stage, and solves only the ids it reaches.
A stage-matrix column d_gamma is the same solve from the unit d-vector at
gamma, and the biorthogonality check forms the sparse product D*.D and
compares it with the identity.  Everything is exact rational.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .errors import BaseHasNoAnalysis, StageOverflow
from .funcs import Func


@dataclass
class Point:
    """X-side vector: d-basis coefficients plus solved e-coordinates.

    `e_cache` holds only the nonzero values x(gamma).  It is complete for
    the elements that `covered` = (stage, size) names: those with
    rank <= stage and id < size, so a missing key there means zero.  Only
    the Engine reads and grows it (`evaluate`, `value`, `nonzeros`).
    """
    d_coords: Func = field(default_factory=Func)
    e_cache: dict = field(default_factory=dict)
    covered: tuple = (0, 0)

    def is_zero(self):
        return not self.d_coords

    def scaled(self, scalar):
        scalar = Fraction(scalar)
        cache = {k: scalar * v for k, v in self.e_cache.items()} if scalar \
            else {}
        return Point(self.d_coords.scaled(scalar), cache, self.covered)

    def __add__(self, other):
        return Point(d_coords=self.d_coords + other.d_coords)

    def __sub__(self, other):
        return self + other.scaled(-1)


@dataclass
class StageMatrix:
    """The dual-basis rows d*_xi and the basis columns d_gamma over
    Gamma_N.  Each column is reach-solved from the unit d-vector at gamma
    and lists its nonzeros in (rank, id) order."""
    stage: int
    ids: list                    # Gamma_N in (rank, id) order
    rows: dict                   # xi -> d*_xi as Func (e*-coordinates)
    columns: dict                # gamma -> d_gamma restricted to Gamma_N

    def biorthogonality_defects(self):
        """All (xi, gamma, <d*_xi, d_gamma>) off the identity, in the
        (xi, gamma) order of `ids` -- empty when exact.

        D*.D is formed sparsely: the rows are transposed once into
        delta -> [(xi, coef)] and each column is scattered into the rows
        that meet its support.  An entry the scatter never reaches is a
        structural zero, so a missing diagonal is still a defect."""
        ids = self.ids
        meets = {}
        for xi in ids:
            for delta, coef in self.rows[xi].items():
                meets.setdefault(delta, []).append((xi, coef))
        defects = []
        for gamma in ids:
            product = {}
            for delta, val in self.columns[gamma].items():
                for xi, coef in meets.get(delta, ()):
                    if xi in product:
                        product[xi] += coef * val
                    else:
                        product[xi] = coef * val
            product.setdefault(gamma, Fraction(0))
            defects.extend((xi, gamma, val) for xi, val in product.items()
                           if val != (1 if xi == gamma else 0))
        order = {gid: i for i, gid in enumerate(ids)}
        defects.sort(key=lambda d: (order[d[0]], order[d[1]]))
        return defects


class Engine:
    """Memoized functional calculus over one registry."""

    def __init__(self, registry):
        self.registry = registry
        self._c_star = {}
        self._d_star = {}
        self._prefix = {}  # (q, gid) -> P*_{(0,q]} e*_gid
        self._users = []   # id -> ids whose c* mentions it, ascending

    # -- BD-functionals and the dual basis ------------------------------------

    def c_star(self, gid):
        out = self._c_star.get(gid)
        if out is None:
            self.registry.record(gid)  # UnknownGamma if dangling
            self._fill((None, gid))
            out = self._c_star[gid]
        return out

    def _fill(self, key):
        """Memoize c*_gid (key (None, gid)) or P*_{(0,q]} e*_gid (key
        (q, gid), q >= 1) and every memo entry it needs.

        c*_gid needs the prefixes of its payload at its cut, and a prefix
        of e*_gid above its rank needs c*_gid and the prefixes of its
        entries.  A forged tower nests these once per chain link, deeper
        than Python's recursion limit, so an explicit stack replaces the
        recursion; it visits the entries in the recursion's order."""
        c_memo, p_memo = self._c_star, self._prefix
        records = self.registry.records
        stack = [key]
        while stack:
            q, gid = stack[-1]
            rec = records[gid]
            if q is None:
                if gid in c_memo:
                    stack.pop()
                    continue
                if rec.rank == 1:
                    out = Func()
                else:
                    need = [(rec.cut, h) for h in rec.payload
                            if rec.cut > 0 and (rec.cut, h) not in p_memo]
                    if need:
                        stack.extend(reversed(need))
                        continue
                    beta = self.registry.schedule.weight_value(
                        rec.weight_index)
                    tail = rec.payload - self.project_prefix(rec.cut,
                                                             rec.payload)
                    out = tail.scaled(beta)
                    if rec.predecessor is not None:
                        out.iadd(rec.predecessor, Fraction(1))
                c_memo[gid] = out
            else:
                if (q, gid) in p_memo:
                    stack.pop()
                    continue
                if rec.rank <= q:
                    out = Func.unit(gid)
                else:
                    cs = c_memo.get(gid)
                    if cs is None:
                        stack.append((None, gid))
                        continue
                    need = [(q, h) for h in cs if (q, h) not in p_memo]
                    if need:
                        stack.extend(reversed(need))
                        continue
                    out = Func()
                    for hid, coef in cs.items():
                        out.accumulate(p_memo[(q, hid)], coef)
                p_memo[(q, gid)] = out
            stack.pop()

    def d_star(self, gid):
        memo = self._d_star
        if gid in memo:
            return memo[gid]
        out = self.c_star(gid).scaled(-1)
        out.iadd(gid, Fraction(1))
        memo[gid] = out
        return out

    # -- ell_1-side projections ------------------------------------------------

    def prefix_estar(self, q, gid):
        """P*_{(0,q]} e*_gid, memoized."""
        if q <= 0:
            return Func()
        out = self._prefix.get((q, gid))
        if out is None:
            self.registry.record(gid)  # UnknownGamma if dangling
            self._fill((q, gid))
            out = self._prefix[(q, gid)]
        return out

    def project_prefix(self, q, f):
        """P*_{(0,q]} f for any Func f."""
        out = Func()
        for gid, coef in f.items():
            out.accumulate(self.prefix_estar(q, gid), coef)
        return out

    def project_l1(self, interval, f):
        """P*_I f for a rank interval I = (lo, hi]; hi=None means infinity."""
        lo, hi = interval
        if hi is None:
            return f - self.project_prefix(lo, f)
        if hi <= lo:
            return Func()
        return self.project_prefix(hi, f) - self.project_prefix(lo, f)

    def project_open(self, lo, hi, f):
        """P*_{(lo, hi)} f over the open rank interval, i.e. ranks lo+1 .. hi-1."""
        return self.project_l1((lo, hi - 1), f)

    # -- evaluation analyses ----------------------------------------------------

    def evaluation_analysis(self, gid):
        """The records of the chain ending at gid, head first; row r
        reads p_r as its rank, b*_r as its payload and xi_r as its id."""
        if self.registry.rank_of(gid) == 1:
            raise BaseHasNoAnalysis("element %d is the Base element" % gid)
        return self.registry.chain(gid)

    def analysis_identity_sides(self, gid, tail_variant):
        """(e*_gid, reconstruction) for the evaluation-analysis identity.

        tail_variant=False uses the windows P*_{(p_{r-1}, p_r)}, otherwise the
        tails P*_{(p_{r-1}, infinity)}; both must reproduce e*_gid exactly.
        """
        rows = self.evaluation_analysis(gid)
        rec = self.registry.record(gid)
        beta = self.registry.schedule.weight_value(rec.weight_index)
        rhs = Func()
        prev_cut = 0
        for row in rows:
            rhs.accumulate(self.d_star(row.id))
            if tail_variant:
                piece = row.payload - self.project_prefix(prev_cut, row.payload)
            else:
                piece = self.project_open(prev_cut, row.rank, row.payload)
            rhs.accumulate(piece, beta)
            prev_cut = row.rank
        return Func.unit(gid), rhs

    # -- points ---------------------------------------------------------------

    def _index(self):
        """The reverse-dependency index, grown to the whole registry."""
        users = self._users
        for gid in range(len(users), len(self.registry)):
            users.append([])
            for hid in self.c_star(gid):
                users[hid].append(gid)
        return users

    def evaluate(self, point, stage):
        """Solve for every nonzero x(gamma) of rank <= stage into
        point.e_cache and return it.

        x(gamma) = d_gamma + <c*_gamma, x> is nonzero only on the d-support
        or where c*_gamma meets a nonzero value, so candidates are the
        d-support and the users of nonzero values; they are solved in id
        order, pruned at rank > stage.  Elements the coverage marker names
        are final and skipped, so a registry grown since the last call,
        even below its stage, is caught up.  The covered stage never
        shrinks."""
        cache = point.e_cache
        old_stage, old_size = point.covered
        size = len(self.registry)
        if stage <= old_stage and size == old_size:
            return cache
        stage = max(stage, old_stage)
        records = self.registry.records
        users = self._index()
        c_memo = self._c_star
        d = point.d_coords

        def fresh(gid):
            rank = records[gid].rank
            return rank <= stage and (gid >= old_size or rank > old_stage)

        heap = []
        for gid in d:
            self.registry.record(gid)  # UnknownGamma if dangling
            if fresh(gid):
                heap.append(gid)
        for hid in cache:
            heap.extend(gid for gid in users[hid] if fresh(gid))
        heapify(heap)
        last = None
        while heap:
            gid = heappop(heap)
            if gid == last:
                continue
            last = gid
            val = d.get(gid, 0) + c_memo[gid].dot(cache)
            if val:
                cache[gid] = val
                for uid in users[gid]:
                    if fresh(uid):
                        heappush(heap, uid)
        point.covered = (stage, size)
        return cache

    def value(self, point, gid):
        """x(gamma) for one element."""
        self.evaluate(point, self.registry.rank_of(gid))
        return point.e_cache.get(gid, Fraction(0))

    def nonzeros(self, point, n):
        """[(gid, x(gid))] for the nonzero values of rank <= n, in the
        canonical (rank, id) order."""
        self.evaluate(point, n)
        records = self.registry.records
        return sorted(((gid, v) for gid, v in point.e_cache.items()
                       if records[gid].rank <= n),
                      key=lambda item: (records[item[0]].rank, item[0]))

    def pair(self, f, point):
        """<f, x> for a Func f against a Point x."""
        if f:
            self.evaluate(point, max(self.registry.rank_of(g) for g in f))
        return f.dot(point.e_cache)

    def ran(self, point):
        """Smallest rank interval [lo, hi] covering the d-support; None if zero."""
        if point.is_zero():
            return None
        ranks = [self.registry.rank_of(g) for g in point.d_coords]
        return (min(ranks), max(ranks))

    def fdd_project(self, interval, point):
        """P_I x: keep d-coordinates with rank in (lo, hi] (hi=None: infinity)."""
        lo, hi = interval
        keep = self.point_from_d(
            {g: c for g, c in point.d_coords.items()
             if lo < self.registry.rank_of(g) and (hi is None or self.registry.rank_of(g) <= hi)})
        return keep

    def point_from_d(self, d_coords):
        return Point(d_coords=Func(d_coords))

    def eval_after_projection(self, gid, s, point):
        """<e*_gamma, P_{(s, infinity)} x> computed on the ell_1 side."""
        f = self.project_l1((s, None), Func.unit(gid))
        return self.pair(f, point)

    def extend(self, q, u, stage):
        """i_q(u): the unique vector in span{d_gamma : gamma in Gamma_q}
        whose restriction to Gamma_q equals u; e-cache filled to `stage`."""
        self._require_stage(q)
        u_full = {g: Fraction(v) for g, v in u.items() if v}
        d = Func()
        for gid in self.registry.gammas_up_to(q):
            val = u_full.get(gid, Fraction(0)) - self.c_star(gid).dot(u_full)
            if val:
                d[gid] = val
        point = Point(d_coords=d)
        self.evaluate(point, max(q, stage))
        return point

    def range_and_local_support(self, point):
        """(range interval, local support at q = max ran x)."""
        rng = self.ran(point)
        if rng is None:
            return None, set()
        q = rng[1]
        return rng, {gid for gid, _ in self.nonzeros(point, q)}

    # -- stage matrices and operator norms --------------------------------------

    def _require_stage(self, n):
        if not 1 <= n <= self.registry.frontier():
            raise StageOverflow("Gamma_%d not materialized" % n)

    def stage_matrix(self, n):
        """Rows d*_xi and columns d_gamma over Gamma_n; each column is the
        point with the single d-coordinate gamma, reach-solved to stage n."""
        self._require_stage(n)
        ids = self.registry.gammas_up_to(n)
        rows = {gid: self.d_star(gid) for gid in ids}
        columns = {gamma: dict(self.nonzeros(Point(Func.unit(gamma)), n))
                   for gamma in ids}
        return StageMatrix(stage=n, ids=ids, rows=rows, columns=columns)

    def basis_constant(self, n):
        """max_q ||P*_{(0,q]}||_{ell_1 -> ell_1} over Gamma_n, exact: the
        largest (0, q] row norm of `fdd_row_norms`.  It is at least 1, the
        norm of the unit row e*_gamma that P*_{(0,q]} keeps for
        q >= rank(gamma)."""
        interval, _ = self.fdd_row_norms(n)
        return max(interval[(0, q)] for q in range(1, n + 1))

    def fdd_row_norms(self, n):
        """Stage-n max-row-sums of every P_{(p,q]} and every tail P_{(p,inf)}.

        Returns ({(p, q): value}, {p: value}).  Row gamma of P_{(0,q]} in
        e-coordinates is P*_{(0,q]} e*_gamma, read from the prefix memo.
        For q >= rank(gamma) that row is e*_gamma, so only the rows
        q < rank(gamma) are read: pairs with p >= rank(gamma) contribute
        0, and a pair with q >= rank(gamma) > p contributes the row's tail
        sum at p, computed once.  The rows of gamma are summed in integer
        numerators over one denominator, the lcm of theirs, and the
        maxima are cross-multiplied.
        """
        self._require_stage(n)
        interval = {(p, q): (0, 1) for p in range(n + 1)
                    for q in range(p + 1, n + 1)}
        tail = dict.fromkeys(range(n + 1), (0, 1))

        def bump(best, key, num, den):
            b_num, b_den = best[key]
            if num * b_den > b_num * den:
                best[key] = (num, den)

        for gid in self.registry.gammas_up_to(n):
            rank = self.registry.rank_of(gid)
            prefixes = [self.prefix_estar(q, gid) for q in range(1, rank)]
            den = lcm(*{v.denominator for row in prefixes
                        for v in row.values()})
            rows = [{}] + [{k: v.numerator * (den // v.denominator)
                            for k, v in row.items()} for row in prefixes]
            for p, lo in enumerate(rows):
                gap = _l1_gap({gid: den}, lo)
                bump(tail, p, gap, den)
                for q in range(p + 1, n + 1):
                    bump(interval, (p, q),
                         _l1_gap(rows[q], lo) if q < rank else gap, den)
        return ({k: Fraction(*v) for k, v in interval.items()},
                {k: Fraction(*v) for k, v in tail.items()})


def _l1_gap(hi, lo):
    """||hi - lo||_1 of two sparse maps."""
    return sum(abs(v - lo.get(k, 0)) for k, v in hi.items()) + \
        sum(abs(v) for k, v in lo.items() if k not in hi)

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

One memo holds the prefix rows P*_{(0,q]} e*_gamma; as P_{(0,n]} = i_n r_n,
e*_gamma o P_{(0,n]} = c*_gamma for gamma in Delta_{n+1}, so the row at
q = rank(gamma) - 1 is c*_gamma.

Storage is one exact kernel, `funcs.IntVec`: integer numerators over one
denominator per vector.  The row memo, each d* row, a Point's solved
values and the stage-matrix rows and columns are IntVecs, so the solve,
the D*.D scatter, the analysis identity and the row norms run in `int`
arithmetic; a solved value is reduced by its gcd before it meets its
point's common denominator.  `Func` and `Fraction` stay the types at the
boundary: d-coordinates and payloads come in as Funcs, and `d_star`,
the projections, `value`, `pair`, the biorthogonality defects and the
row norms hand out Funcs and Fractions.  Only `numerators` hands a
point's values out as integers over its denominator, for the scans that
compare magnitudes.  Multiples, sums and differences of Points are all
`combination`s.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, itemgetter

from .errors import BaseHasNoAnalysis, StageOverflow
from .funcs import Func, IntVec, common_denominator, exact


@dataclass
class Point:
    """X-side vector: d-basis coefficients plus solved e-coordinates.

    `e_cache` holds only the nonzero values x(gamma), as an IntVec.  It
    is complete for the elements that `covered` = (stage, size) names:
    those with rank <= stage and id < size, so a missing key there means
    zero.  Only the Engine reads and grows it (`evaluate`, `value`,
    `pair`, `numerators`).  Multiples, sums and differences are
    `combination`s, which decide what a result keeps of the solved
    values.
    """
    d_coords: Func = field(default_factory=Func)
    e_cache: IntVec = field(default_factory=IntVec)
    covered: tuple = (0, 0)

    def is_zero(self):
        return not self.d_coords

    def scaled(self, scalar):
        return combination([(scalar, self)])

    def __add__(self, other):
        return combination([(1, self), (1, other)])

    def __sub__(self, other):
        return combination([(1, self), (-1, other)])


def combination(terms):
    """The Point sum of c x over the (c, x) pairs of `terms`; a float or
    bool c raises ValueError (`funcs.exact`).  The solve is linear, so
    when every x carries the same `covered` marker the result keeps the
    sum of their scaled solved values under it; otherwise, and for no
    terms, it starts unsolved."""
    terms = [(exact(c), x) for c, x in terms]
    solved = len({x.covered for _, x in terms}) == 1
    point = Point(covered=terms[0][1].covered if solved else (0, 0))
    for c, x in terms:
        point.d_coords.accumulate(x.d_coords, c)
        if solved:
            point.e_cache.axpy(c.numerator, c.denominator, x.e_cache)
    return point


@dataclass
class StageMatrix:
    """The dual-basis rows d*_xi and the basis columns d_gamma over
    Gamma_N, as IntVecs.  Each column is reach-solved from the unit
    d-vector at gamma; its entries are in no particular order."""
    ids: list                    # Gamma_N in (rank, id) order
    rows: dict                   # xi -> d*_xi (e*-coordinates)
    columns: dict                # gamma -> d_gamma restricted to Gamma_N

    def biorthogonality_defects(self):
        """All (xi, gamma, <d*_xi, d_gamma>) off the identity, in the
        (xi, gamma) order of `ids` -- empty when exact.

        D*.D is formed sparsely in integer numerators: the rows are
        transposed once into delta -> [(xi, numerator)] and each column is
        scattered into the rows that meet its support.  The sum at
        (xi, gamma) is the pairing over the product of the denominators of
        rows[xi] and columns[gamma], so the identity asks it to equal that
        product on the diagonal and 0 off it.  An entry the scatter never
        reaches is a structural zero, so a missing diagonal is still a
        defect."""
        ids, rows = self.ids, self.rows
        meets = {}
        for xi in ids:
            for delta, coef in rows[xi].items():
                meets.setdefault(delta, []).append((xi, coef))
        defects = []
        for gamma in ids:
            column = self.columns[gamma]
            product = {}
            for delta, val in column.items():
                for xi, coef in meets.get(delta, ()):
                    product[xi] = product.get(xi, 0) + coef * val
            product.setdefault(gamma, 0)
            for xi, val in product.items():
                den = rows[xi].denominator * column.denominator
                if val != (den if xi == gamma else 0):
                    defects.append((xi, gamma, Fraction(val, den)))
        order = {gid: i for i, gid in enumerate(ids)}
        defects.sort(key=lambda d: (order[d[0]], order[d[1]]))
        return defects


class Engine:
    """Memoized functional calculus over one registry."""

    def __init__(self, registry):
        self.registry = registry
        self._rows = {}   # (q, gid) -> P*_{(0,q]} e*_gid; c*_gid at rank - 1
        self._users = []  # id -> ids whose c* mentions it, ascending

    # -- BD-functionals and the dual basis ------------------------------------

    def _c_vec(self, gid):
        return self._row(self.registry.rank_of(gid) - 1, gid)

    def _fill(self, keys):
        """Memoize the rows P*_{(0,q]} e*_gid of some keys (q, gid), in
        order, and every row they need.  For q >= rank it is the unit row
        e*_gid, one object for every such q; at q = rank - 1 it is
        c*_gid, as e*_gid o P_{(0,rank-1]} = c*_gid: 0 at the Base, else
        beta (b* - P*_{(0,cut]} b*) + e*_xi from the rows of its payload
        at its cut; below, the sum of c*_gid[h] P*_{(0,q]} e*_h, which is
        c*_gid itself, the same object, when every h has rank <= q.  A
        Type2 row at q <= cut is its predecessor xi's row, the same
        object: P*_{(0,q]} P*_{(0,cut]} = P*_{(0,q]} cancels the beta-term
        of c*_gid, leaving P*_{(0,q]} e*_xi.  Rows are never mutated, so
        sharing one is safe.
        A forged tower nests these once per chain link, deeper than
        Python's recursion limit, so an explicit stack replaces the
        recursion; it visits the entries in the recursion's order."""
        memo = self._rows
        records = self.registry.records
        weights = self.registry.schedule.m
        stack = keys[::-1]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            q, gid = key
            rec = records[gid]
            rank = rec.rank
            if q > rank:   # the unit row at q = rank
                out = memo.get((rank, gid))
                if out is None:
                    stack.append((rank, gid))
                    continue
            elif q == rank:
                out = IntVec().add(gid, 1, 1)
            elif rank == 1:
                out = IntVec()
            elif q == rank - 1:
                cut = rec.cut
                if cut > 0:
                    need = [(cut, h) for h in rec.payload
                            if (cut, h) not in memo]
                    if need:
                        stack.extend(reversed(need))
                        continue
                m = weights[rec.weight_index - 1]   # beta = 1 / m
                out = IntVec()
                for hid, coef in rec.payload.items():
                    p, den = coef.numerator, coef.denominator * m
                    out.add(hid, p, den)
                    if cut > 0:
                        out.axpy(-p, den, memo[(cut, hid)])
                if rec.predecessor is not None:
                    out.add(rec.predecessor, 1, 1)
            elif rec.predecessor is not None and q <= rec.cut:
                out = memo.get((q, rec.predecessor))
                if out is None:
                    stack.append((q, rec.predecessor))
                    continue
            else:
                cs = memo.get((rank - 1, gid))
                if cs is None:
                    stack.append((rank - 1, gid))
                    continue
                if all(records[h].rank <= q for h in cs):
                    out = cs   # P*_{(0,q]} keeps each e*_h
                else:
                    need = [(q, h) for h in cs if (q, h) not in memo]
                    if need:
                        stack.extend(reversed(need))
                        continue
                    out = IntVec()
                    for hid, coef in cs.items():
                        out.axpy(coef, cs.denominator, memo[(q, hid)])
            memo[key] = out
            stack.pop()

    def _d_vec(self, gid):
        """d*_gid = e*_gid - c*_gid, a new IntVec from the c* row."""
        return IntVec().axpy(-1, 1, self._c_vec(gid)).add(gid, 1, 1)

    def d_star(self, gid):
        return self._d_vec(gid).to_func()

    def d_star_l1(self, gid):
        """||d*_gid||_1 = ||c*_gid||_1 + 1, read off the integer c* row:
        c*_gid mentions only older ids, never gid itself."""
        row = self._c_vec(gid)
        den = row.denominator
        return Fraction(sum(map(abs, row.values())) + den, den)

    # -- ell_1-side projections ------------------------------------------------

    def _row(self, q, gid):
        """P*_{(0,q]} e*_gid for q >= 0, memoized; c*_gid at rank - 1."""
        out = self._rows.get((q, gid))
        if out is None:
            self.registry.record(gid)  # UnknownGamma if dangling
            self._fill([(q, gid)])
            out = self._rows[(q, gid)]
        return out

    def _project(self, q, f):
        """P*_{(0,q]} f for a Func f, as a new IntVec."""
        out = IntVec()
        if q > 0:
            for gid, coef in f.items():
                out.axpy(coef.numerator, coef.denominator,
                         self._row(q, gid))
        return out

    def project_prefix(self, q, f):
        """P*_{(0,q]} f for any Func f."""
        return self._project(q, f).to_func()

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

    def analysis_identity_sides(self, gid):
        """(e*_gid, window, tail) for the evaluation-analysis identity, as
        IntVecs, so each form holds exactly when it equals e*_gid.

        Both reconstructions sum d*_{xi_r} plus m_j^{-1} times a piece of
        each b*_r: the window form takes P*_{(p_{r-1}, p_r)} b*_r, the
        tail form P*_{(p_{r-1}, infinity)} b*_r.  One walk of the chain
        builds both, sharing the d* sum and P*_{(0, p_{r-1}]} b*_r.
        """
        rows = self.evaluation_analysis(gid)
        rec = self.registry.record(gid)
        beta = self.registry.schedule.weight_value(rec.weight_index)
        d_sum, window, tail = IntVec(), IntVec(), IntVec()
        prev_cut = 0
        for row in rows:
            d_sum.axpy(-1, 1, self._c_vec(row.id)).add(row.id, 1, 1)
            below = self._project(prev_cut, row.payload)
            for side, piece in (
                    (window, self._project(row.rank - 1, row.payload)),
                    (tail, IntVec.from_func(row.payload))):
                piece.axpy(-1, 1, below)
                side.axpy(beta.numerator, beta.denominator, piece)
            prev_cut = row.rank
        return (IntVec().add(gid, 1, 1), window.axpy(1, 1, d_sum),
                tail.axpy(1, 1, d_sum))

    # -- points ---------------------------------------------------------------

    def _index(self):
        """The reverse-dependency index, grown to the whole registry."""
        users = self._users
        start = len(users)
        if start < len(self.registry):
            records = self.registry.records
            keys = [(records[gid].rank - 1, gid)
                    for gid in range(start, len(records))]
            self._fill(keys)
            rows = self._rows
            for key in keys:
                users.append([])
                for hid in rows[key]:
                    users[hid].append(key[1])
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
        shrinks.  Each value is solved in integers over the product of
        the denominators it meets and reduced before it joins the
        cache."""
        cache = point.e_cache
        old_stage, old_size = point.covered
        records = self.registry.records
        size = len(records)
        if stage <= old_stage and size == old_size:
            return cache
        if stage < old_stage:
            stage = old_stage
        users = self._index()
        rows = self._rows
        d = point.d_coords

        def fresh(gid):
            rank = records[gid].rank
            return rank <= stage and (gid >= old_size or rank > old_stage)

        heap = []
        for gid in d:
            if type(gid) is not int or not 0 <= gid < size:
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
            cs = rows[(records[gid].rank - 1, gid)]
            num, den = cs.dot(cache), cs.denominator * cache.denominator
            c = d.get(gid)
            if c is not None:
                num = num * c.denominator + c.numerator * den
                den *= c.denominator
            if num:
                cache.add(gid, num, den)
                for uid in users[gid]:
                    if fresh(uid):
                        heappush(heap, uid)
        point.covered = (stage, size)
        return cache

    def value(self, point, gid):
        """x(gamma) for one element."""
        self.evaluate(point, self.registry.rank_of(gid))
        cache = point.e_cache
        return Fraction(cache.get(gid, 0), cache.denominator)

    def numerators(self, point, n):
        """(den, {gid: num}) for the nonzero values x(gid) = num / den of
        rank <= n, over the point's one denominator and in no particular
        order: a new dict, which the caller may keep.  Scans compare
        these integers and make a Fraction only for a value they
        report."""
        cache = self.evaluate(point, n)
        if point.covered[0] <= n:   # nothing above rank n is solved
            return cache.denominator, dict(cache)
        records = self.registry.records
        return cache.denominator, {gid: v for gid, v in cache.items()
                                   if records[gid].rank <= n}

    def first_peak(self, nums):
        """The id of the largest |num| in a {gid: num} map, the first in
        the canonical (rank, id) order among equal magnitudes; None for
        an empty map."""
        if not nums:
            return None
        mags = list(map(abs, nums.values()))
        top = max(mags)
        if mags.count(top) == 1:
            return list(nums)[mags.index(top)]
        records = self.registry.records
        return min((gid for gid, v in nums.items() if abs(v) == top),
                   key=lambda gid: (records[gid].rank, gid))

    def pair(self, f, point):
        """<f, x> for a Func f against a Point x."""
        if f:
            self.evaluate(point, max(self.registry.rank_of(g) for g in f))
        fv, cache = IntVec.from_func(f), point.e_cache
        return Fraction(fv.dot(cache), fv.denominator * cache.denominator)

    def ran(self, point):
        """Smallest rank interval [lo, hi] covering the d-support; None if zero."""
        if point.is_zero():
            return None
        ranks = [self.registry.rank_of(g) for g in point.d_coords]
        return (min(ranks), max(ranks))

    def fdd_project(self, interval, point):
        """P_I x: keep d-coordinates with rank in (lo, hi] (hi=None: infinity)."""
        lo, hi = interval
        return self.point_from_d(
            {g: c for g, c in point.d_coords.items()
             if lo < self.registry.rank_of(g) and (hi is None or self.registry.rank_of(g) <= hi)})

    def point_from_d(self, d_coords):
        return Point(d_coords=Func(d_coords))

    def eval_after_projection(self, gid, s, point):
        """<e*_gamma, P_{(s, infinity)} x> computed on the ell_1 side."""
        return self.pair(self.project_l1((s, None), Func.unit(gid)), point)

    def extend(self, q, u, stage):
        """i_q(u): the unique vector in span{d_gamma : gamma in Gamma_q}
        whose restriction to Gamma_q equals u; e-cache filled to `stage`."""
        self._require_stage(q)
        u_full = {g: exact(v) for g, v in u.items()}
        d = Func()
        for gid in self.registry.gammas_up_to(q):   # zeros are not stored
            d[gid] = (u_full.get(gid, Fraction(0))
                      - self._c_vec(gid).to_func().dot(u_full))
        point = Point(d_coords=d)
        self.evaluate(point, max(q, stage))
        return point

    def range_and_local_support(self, point):
        """(range interval, local support at q = max ran x)."""
        rng = self.ran(point)
        if rng is None:
            return None, set()
        q = rng[1]
        return rng, set(self.numerators(point, q)[1])

    # -- stage matrices and operator norms --------------------------------------

    def _require_stage(self, n):
        if not 1 <= n <= self.registry.frontier():
            raise StageOverflow("Gamma_%d not materialized" % n)

    def stage_matrix(self, n):
        """Rows d*_xi and columns d_gamma over Gamma_n; each column is the
        solved cache of the point with the single d-coordinate gamma,
        reach-solved to stage n."""
        self._require_stage(n)
        ids = self.registry.gammas_up_to(n)
        rows = {gid: self._d_vec(gid) for gid in ids}
        columns = {gamma: self.evaluate(Point(Func.unit(gamma)), n)
                   for gamma in ids}
        return StageMatrix(ids=ids, rows=rows, columns=columns)

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
        e-coordinates is P*_{(0,q]} e*_gamma, read from the row memo
        for q < rank(gamma); it is 0 at q = 0 and e*_gamma from
        q = rank(gamma) on, and "row n + 1" is the row e*_gamma of the
        identity that a tail subtracts from.  The rows of gamma are
        brought to one denominator, the lcm of theirs.  Each row sum is
        ||row_q - row_p||_1 = ||row_q||_1 + ||row_p||_1 minus, for every
        coordinate the two rows share, |a| + |b| - |a - b|; so all sums
        start from the row norms in one pass, and only shared
        coordinates cost a correction.  Row sums over the same
        denominator are maximized as integers, one list per
        denominator, and the lists are compared as Fractions at the end.
        """
        self._require_stage(n)
        pairs = [(p, q) for p in range(n + 1) for q in range(p + 1, n + 1)]
        gaps = pairs + [(p, n + 1) for p in range(n + 1)]
        slot = {gap: i for i, gap in enumerate(gaps)}
        hi = itemgetter(*[q for _, q in gaps])
        lo = itemgetter(*[p for p, _ in gaps])
        best = {}  # denominator -> [numerator of each gap], maximized
        for gid in self.registry.gammas_up_to(n):
            rank = self.registry.rank_of(gid)
            rows = [self._row(q, gid) for q in range(1, rank)]
            den = common_denominator(rows)
            norms = [0]
            rows_at = {gid: [(q, den) for q in range(rank, n + 2)]}
            for q, row in enumerate(rows, 1):
                up = den // row.denominator
                norms.append(up * sum(map(abs, row.values())))
                for k, v in row.items():
                    rows_at.setdefault(k, []).append((q, up * v))
            norms += [den] * (n + 2 - rank)
            sums = list(map(add, hi(norms), lo(norms)))
            for entries in rows_at.values():
                if len(entries) > 1:
                    for i, (p, a) in enumerate(entries):
                        for q, b in entries[i + 1:]:
                            sums[slot[(p, q)]] -= abs(a) + abs(b) - abs(a - b)
            top = best.get(den)
            best[den] = sums if top is None else list(map(max, top, sums))
        values = [max(Fraction(nums[i], den) for den, nums in best.items())
                  for i in range(len(gaps))]
        return (dict(zip(pairs, values)),
                dict(enumerate(values[len(pairs):])))

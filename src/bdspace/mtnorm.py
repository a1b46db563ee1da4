"""Mixed Tsirelson norms by interval dynamic programming.

The norming set W[(A_{l_j}, theta_j)] contains the signed unit
functionals and every theta_j-weighted sum of at most l_j successive
members.  The implicit norm is computed exactly by a DP over contiguous
windows of the support: because the admissible families constrain only
cardinality and successiveness, and the norm is monotone under support
restriction, an optimal decomposition may be taken to consist of
intervals of the support.  The brute-force successive-subset oracle
`mt_norm_exhaustive` below, which `bdspace verify mt-oracle` runs
against the DP, checks exactly this reduction.

The DP runs in exact integers.  Every value it compares is a sum of
|x_t| * prod theta_j along the paths of a tree.  With theta_j = a_j/b_j
and H = `norming_height` a bound on the height of every tree compared,
scale once by S = lcm(denominators of x) * lcm(b_j)^H.  A window value
of height h is then an integer multiple of lcm(b_j)^(H-h), so theta_j
times it is divmod(v * a_j, b_j) with remainder 0; a nonzero remainder
raises InvariantViolation.  The norm is Fraction(value, S).
H = max(1, n - c + 1), with c the cap of the first non-excluded index:
a window of at most c points is a leaf or the ell_1 node, and a node of
cap >= 2 has pieces at least one point shorter than its window.  A
cap-1 node over its own window is theta_j times its norm, so it never
attains and is skipped.  When c covers the whole support the norm is
the closed form max(max |x_t|, theta * sum |x_t|), in O(n) with no
tables.

The oracle scores in exact integers as well, but over a scale of its
own, S = D * L^s for a support of s points: D and L are the products,
not the lcms, of the distinct denominators of |x| and of the weights
that can attain.  Its pieces are proper subsets of their pool, so its
trees have at most s - 1 node levels and every product by a weight
divides exactly; it shares no scaling helper with the DP it checks.

A node of cap l over a window of more than l points takes its best
split into exactly l pieces, S_l: refining a split never decreases the
sum (triangle inequality).  The (max, +) products over the cut
are associative, S_p = S_ceil(p/2) (x) S_floor(p/2), so the DP tabulates
only the closure of the caps under halving: {2, 4, 8} for caps
(2, 4, 8), seven levels for (24, 8) where the chain S_p = S_1 (x) S_(p-1)
would need 23.

Ties among optimal trees are broken towards the lexicographically
smallest (weight index, split points), so results are reproducible.
A window's candidates come in strictly increasing key order, its leaves
by position and then its nodes by weight index, so a scan that replaces
its best only on a strictly larger value keeps this tie-break.  Values
do not depend on the split points, so the DP keeps none: they are
recovered for the nodes of the returned tree only, by the chain over a
first piece within that node's window, taking at each step the least
cut that still attains the split value.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional

from .errors import (BruteForceCapExceeded, IndexOutOfSchedule,
                     InvariantViolation, require)
from .funcs import INEXACT, Func, IntVec, common_denominator, parse_int

ORACLE_BUDGET = 500000    # distinct subsets the exhaustive oracle scores


@dataclass(frozen=True)
class MTParams:
    pairs: tuple                   # ((l_j, theta_j), ...) 1-based by position
    excluded: Optional[int] = None

    def __post_init__(self):
        if any(isinstance(th, INEXACT) or not isinstance(th, (int, Fraction))
               for _, th in self.pairs):
            raise ValueError("weights must be ints or Fractions, got %r"
                             % (self.pairs,))
        # caps and the excluded index are read by `parse_int`: no bool,
        # float or string stands for an integer
        object.__setattr__(self, "pairs", tuple(
            (parse_int(l), th) for l, th in self.pairs))
        if self.excluded is not None:
            object.__setattr__(self, "excluded", parse_int(self.excluded))
        thetas = [th for _, th in self.pairs]
        if any(not 0 < th < 1 for th in thetas):
            raise ValueError("weights must lie in (0, 1)")
        if any(thetas[i] <= thetas[i + 1] for i in range(len(thetas) - 1)):
            raise ValueError("weights must be strictly decreasing")
        if any(l < 1 for l, _ in self.pairs):
            raise ValueError("cardinality caps must be positive")
        if self.excluded is not None and \
                not 1 <= self.excluded <= len(self.pairs):
            raise ValueError("excluded index %d not in 1..%d"
                             % (self.excluded, len(self.pairs)))

    @classmethod
    def from_schedule(cls, schedule, factor=4, excluded=None):
        """(l_j, theta_j) = (factor * n_j, 1/m_j) along the schedule."""
        return cls(pairs=tuple((factor * n, Fraction(1, m))
                               for m, n in zip(schedule.m, schedule.n)),
                   excluded=excluded)

    def cap(self, j):
        if not 1 <= j <= len(self.pairs):
            raise IndexOutOfSchedule("no parameter pair at index %d" % j)
        return self.pairs[j - 1][0]

    def theta(self, j):
        if not 1 <= j <= len(self.pairs):
            raise IndexOutOfSchedule("no parameter pair at index %d" % j)
        return self.pairs[j - 1][1]

    def active_indices(self, support_size):
        """All j with l_j < |supp| plus the first j with l_j >= |supp|.

        Later indices are dominated: their weight is smaller and every
        piece value is capped by the ell_1 bound already attained by the
        first all-covering index.
        """
        out = []
        for j in range(1, len(self.pairs) + 1):
            if j == self.excluded:
                continue
            out.append(j)
            if self.cap(j) >= support_size:
                break
        return out


@dataclass(frozen=True)
class Leaf:
    sign: int
    k: int

    def to_json(self):
        return {"leaf": {"sign": self.sign, "k": self.k}}


@dataclass(frozen=True)
class Node:
    j: int
    children: tuple

    def to_json(self):
        return {"j": self.j, "children": [c.to_json() for c in self.children]}


def tree_support(tree):
    if isinstance(tree, Leaf):
        return (tree.k, tree.k)
    lo = min(tree_support(c)[0] for c in tree.children)
    hi = max(tree_support(c)[1] for c in tree.children)
    return (lo, hi)


def tree_action(tree, params):
    """The functional the tree denotes, as a Func over coordinates."""
    if isinstance(tree, Leaf):
        return Func.unit(tree.k, Fraction(tree.sign))
    out = Func()
    for c in tree.children:
        out.accumulate(tree_action(c, params))
    return out.scaled(params.theta(tree.j))


def verify_norming_tree(tree, params):
    """(ok, reason): structural membership of the tree in the norming set."""
    if isinstance(tree, Leaf):
        if tree.sign not in (1, -1):
            return False, "leaf sign %r not +-1" % (tree.sign,)
        return True, ""
    if isinstance(tree, Node):
        if not 1 <= tree.j <= len(params.pairs):
            return False, "weight index %r outside parameter list" % (tree.j,)
        if tree.j == params.excluded:
            return False, "weight index %d is excluded" % tree.j
        if not 1 <= len(tree.children) <= params.cap(tree.j):
            return False, ("node with %d children exceeds cap l_%d = %d"
                           % (len(tree.children), tree.j, params.cap(tree.j)))
        prev_hi = None
        for c in tree.children:
            ok, reason = verify_norming_tree(c, params)
            if not ok:
                return False, reason
            lo, hi = tree_support(c)
            if prev_hi is not None and lo <= prev_hi:
                return False, "children supports not successive"
            prev_hi = hi
        return True, ""
    return False, "not a tree node"


def norming_height(n, params):
    """H: no tree that the DP compares over n support points is taller.

    With c the cap of the first non-excluded index, a window of at most
    c points takes only a leaf or the ell_1 node, of height <= 1.  A
    larger window's nodes of cap >= 2 split it into pieces at least one
    point shorter, and cap-1 nodes never attain, so each further point
    adds at most one level.
    """
    live = [j for j in range(1, len(params.pairs) + 1)
            if j != params.excluded]
    c = params.cap(live[0]) if live else n
    return max(1, n - c + 1)


def read_vector(x):
    """The nonzero entries of x as {int: Fraction}: coordinates read by
    `parse_int`, and no float or bool values (`INEXACT`), as `Func`
    and `parse_frac` refuse them: neither is an exact rational."""
    if any(isinstance(v, INEXACT) for v in dict(x).values()):
        raise ValueError("expected exact rational values, got %r" % (x,))
    return {parse_int(k): Fraction(v) for k, v in dict(x).items() if v}


def mt_norm(x, params):
    """Exact mixed Tsirelson norm of a finitely supported rational vector.

    x maps int coordinates to exact rationals (`read_vector`).  Returns
    (value, tree) where the tree is an attaining member of the norming
    set; the zero vector yields (0, None).
    """
    entries = read_vector(x)
    if not entries:
        return Fraction(0), None
    pos = sorted(entries)
    n = len(pos)
    mags = IntVec.from_func({p: abs(entries[p]) for p in pos})
    lift = common_denominator(th for _, th in params.pairs) \
        ** norming_height(n, params)
    scale = mags.denominator * lift
    a = [mags[p] * lift for p in pos]
    pre = [0]
    for v in a:
        pre.append(pre[-1] + v)

    # per weight index j: its cap and theta_j = nums[j] / dens[j]
    caps = [None] + [cap for cap, _ in params.pairs]
    nums = [None] + [th.numerator for _, th in params.pairs]
    dens = [None] + [th.denominator for _, th in params.pairs]

    def choose(i, k, t, plan, rows):
        """(value, decision) of the window [i, k) whose first largest
        entry is at t; rows[l][k] is its best sum over l pieces.  The
        candidates come in key order, the leaves by t and then the nodes
        by j, so only a strictly larger value replaces the best.  A
        decision is j for a node, ~t for a leaf.  theta_j times a window
        value is exact at this scale; a nonzero remainder raises
        InvariantViolation."""
        best, dec = a[t], ~t
        for j in plan:
            cap = caps[j]
            if cap >= k - i:
                v = pre[k] - pre[i]
            elif cap == 1:
                continue        # theta_j times this window's own norm
            else:
                v = rows[cap][k]
            v, r = divmod(v * nums[j], dens[j])
            if r:
                raise InvariantViolation(
                    "theta_%d times a window value leaves remainder %d "
                    "at the DP's integer scale" % (j, r))
            if v > best:
                best, dec = v, j
        return best, dec

    def leaf(t):
        return Leaf(sign=1 if entries[pos[t]] > 0 else -1, k=pos[t])

    def cuts(i, k, l, total):
        """[i, c_1, ..., c_(l-1), k]: the lexicographically first cuts
        of [i, k) into l pieces whose values sum to total.  tails[p][c]
        is the best sum over p pieces of [c, k), by the chain over one
        first piece, for the starts c that such a split can reach."""
        value = ends[1]
        tails = [None, value[k]]
        for p in range(2, l):
            prev, tail = tails[-1], [0] * k
            for c in range(i + l - p, k - p + 1):
                best = -1
                for m in range(c + 1, k - p + 2):
                    v = value[m][c] + prev[m]
                    if v > best:
                        best = v
                tail[c] = best
            tails.append(tail)
        bounds = [i]
        for p in range(l, 1, -1):
            s, tail = bounds[-1], tails[p - 1]
            c = next((c for c in range(s + 1, k - p + 2)
                      if value[c][s] + tail[c] == total), None)
            require(c is not None,
                    "no cut of [%d, %d) into %d pieces attains the DP's "
                    "split value %d" % (s, k, p, total))
            bounds.append(c)
            total = tail[c]
        bounds.append(k)
        return bounds

    def build(i, k, dec):
        if dec < 0:
            return leaf(~dec)
        cap = caps[dec]
        if cap >= k - i:
            return Node(j=dec, children=tuple(leaf(t) for t in range(i, k)))
        # the node's value is theta_j times its best split into cap pieces
        bounds = cuts(i, k, cap, ends[1][k][i] * dens[dec] // nums[dec])
        return Node(j=dec, children=tuple(
            build(lo, hi, decs[lo][hi]) for lo, hi in zip(bounds, bounds[1:])))

    plan = params.active_indices(n)
    if all(caps[j] >= n for j in plan):
        # the whole support is one ell_1 window: no tables
        value, dec = choose(0, n, a.index(max(a)), plan, None)
    else:
        # S_p(i, k), the best sum over exactly p pieces of [i, k), for the
        # closure of the caps below n; S_1 is the window's own value.  By
        # i descending and k ascending, S_l(i, m) for m < k and S_r(m, k)
        # for m > i are ready: rows[p][k] holds S_p(i, k) for the current
        # i only, ends[p][k][i] for every i and right operands p only.
        levels, todo = set(), {caps[j] for j in plan if 1 < caps[j] < n}
        while todo:
            p = todo.pop()
            if p > 1 and p not in levels:
                levels.add(p)
                todo.update(((p + 1) // 2, p // 2))
        levels = sorted(levels)
        rows = {p: [0] * (n + 1) for p in [1] + levels}
        ends = {p: [[0] * k for k in range(n + 1)]
                for p in {1} | {p // 2 for p in levels}}
        steps = [(p, (p + 1) // 2, p // 2, rows[(p + 1) // 2], ends[p // 2],
                  rows[p], ends.get(p)) for p in levels]
        plans = [None] + [params.active_indices(s) for s in range(1, n + 1)]
        decs = [[0] * (n + 1) for _ in range(n)]
        row, end = rows[1], ends[1]
        for i in range(n - 1, -1, -1):
            t, dec_row = i, decs[i]
            for k in range(i + 1, n + 1):
                if a[k - 1] > a[t]:
                    t = k - 1
                for p, l, r, head, tails, out, out_end in steps:
                    if p > k - i:
                        break
                    tail, best = tails[k], -1
                    for m in range(i + l, k - r + 1):
                        v = head[m] + tail[m]
                        if v > best:
                            best = v
                    out[k] = best
                    if out_end is not None:
                        out_end[k][i] = best
                v, dec_row[k] = choose(i, k, t, plans[k - i], rows)
                row[k] = end[k][i] = v
        value, dec = row[n], decs[0][n]
    tree = build(0, n, dec)
    # build calls itself, a reference cycle that would keep the tables
    # alive until the next cyclic garbage collection
    del build
    return Fraction(value, scale), tree


def mt_norm_exhaustive(x, params):
    """Brute-force oracle: the best norming tree over arbitrary subsets.

    Independent of the DP above: pieces are arbitrary successive subsets
    of the support, not just intervals, so agreement of the two routes is
    evidence for the interval-decomposition reduction.  A pool (a subset
    of the support, as a bit mask over its sorted coordinates) is scored
    once: best(pool) is the larger of max |x_c| and, for every
    non-excluded j, theta_j times the largest sum of best over at most
    l_j successive pieces other than the pool itself.  Of the j sharing
    a cap only the first, of the largest weight, can attain.  The sum
    splits off a first piece P, any nonempty subset of the pool, and
    continues in its tail, the elements of the pool after P's last one:
    most(tail, k) is the largest sum over at most k successive pieces of
    the tail.  Each pool's (piece, tail) list is built once, and best
    and most are memoized per pool and per (pool, k).  Only usable for
    tiny supports: past ORACLE_BUDGET distinct pools scored it raises
    BruteForceCapExceeded.

    Scores are exact integers over one scale S = D * L^s, with s the
    support size, D the product of the distinct denominators of |x| and
    L that of the distinct denominators b of the weights theta = a/b
    that can attain.  Every piece is a proper subset of its pool, so a
    tree over s points has at most s - 1 node levels, and a score whose
    tree has h levels is a multiple of L^(s - h): theta times a sum of
    such scores is divmod(v * a, b) with remainder 0, and a nonzero
    remainder raises InvariantViolation.  The norm is Fraction(best, S).
    """
    entries = read_vector(x)
    if not entries:
        return Fraction(0)
    mags = [abs(entries[c]) for c in sorted(entries)]
    weights = {}   # cap l_j -> the largest theta_j of a live j with it
    for j, (cap, theta) in enumerate(params.pairs, 1):
        if j != params.excluded:
            weights.setdefault(cap, theta)
    scale = prod({m.denominator for m in mags}) \
        * prod({th.denominator for th in weights.values()}) ** len(mags)
    ints = [m.numerator * (scale // m.denominator) for m in mags]
    ratios = [(cap - 1, th.numerator, th.denominator)
              for cap, th in weights.items()]
    best_memo, most_memo, split_memo = {}, {}, {}
    budget = [ORACLE_BUDGET]

    def splits(pool):
        """(piece, tail) for every nonempty piece of the pool."""
        out = split_memo.get(pool)
        if out is None:
            out = []
            piece = pool
            while piece:
                top = piece.bit_length()
                out.append((piece, pool >> top << top))
                piece = (piece - 1) & pool
            split_memo[pool] = out
        return out

    def most(pool, k):
        """The largest sum of best over at most k successive pieces."""
        if not pool or not k:
            return 0
        out = most_memo.get((pool, k))
        if out is None:
            out = max(best(piece) + most(tail, k - 1)
                      for piece, tail in splits(pool))
            most_memo[(pool, k)] = out
        return out

    def best(pool):
        out = best_memo.get(pool)
        if out is not None:
            return out
        budget[0] -= 1
        if budget[0] < 0:
            raise BruteForceCapExceeded(
                "exhaustive oracle exceeds %d evaluations" % ORACLE_BUDGET)
        out = max(m for i, m in enumerate(ints) if pool >> i & 1)
        for more, num, den in ratios:
            # theta < 1, so the one-piece split into the pool never improves
            v, r = divmod(num * max((best(piece) + most(tail, more)
                                     for piece, tail in splits(pool)
                                     if piece != pool), default=0), den)
            require(r == 0, "a weight of cap %d times a pool score leaves "
                    "remainder %d at the oracle's integer scale"
                    % (more + 1, r))
            if v > out:
                out = v
        best_memo[pool] = out
        return out

    try:
        return Fraction(best((1 << len(ints)) - 1), scale)
    finally:
        # best and most call each other, a reference cycle that would keep
        # the memos alive until the next cyclic garbage collection
        del best, most

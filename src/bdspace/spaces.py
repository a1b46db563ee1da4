"""Concrete index-set generators and element forging.

Two disciplines are supported.  "BmT" admits every weight m_j^{-1} with
the plain two-family recursion; "XK" restricts stage membership by parity
(even weights carry net payloads, odd weights carry single coded
evaluation functionals).  Stage generation enumerates Delta_{q} literally
from the recursion, with the payload families B_{n,p} supplied by a
NetPolicy; the full factorial-denominator nets are combinatorially
explosive, so the CLI's default policy is signed units.

Forging interns sparse towers above the enumerated prefix: even-weight
chains with prescribed cuts and payloads, and odd-weight chains following
the sigma-coding.
"""

import itertools
from fractions import Fraction
from math import factorial
from operator import lt

from .errors import (AgeOverflow, BDSpaceError, CombinatorialBlowup,
                     CutTooSmall, InputError, NetTooLarge, StageOverflow,
                     WeightMismatch)
from .funcs import Func
from .registry import BMT, XK

NET_CAP = 100000    # the most elements a dyadic or factorial net may have


# -- net policies -------------------------------------------------------------

class SignedUnits:
    """B_{n,p} = {+-e*_eta : eta in Gamma_n \\ Gamma_p}."""

    def elements(self, registry, n, p):
        signs = (Fraction(1), Fraction(-1))
        return [Func.unit(eta, s) for eta in registry.window(p, n)
                for s in signs]


class DyadicAverages:
    """Signed units plus 2^{-ceil(log2 K')}-weighted signed sums, K' <= K."""

    def __init__(self, K):
        self.K = K

    def elements(self, registry, n, p):
        window = registry.window(p, n)
        out = []
        for size in range(1, self.K + 1):
            if size > len(window):
                break
            weight = Fraction(1, 1 << (size - 1).bit_length())
            for combo in itertools.combinations(window, size):
                for signs in itertools.product((1, -1), repeat=size):
                    if len(out) >= NET_CAP:
                        raise NetTooLarge(
                            "dyadic net over window of %d exceeds cap %d"
                            % (len(window), NET_CAP))
                    out.append(Func((g, weight * s)
                                    for g, s in zip(combo, signs)))
        return out


class PaperFactorial:
    """All rational vectors with denominators dividing N_n! and ell_1-norm <= 1.

    N_n is n itself; the lattice enumeration stops at NET_CAP elements.
    """

    def elements(self, registry, n, p):
        window = registry.window(p, n)
        denom = factorial(n)
        out = []

        def rec(idx, budget, acc):
            if idx == len(window):
                if acc:
                    if len(out) >= NET_CAP:
                        raise NetTooLarge(
                            "factorial net over window of %d exceeds cap %d"
                            % (len(window), NET_CAP))
                    out.append(Func((g, Fraction(a, denom)) for g, a in acc))
                return
            rec(idx + 1, budget, acc)
            for a in range(1, budget + 1):
                for sa in (a, -a):
                    rec(idx + 1, budget - a, acc + [(window[idx], sa)])

        rec(0, denom, [])
        return out


# -- stage generation ----------------------------------------------------------

def generate_stage(registry, q, policy):
    """Materialize Delta_q per the registry's discipline; returns new ids."""
    if q != registry.generated_stage + 1:
        raise StageOverflow(
            "stages below %d must be generated first (have %d)"
            % (q, registry.generated_stage))
    if q == 1:
        gid = registry.base()
        registry.generated_stage = 1
        return [gid]

    n = q - 1
    sched = registry.schedule
    new_ids = []
    budget = registry.stage_cap
    # nets carry every weight under BmT and the even ones under XK
    step = 1 if registry.discipline == BMT else 2
    nets = {}

    def net(w, xi, p):
        if p not in nets:
            nets[p] = policy.elements(registry, n, p)
        return nets[p]

    def odd_targets(w, xi, p):
        """e*_eta for each eta of ranks (p, n] whose weight index the
        registry admits for the target of the odd link after xi."""
        allowed = registry.target_weights(w, xi)
        if not allowed:
            return []
        return [Func.unit(eta) for eta in registry.window(p, n)
                if registry.records[eta].weight_index in allowed]

    def emit(label, first, payloads):
        """Type1 heads of each weight index from `first` in steps of
        `step`, then the Type2 links of every open chain of a lower stage
        p; payloads(w, xi, p) supplies those of weight index w after xi
        (None for a head) above rank p.  The drafts of one call are
        pairwise distinct, so each intern makes a new element."""
        def admit(w, b, xi):
            if len(registry) >= budget:
                family = ("Type1 weight m_%d" % w if xi is None else
                          "Type2 weight m_%d cut %d"
                          % (w, registry.records[xi].rank))
                raise CombinatorialBlowup(
                    "stage %d exceeds cap %d while emitting %s%s"
                    % (q, budget, label, family))
            new_ids.append(registry.intern(q, w, b, xi))

        def weights(top):
            """Weight indices up to `top` (at most the rank of the element)."""
            return range(first, min(top, len(sched.m)) + 1, step)

        for w in weights(n + 1):
            for b in payloads(w, None, 0):
                admit(w, b, None)
        for p in range(1, n):
            for w in weights(p):
                for xi in registry.window(p - 1, p):
                    rec = registry.records[xi]
                    if (rec.weight_index != w
                            or rec.age >= sched.length_value(w)):
                        continue
                    for b in payloads(w, xi, p):
                        admit(w, b, xi)

    emit("" if step == 1 else "even ", step, net)
    if registry.discipline == XK:
        emit("odd ", 1, odd_targets)

    registry.generated_stage = q
    return new_ids


def generate_up_to(registry, n, policy):
    """Generate all stages up to n; returns ids of Gamma_n."""
    for q in range(registry.generated_stage + 1, n + 1):
        generate_stage(registry, q, policy)
    return registry.gammas_up_to(n)


# -- forging -------------------------------------------------------------------

def _forge_chain(registry, w, links):
    """Intern the chain of weight m_w^{-1} through the (cut, payload)
    links, head first; returns its top element.  The links are checked
    before the first intern, so a bad chain leaves no head behind."""
    cuts = [p for p, _ in links]
    if not cuts:
        raise InputError("a chain needs at least one link")
    if not all(map(lt, cuts, cuts[1:])):
        raise InputError("cuts %s are not strictly increasing" % cuts)
    if cuts[0] < w:
        raise CutTooSmall("first cut %d below weight index %d" % (cuts[0], w))
    n_w = registry.schedule.length_value(w)
    if len(cuts) > n_w:
        raise AgeOverflow("%d links exceed n_%d = %d" % (len(cuts), w, n_w))
    gid = None
    for p, b in links:
        gid = registry.intern(p, w, b, gid)
    return gid


def forge_even(registry, j, cuts, payloads):
    """Intern an even-weight chain with analysis rows (p_r, b*_r); returns gamma.

    The chain has weight m_{2j}^{-1}; cuts are the p_r, strictly
    increasing, and payload r must live in the window (p_{r-1}, p_r - 1].
    """
    cuts, payloads = list(cuts), list(payloads)
    if len(cuts) != len(payloads):
        raise InputError("%d cuts for %d payloads"
                         % (len(cuts), len(payloads)))
    return _forge_chain(registry, 2 * j, list(zip(cuts, payloads)))


def forge_odd_chain(registry, j0, targets):
    """Intern the odd-weight chain of weight m_{2j0-1}^{-1} through the
    given (cut p_i, target eta_i) pairs; the coding rules are enforced by
    the registry."""
    return _forge_chain(registry, 2 * j0 - 1,
                        [(p, Func.unit(eta)) for p, eta in targets])


# -- the tree-like check ---------------------------------------------------------

def _odd_chain(registry, gid):
    """[(xi_i, eta_i)] along the chain of an odd-weight element."""
    rec = registry.record(gid)
    if rec.weight_index is None or rec.weight_index % 2 == 0:
        raise WeightMismatch("element %d does not have odd weight" % gid)
    chain = []
    for link in registry.chain(gid):
        (eta,) = link.payload
        chain.append((link.id, eta))
    return chain


def check_treelike(registry, gamma, gamma2):
    """The branching index l of two same-odd-weight chains.

    Returns the unique 1 <= l <= age(shorter) such that the chains agree
    strictly below l and the shorter chain's targets above l have weights
    disjoint from all of the longer chain's target weights.
    """
    ra, rb = registry.record(gamma), registry.record(gamma2)
    if ra.weight_index != rb.weight_index:
        raise WeightMismatch("weights m_%s and m_%s differ"
                             % (ra.weight_index, rb.weight_index))
    long_chain = _odd_chain(registry, gamma)
    short_chain = _odd_chain(registry, gamma2)
    if len(short_chain) > len(long_chain):
        long_chain, short_chain = short_chain, long_chain
    long_weights = {registry.record(eta).weight_index for _, eta in long_chain}
    valid = []
    for l in range(1, len(short_chain) + 1):
        if any(short_chain[i][0] != long_chain[i][0] for i in range(l - 1)):
            continue
        if any(registry.record(short_chain[i - 1][1]).weight_index in long_weights
               for i in range(l + 1, len(short_chain) + 1)):
            continue
        valid.append(l)
    if len(valid) != 1:
        raise BDSpaceError(
            "tree-like branching index not unique for (%d, %d): %r"
            % (gamma, gamma2, valid))
    return valid[0]

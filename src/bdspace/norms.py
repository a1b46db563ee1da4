"""Stage-truncated norms on the X side.

The sup norm over the infinite index set is not computable; a Point is
bracketed instead by the exact stage-N lower value max_{Gamma_N} |x(gamma)|
and the a-priori upper bound M * max_{Gamma_q} |x(gamma)| coming from the
extension-operator norm (q = max ran x).  Attainment at a finite stage is
never claimed.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BruteForceCapExceeded, StageOverflow

SIGN_PATTERN_CAP = 16    # the largest support whose sign patterns are tried


@dataclass(frozen=True)
class NormInterval:
    lower: Fraction
    upper: Fraction
    stage: int
    witness: Optional[int] = None

    def to_json(self):
        from .funcs import frac_str
        return {"lower": frac_str(self.lower), "upper": frac_str(self.upper),
                "stage": self.stage, "witness": self.witness}


def sup_norm_interval(engine, x, n):
    """Bracket the norm of a Point at stage n, with a witness for the lower value."""
    rng = engine.ran(x)
    if rng is None:
        return NormInterval(Fraction(0), Fraction(0), n, None)
    q = rng[1]
    if n < q:
        raise StageOverflow("stage %d does not cover ran x = %s" % (n, rng))
    lower, witness = Fraction(0), None
    local_max = Fraction(0)
    for gid, v in engine.nonzeros(x, n):
        v = abs(v)
        if v > lower:
            lower, witness = v, gid
        if engine.registry.rank_of(gid) <= q and v > local_max:
            local_max = v
    upper = engine.registry.schedule.M * local_max
    return NormInterval(lower=lower, upper=max(upper, lower), stage=n,
                        witness=witness)


def unconditionalized_norm(engine, w, n):
    """max over sign patterns of the stage-n lower norm of sum +-w(gamma) d_gamma.

    Returns (value, report).  The report carries the attaining signs and
    the induced stage-n lower estimate for the norm of the diagonal
    operator sum w(gamma) U_gamma (one-sided: estimate <= value; the
    two-sided comparison with factor 2 is a report, not an assertion,
    since both sides are stage-truncated).
    """
    support = sorted((g for g, c in dict(w).items() if c),
                     key=lambda g: (engine.registry.rank_of(g), g))
    if len(support) > SIGN_PATTERN_CAP:
        raise BruteForceCapExceeded("support %d exceeds sign-pattern cap %d"
                                    % (len(support), SIGN_PATTERN_CAP))
    if not support:
        return Fraction(0), {"signs": {}, "opnorm_lower": Fraction(0)}
    coeffs = {g: Fraction(dict(w)[g]) for g in support}
    best, best_signs = Fraction(-1), None
    # ||x|| = ||-x||: pin the first sign
    for tail in itertools.product((1, -1), repeat=len(support) - 1):
        signs = (1,) + tail
        point = engine.point_from_d(
            {g: s * coeffs[g] for g, s in zip(support, signs)})
        ni = sup_norm_interval(engine, point, n)
        if ni.lower > best:
            best, best_signs = ni.lower, signs
    # operator lower estimate via the extension of the attaining sign pattern
    q = max(engine.registry.rank_of(g) for g in support)
    u = {g: Fraction(s) for g, s in zip(support, best_signs)}
    y = engine.extend(q, u, n)
    y_norm = sup_norm_interval(engine, y, n)
    wy = engine.point_from_d({g: u[g] * coeffs[g] for g in support})
    wy_norm = sup_norm_interval(engine, wy, n)
    opnorm_lower = (wy_norm.lower / y_norm.upper) if y_norm.upper else Fraction(0)
    return best, {"signs": dict(zip(support, best_signs)),
                  "opnorm_lower": opnorm_lower}

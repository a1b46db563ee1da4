"""Stage-truncated norms on the X side.

The sup norm over the infinite index set is not computable; a Point is
bracketed instead by the exact stage-N lower value max_{Gamma_N} |x(gamma)|
and the a-priori upper bound M * max_{Gamma_q} |x(gamma)| coming from the
extension-operator norm (q = max ran x).  Attainment at a finite stage is
never claimed.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import StageOverflow


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
    """Bracket the norm of a Point at stage n, with a witness for the
    lower value: the first element of largest |x(gamma)| in the canonical
    (rank, id) order.  Magnitudes are compared as integer numerators over
    the point's one denominator."""
    rng = engine.ran(x)
    if rng is None:
        return NormInterval(Fraction(0), Fraction(0), n, None)
    q = rng[1]
    if n < q:
        raise StageOverflow("stage %d does not cover ran x = %s" % (n, rng))
    den, nums = engine.numerators(x, n)
    witness = engine.first_peak(nums)
    if witness is None:
        return NormInterval(Fraction(0), Fraction(0), n, None)
    top = abs(nums[witness])
    records = engine.registry.records
    if records[witness].rank <= q:
        local_max = top
    else:
        local_max = max((abs(v) for gid, v in nums.items()
                         if records[gid].rank <= q), default=0)
    lower = Fraction(top, den)
    upper = engine.registry.schedule.M * Fraction(local_max, den)
    return NormInterval(lower=lower, upper=max(upper, lower), stage=n,
                        witness=witness)

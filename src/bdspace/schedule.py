"""Weight/length parameter schedules (m_j, n_j).

A schedule is *admissible* when it satisfies the full growth conditions
m_1 >= 4, m_{j+1} >= m_j^2 and n_{j+1} >= m_{j+1}^2 (4 n_j)^(2^(j+1));
otherwise, if m_1 >= 4 and m is strictly increasing, it is a *toy*
surrogate.  Toy schedules keep theta <= 1/4 and M <= 2, which is all the
triangular-basis machinery needs; estimates whose proofs use the full
growth conditions are downgraded to "reported" on toy schedules.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import lt

from .errors import IndexOutOfSchedule, ScheduleViolation
from .funcs import parse_int

ADMISSIBLE = "admissible"
TOY = "toy"


@dataclass(frozen=True)
class ParameterSchedule:
    m: tuple
    n: tuple
    mode: str
    theta: Fraction
    M: Fraction

    def weight_value(self, j):
        """The weight m_j^{-1} for a 1-based index j."""
        return Fraction(1, self.m[self.require_weight_index(j) - 1])

    def require_weight_index(self, j):
        """j, when it is a 1-based weight index; IndexOutOfSchedule
        otherwise."""
        if not 1 <= j <= len(self.m):
            raise IndexOutOfSchedule("weight index %d not in 1..%d" % (j, len(self.m)))
        return j

    def length_value(self, j):
        """The admissibility parameter n_j for a 1-based index j."""
        if not 1 <= j <= len(self.n):
            raise IndexOutOfSchedule("length index %d not in 1..%d" % (j, len(self.n)))
        return self.n[j - 1]

    def to_json(self):
        return {"m": list(self.m), "n": list(self.n), "mode": self.mode}

    def __repr__(self):
        def clip(xs):
            if len(xs) <= 6:
                return list(xs)
            return list(xs[:6]) + ["..."]
        return "ParameterSchedule(m=%s, n=%s, mode=%s)" % (
            clip(self.m), clip(self.n), self.mode)


def _growth_ok(m, n):
    if m[0] < 4:
        return False
    for j in range(len(m) - 1):
        if m[j + 1] < m[j] * m[j]:
            return False
        # j is 0-based here; the exponent is 2^(j+2) for the 1-based pair (j+1, j+2)
        if n[j + 1] < m[j + 1] ** 2 * (4 * n[j]) ** (2 ** (j + 2)):
            return False
    return True


def validate_schedule(m, n):
    """Classify (m, n) as admissible or toy; raise if neither fits."""
    try:
        m, n = tuple(map(parse_int, m)), tuple(map(parse_int, n))
    except ValueError as exc:  # parse_int: "expected an int, got <value>"
        raise ScheduleViolation("schedule entries must be integers, "
                                + str(exc).partition(", ")[2]) from None
    if not m or not n or len(m) != len(n):
        raise ScheduleViolation("m and n must be nonempty lists of equal length")
    if min(m) < 1 or min(n) < 1:
        raise ScheduleViolation("schedule entries must be positive integers")
    if m[0] < 4:
        raise ScheduleViolation("m_1 = %d < 4" % m[0])
    if not all(map(lt, m, m[1:])):
        raise ScheduleViolation("m must be strictly increasing")
    mode = ADMISSIBLE if _growth_ok(m, n) else TOY
    theta = Fraction(1, m[0])  # = max_j 1/m_j since m is increasing
    big_m = Fraction(1) / (1 - 2 * theta)
    return ParameterSchedule(m=m, n=n, mode=mode, theta=theta, M=big_m)


def geometric_toy_schedule(length):
    """Toy schedule m_j = 4^j with n_j = 8; sum(1/m_j) <= 1/3."""
    m = [4 ** j for j in range(1, length + 1)]
    return validate_schedule(m, [8] * length)


def slow_toy_schedule(length):
    """Toy schedule m_j = j + 3 with n_j = 2 m_j.

    Slow weight growth keeps forged odd-weight towers constructible: the
    even weight demanded by the coding rule stays comparable to the rank,
    so block counts stay small.
    """
    m = [j + 3 for j in range(1, length + 1)]
    return validate_schedule(m, [2 * v for v in m])

"""Sparse exact-rational functionals on the index set Gamma.

A Func maps element ids to nonzero Fractions.  It plays the ell_1 side of
the duality: evaluation functionals e*_gamma, dual basis vectors d*_gamma,
BD-functionals c*_gamma and net payloads b* are all Funcs.  Zero
coefficients are never stored.
"""

from fractions import Fraction


def frac_str(q):
    """Canonical "p/q" rendering, q > 0 and gcd(p, q) = 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_frac(s):
    """The rational a JSON value spells: an int, or a "p/q" or "n"
    string.  Anything else, floats and booleans included, raises
    ValueError, since a float is not an exact rational input."""
    if isinstance(s, str):
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ValueError("expected an int or a \"p/q\" string, got %r" % (s,))


class Func(dict):
    """Finitely supported map id -> nonzero Fraction."""

    __slots__ = ()

    def __init__(self, entries=()):
        if isinstance(entries, Func):
            # a Func holds only nonzero Fractions: copy them as they are
            super().__init__(entries)
            return
        super().__init__()
        if isinstance(entries, dict):
            entries = entries.items()
        for k, v in entries:
            self.iadd(k, v)

    def __missing__(self, key):
        return Fraction(0)

    def iadd(self, key, coef):
        """Add coef at key, stripping a resulting zero."""
        v = self.get(key, Fraction(0)) + coef
        if v == 0:
            self.pop(key, None)
        else:
            dict.__setitem__(self, key, Fraction(v))

    def __setitem__(self, key, value):
        value = Fraction(value)
        if value == 0:
            self.pop(key, None)
        else:
            dict.__setitem__(self, key, value)

    def copy(self):
        return Func(self)

    def accumulate(self, other, scalar=Fraction(1)):
        """In-place self += scalar * other."""
        if scalar == 0:
            return self
        for k, v in other.items():
            self.iadd(k, scalar * v)
        return self

    def __add__(self, other):
        return self.copy().accumulate(other)

    def __sub__(self, other):
        return self.copy().accumulate(other, Fraction(-1))

    def scaled(self, scalar):
        scalar = Fraction(scalar)
        out = Func()
        if scalar != 0:
            for k, v in self.items():
                dict.__setitem__(out, k, scalar * v)
        return out

    def __neg__(self):
        return self.scaled(-1)

    def l1(self):
        return sum((abs(v) for v in self.values()), Fraction(0))

    def dot(self, values):
        """Pair against any mapping id -> rational (missing keys count 0)."""
        total = Fraction(0)
        for k, v in self.items():
            w = values.get(k)
            if w:
                total += v * w
        return total

    def to_json(self):
        return [[k, frac_str(v)] for k, v in sorted(self.items())]

    @classmethod
    def from_json(cls, rows):
        return cls((k, parse_frac(v)) for k, v in rows)

    @classmethod
    def unit(cls, gid, coef=Fraction(1)):
        """coef e*_gid, for a nonzero Fraction coef, stored as it is."""
        out = cls.__new__(cls)
        dict.__setitem__(out, gid, coef)
        return out

    def __repr__(self):
        inner = ", ".join(
            "%d: %s" % (k, frac_str(v)) for k, v in sorted(self.items()))
        return "Func{%s}" % inner

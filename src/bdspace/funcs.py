"""Sparse exact-rational vectors on the index set Gamma.

A Func maps element ids to nonzero Fractions.  It plays the ell_1 side of
the duality at every boundary: evaluation functionals e*_gamma, dual
basis vectors d*_gamma, BD-functionals c*_gamma and net payloads b* are
handed out and stored in registries and certificates as Funcs.  Zero
coefficients are never stored.

An IntVec is the same kind of vector as integer numerators over one
positive integer denominator -- Bareiss's fraction-free idea for a whole
vector -- and is the engine's storage.  It is always reduced, so equal
vectors have equal numerators and denominators, and its arithmetic is
`int` arithmetic with one gcd pass per operation instead of one per
entry.  This module is the one home of integer scaling: nothing else
takes an lcm of denominators.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import index

from .errors import UnknownGamma


def frac_str(q):
    """Canonical "p/q" rendering, q > 0 and gcd(p, q) = 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_int(v):
    """The integer an input value spells, read through operator.index.
    A bool (JSON true and false are no numbers), a float and a string
    raise ValueError: the one rule for every integer that a schedule, a
    point file or a forge spec gives."""
    if type(v) is int:
        return v
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise ValueError("expected an int, got %r" % (v,))
    return index(v)


def parse_frac(s):
    """The rational a JSON value spells: an int as `parse_int` reads it,
    or a "p/q" or "n" string.  Anything else, floats and booleans
    included, raises ValueError, since a float is not an exact rational
    input."""
    if isinstance(s, str):
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    return Fraction(parse_int(s))


INEXACT = (float, bool)   # value types a Func refuses


def exact(scalar):
    """Fraction(scalar) for an exact rational; ValueError for a float or
    bool, as `parse_frac` raises: the one rule for the scalars that
    scale a Func or combine Points."""
    if type(scalar) in INEXACT:
        raise ValueError("expected an exact rational, got %r" % (scalar,))
    return Fraction(scalar)


def refuse(key, value):
    """The error for an entry that a Func refuses: UnknownGamma for an
    id that is not an int, as `Registry.record` raises, else the
    ValueError of `exact` for a float or bool value."""
    if type(key) is not int:
        raise UnknownGamma("no element with id %r" % (key,))
    exact(value)


class Func(dict):
    """Finitely supported map id -> nonzero Fraction.  An id that is not
    an int (a bool, a float, a string) and a float or bool value are
    refused (`refuse`): a float is not an exact rational."""

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
        """Add coef at key, stripping a resulting zero.  A sum that is a
        Fraction already is stored as it is."""
        if type(key) is not int or type(coef) in INEXACT:
            refuse(key, coef)
        old = self.get(key)
        v = coef if old is None else old + coef
        if v == 0:
            self.pop(key, None)
        elif type(v) is Fraction:
            dict.__setitem__(self, key, v)
        else:
            dict.__setitem__(self, key, Fraction(v))

    def __setitem__(self, key, value):
        if type(key) is not int or type(value) in INEXACT:
            refuse(key, value)
        value = Fraction(value)
        if value == 0:
            self.pop(key, None)
        else:
            dict.__setitem__(self, key, value)

    def copy(self):
        return Func(self)

    def accumulate(self, other, scalar=Fraction(1)):
        """In-place self += scalar * other.  A float or bool scalar
        raises the ValueError of `exact` before anything is added, also
        when it is 0 or 1 or other is empty; a scalar 1 adds other's
        values as they are.  other may be self: its items are read from
        a snapshot, so an entry that cancels does not break the loop."""
        if type(scalar) in INEXACT:
            exact(scalar)       # raises
        if scalar == 0:
            return self
        one = scalar == 1
        for k, v in (list(other.items()) if other is self else other.items()):
            self.iadd(k, v if one else scalar * v)
        return self

    def __add__(self, other):
        return self.copy().accumulate(other)

    def __sub__(self, other):
        return self.copy().accumulate(other, Fraction(-1))

    def scaled(self, scalar):
        return Func().accumulate(self, exact(scalar))

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
        """The Func of a JSON list [[id, "p/q"], ...], read by
        `parse_int` and `parse_frac`; ValueError when an id repeats."""
        entries = [(parse_int(k), parse_frac(v)) for k, v in rows]
        if len(dict(entries)) != len(entries):
            raise ValueError("an id is given twice")
        return cls(entries)

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


def common_denominator(rationals):
    """The lcm of the denominators of some rationals (ints, Fractions or
    IntVecs): the least one over which all of them have integer
    numerators."""
    return lcm(*[v.denominator for v in rationals])


class IntVec(dict):
    """Finitely supported map id -> nonzero int numerator over one
    positive int `denominator`: the vector {id: num / denominator}.

    It is always reduced: the numerators and the denominator have gcd 1,
    and the zero vector has denominator 1.  So two IntVecs are equal
    exactly when their maps and denominators are.  Entries keep insertion
    order, as a dict's do."""

    __slots__ = ("denominator",)

    def __init__(self):
        self.denominator = 1

    @classmethod
    def from_func(cls, f):
        """The IntVec of a mapping id -> rational (a Func, or a dict of
        Fractions and ints), over the common denominator of its values.
        Each value is reduced, so no gcd pass is needed."""
        out = cls()
        den = common_denominator(f.values())
        dict.update(out, {k: v.numerator * (den // v.denominator)
                          for k, v in f.items() if v})
        out.denominator = den
        return out

    def to_func(self):
        """The same vector as a Func of Fractions, in entry order."""
        den = self.denominator
        out = Func()
        dict.update(out, {k: Fraction(v, den) for k, v in self.items()})
        return out

    def _scale_to(self, q):
        """Bring the denominator to its lcm with q; returns the new one."""
        den = self.denominator
        up = q // gcd(den, q)
        if up > 1:
            if self:
                dict.update(self, {k: v * up for k, v in self.items()})
            den *= up
            self.denominator = den
        return den

    def axpy(self, p, q, x):
        """self += (p/q) * x for ints p and q > 0 and an IntVec x: the
        factor p / (q * x.denominator) is reduced first, both sides are
        brought to the lcm of the two denominators, entries that cancel
        are dropped, and one gcd pass reduces the result.  Returns
        self."""
        if not p or not x:
            return self
        q *= x.denominator
        g = gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        den = self._scale_to(q)
        if den != q:
            p *= den // q
        get = self.get
        for k, v in x.items():
            w = get(k, 0) + p * v
            if w:
                self[k] = w
            else:
                del self[k]
        self._reduce()
        return self

    def add(self, key, p, q):
        """self[key] += p/q for ints p and q > 0.  The value is reduced by
        its gcd before it meets the common denominator; at a key the
        vector does not hold, the result is then reduced already (the two
        scale-ups of an lcm are coprime), so no gcd pass is made.
        Returns self."""
        g = gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        if not p:
            return self
        den = self._scale_to(q)
        p *= den // q
        old = self.get(key)
        if old is None:
            self[key] = p
            return self
        if old + p:
            self[key] = old + p
        else:
            del self[key]
        self._reduce()
        return self

    def _reduce(self):
        g = gcd(self.denominator, *self.values())
        if g > 1:
            dict.update(self, {k: v // g for k, v in self.items()})
            self.denominator //= g

    def dot(self, other):
        """The numerator of <self, other> over the product of the two
        denominators."""
        total = 0
        get = other.get
        for k, v in self.items():
            w = get(k)
            if w:
                total += v * w
        return total

    def __eq__(self, other):
        return (isinstance(other, IntVec)
                and self.denominator == other.denominator
                and dict.__eq__(self, other))

    def __ne__(self, other):
        return not self == other

    __hash__ = None

    def __repr__(self):
        return "IntVec{%s}/%d" % (", ".join(
            "%d: %d" % kv for kv in sorted(self.items())), self.denominator)

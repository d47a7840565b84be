"""Exact arithmetic in the field of rational functions of the two
deformation parameters p and q.

Coefficients are quotients of Laurent polynomials over the rationals.
Negative exponents are first-class, so the ubiquitous p^-1, q^-1 and
binomials like p - q^-1 never grow a denominator.  Full bivariate gcd
reduction is deliberately avoided: equality is decided by cross
multiplication, which is exact, and a cheap content/exact-division
normalization keeps intermediate sizes bounded.

Every integral coefficient of a Laurent polynomial is stored as an
`int`; a coefficient is a `Fraction` only when its value is not an
integer (the 1/2 of `1/2*alpha`).  `_exact` is the one place that
decides this, and every operation that makes a coefficient passes its
non-int results through it.  Floats (and bools) are refused with
`TypeError`, since a float is not an exact rational.  `Fraction`
arithmetic over whole expressions happens only in `evaluate`, at
rational points.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping

from .errors import SingularEvaluation, SingularSpecialization, ZeroInverse

ExpPair = tuple[int, int]


def _exact(c) -> int | Fraction:
    """The coefficient c as stored: an int when its value is integral,
    else a Fraction.  Anything else, a float or a bool above all, is not
    an exact rational coefficient and raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def _quotient(a, b) -> int | Fraction:
    """Exact a / b of two coefficients; `/` on two ints would make a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a, b))


def _frac_content(coeffs) -> int | Fraction:
    """gcd of numerators over lcm of denominators; positive."""
    num = 0
    den = 1
    for c in coeffs:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    if num == 0:
        return 1
    return _quotient(num, den)


class LaurentPoly:
    """Laurent polynomial in p, q: a finite map (a, b) -> nonzero
    coefficient, where (a, b) are the exponents of p and q.  A coefficient
    is an int, or a Fraction that is not an integer."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExpPair, int | Fraction] | None = None):
        clean: dict[ExpPair, int | Fraction] = {}
        if terms:
            for (a, b), c in terms.items():
                c = _exact(c)
                if c:
                    clean[(int(a), int(b))] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def const(cls, c) -> LaurentPoly:
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, c, a: int, b: int) -> LaurentPoly:
        return cls({(a, b): c})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s if type(s) is int else _exact(s)
            elif e in out:
                del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __neg__(self) -> LaurentPoly:
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        out: dict[ExpPair, int | Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return _normalized(out)

    def scale(self, c: int | Fraction) -> LaurentPoly:
        c = _exact(c)
        if not c:
            return LaurentPoly.zero()
        if c == 1:
            return self
        return _normalized({e: v * c for e, v in self.terms.items()})

    def shift(self, a: int, b: int) -> LaurentPoly:
        """Multiply by the monomial p^a q^b."""
        if not (a or b):
            return self
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {(ea + a, eb + b): c for (ea, eb), c in self.terms.items()}
        return res

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if self.is_monomial():
                (a, b), c = next(iter(self.terms.items()))
                return LaurentPoly.monomial(_quotient(1, c), -a, -b) ** (-n)
            raise ZeroInverse("negative power of a non-monomial Laurent polynomial")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def leading(self) -> tuple[ExpPair, int | Fraction]:
        """Term with the largest exponent pair in descending lex order."""
        e = max(self.terms)
        return e, self.terms[e]

    def content(self) -> tuple[int | Fraction, int, int]:
        """(scalar, a, b) such that self / (scalar * p^a q^b) is integer-
        primitive with minimal exponents zero and positive leading term."""
        if self.is_zero:
            return 1, 0, 0
        a = min(e[0] for e in self.terms)
        b = min(e[1] for e in self.terms)
        c = _frac_content(self.terms.values())
        if self.terms[max(self.terms)] < 0:
            c = -c
        return c, a, b

    def unit_divide(self, c: int | Fraction, a: int, b: int) -> LaurentPoly:
        """Divide by the unit c * p^a q^b."""
        return self.scale(_quotient(1, c)).shift(-a, -b)

    def evaluate(self, p0, q0) -> Fraction:
        """Exact value at the rational point (p0, q0)."""
        if type(p0) is not Fraction or type(q0) is not Fraction:
            p0, q0 = Fraction(_exact(p0)), Fraction(_exact(q0))
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * p0**a * q0**b
        return total

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mag = _monomial_str(abs(c), *e)
            if not parts:
                parts.append(mag if c > 0 else "-" + mag)
            else:
                parts.append((" + " if c > 0 else " - ") + mag)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# The unit polynomial, shared as the denominator of every RatFunc whose
# denominator is 1; LaurentPoly values are never mutated.
_UNIT = LaurentPoly.const(1)


def _normalized(terms: dict[ExpPair, int | Fraction]) -> LaurentPoly:
    """The polynomial over terms, whose nonzero values may still hold
    integral Fractions; takes ownership of the dict."""
    for e, c in terms.items():
        if type(c) is not int:
            terms[e] = _exact(c)
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    return res


def _monomial_str(c: int | Fraction, a: int, b: int) -> str:
    pieces = []
    if c != 1 or (a == 0 and b == 0):
        pieces.append(str(c))
    if a:
        pieces.append("p" if a == 1 else f"p^{a}")
    if b:
        pieces.append("q" if b == 1 else f"q^{b}")
    return "*".join(pieces)


def _try_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Quotient num/den if the division is exact, else None.

    Leading-term elimination in descending lex order.  The lowest power of
    p (of q) in a product is the sum of the factors' lowest powers, so a
    quotient term below that bound proves the division inexact; the terms
    descend in lex order, so the loop ends.
    """
    if den.is_zero:
        return None
    if num.is_zero:
        return LaurentPoly.zero()
    (ea, eb), lc = den.leading()
    low_a = min(a for a, _ in num.terms) - min(a for a, _ in den.terms)
    low_b = min(b for _, b in num.terms) - min(b for _, b in den.terms)
    quot: dict[ExpPair, int | Fraction] = {}
    rem = num
    while rem:
        (ra, rb), rc = rem.leading()
        t = (ra - ea, rb - eb)
        if t[0] < low_a or t[1] < low_b:
            return None
        tc = _quotient(rc, lc)
        quot[t] = tc
        rem = rem - den.shift(*t).scale(tc)
    return LaurentPoly(quot)


class RatFunc:
    """Rational function num/den in p, q.

    Equality is cross multiplication: n1*d2 == n2*d1 as Laurent
    polynomials.  Construction applies content reduction and, when a
    denominator divides the numerator exactly, cancels it outright.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if not isinstance(num, LaurentPoly):
            raise TypeError(f"numerator {num!r} is not a LaurentPoly; "
                            "RatFunc.const makes a constant")
        if den is None or den is _UNIT:
            den = _UNIT
        elif den.is_zero:
            raise ZeroInverse("rational function with zero denominator")
        elif num.is_zero:
            den = _UNIT
        elif den.is_monomial():
            (a, b), c = den.leading()
            if (a, b, c) != (0, 0, 1):  # dividing by 1 would only copy num
                num = num.unit_divide(c, a, b)
            den = _UNIT
        else:
            c, a, b = den.content()
            num = num.unit_divide(c, a, b)
            den = den.unit_divide(c, a, b)
            q = _try_exact_div(num, den)
            if q is not None:
                num, den = q, _UNIT
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> RatFunc:
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> RatFunc:
        return cls(LaurentPoly.const(1))

    @classmethod
    def const(cls, c) -> RatFunc:
        return cls(LaurentPoly.const(c))

    @classmethod
    def monomial(cls, c, a: int, b: int) -> RatFunc:
        return cls(LaurentPoly.monomial(c, a, b))

    @classmethod
    def p(cls, exp: int = 1) -> RatFunc:
        return cls(LaurentPoly.monomial(1, exp, 0))

    @classmethod
    def q(cls, exp: int = 1) -> RatFunc:
        return cls(LaurentPoly.monomial(1, 0, exp))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- field operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None

    def __add__(self, other: RatFunc) -> RatFunc:
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> RatFunc:
        res = RatFunc.__new__(RatFunc)
        res.num = -self.num
        res.den = self.den
        return res

    def __sub__(self, other: RatFunc) -> RatFunc:
        return self + (-other)

    def __mul__(self, other: RatFunc) -> RatFunc:
        # values are immutable, so the unit may hand back the other operand
        if other is ONE:
            return self
        if self is ONE:
            return other
        if self.den is _UNIT:
            return RatFunc(self.num * other.num, other.den)
        if other.den is _UNIT:
            return RatFunc(self.num * other.num, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inv(self) -> RatFunc:
        if self.is_zero:
            raise ZeroInverse("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        return self * other.inv()

    def __pow__(self, n: int) -> RatFunc:
        if n < 0:
            return self.inv() ** (-n)
        out = RatFunc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, p0, q0) -> Fraction:
        """Exact value at (p0, q0).

        Raises SingularEvaluation if either parameter is zero or the
        denominator vanishes there.
        """
        p0, q0 = Fraction(_exact(p0)), Fraction(_exact(q0))
        if p0 == 0 or q0 == 0:
            raise SingularEvaluation("parameters must be nonzero")
        if self.den is _UNIT:
            return self.num.evaluate(p0, q0)
        d = self.den.evaluate(p0, q0)
        if d == 0:
            raise SingularEvaluation(f"denominator vanishes at ({p0}, {q0})")
        return self.num.evaluate(p0, q0) / d

    def substitute(self, p_val: RatFunc | None, q_val: RatFunc | None) -> RatFunc:
        """Simultaneously substitute rational functions for p and/or q."""
        if p_val is None and q_val is None:
            return self
        pv = p_val if p_val is not None else RatFunc.p()
        qv = q_val if q_val is not None else RatFunc.q()
        num = _subst_laurent(self.num, pv, qv)
        den = _subst_laurent(self.den, pv, qv)
        if den.is_zero:
            raise SingularSpecialization("substitution kills a denominator")
        return num / den

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if self.den == LaurentPoly.const(1):
            return str(self.num)
        den = str(self.den)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _subst_laurent(poly: LaurentPoly, pv: RatFunc, qv: RatFunc) -> RatFunc:
    total = RatFunc.zero()
    for (a, b), c in poly.terms.items():
        total = total + RatFunc.const(c) * pv**a * qv**b
    return total


def qnum(n: int, t: RatFunc) -> RatFunc:
    """Deformed integer <n>_t = 1 + t + ... + t^(n-1); <0> is the empty sum."""
    if n < 0:
        raise ValueError("qnum needs a nonnegative integer")
    total = RatFunc.zero()
    power = RatFunc.one()
    for _ in range(n):
        total = total + power
        power = power * t
    return total


# The two parameters, ready-made.
P = RatFunc.p()
Q = RatFunc.q()
ONE = RatFunc.one()
ZERO = RatFunc.zero()

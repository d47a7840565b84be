"""Exact coefficient arithmetic: Laurent polynomials and rational functions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grasspq.cli import parse_coeff, parse_poly
from grasspq.coeff import LaurentPoly, ONE, P, Q, RatFunc, ZERO, qnum
from grasspq.errors import SingularEvaluation, ZeroInverse
from grasspq.freealg import preset

one = RatFunc.one()


def rf(c, a=0, b=0):
    return RatFunc.monomial(c, a, b)


def random_ratfunc(rng, allow_den=True):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = Fraction(
                rng.randint(-4, 4), rng.randint(1, 3))
        return LaurentPoly(terms)

    num = poly()
    den = poly() if allow_den and rng.random() < 0.4 else LaurentPoly.const(1)
    while den.is_zero:
        den = poly()
    return RatFunc(num, den)


# -- addition ---------------------------------------------------------------

def test_add_inverse_cancels():
    assert (P + (-P)).is_zero


def test_add_keeps_mixed_monomials():
    # the scalar that sits on the diagonal of the R-matrix
    s = P + Q**-1
    assert s == RatFunc(LaurentPoly({(1, 0): 1, (0, -1): 1}))


def test_add_common_denominator():
    d = one - P * Q
    assert rf(1) / d + rf(-1) * (P * Q) / d == one


# -- multiplication ----------------------------------------------------------

def test_mul_monomials():
    assert P * Q**-1 == rf(1, 1, -1)


def test_mul_orients_commutator_coefficient():
    # the coefficient step that re-orients the mixed quadratic relation
    assert (P - Q**-1) * (Q * P**-1) == Q - P**-1


def test_mul_cancels_denominator():
    val = (one - P * Q) / (one + P * Q) * (one + P * Q)
    assert val == one - P * Q
    assert val.den == LaurentPoly.const(1)


def test_mul_with_unit_denominator_keeps_stored_form(rng):
    # a factor with denominator 1 skips the denominator product; the stored
    # numerator and denominator, which printing reads, must not change
    for _ in range(200):
        x, y = random_ratfunc(rng), random_ratfunc(rng)
        full = RatFunc(x.num * y.num, x.den * y.den)
        got = x * y
        assert (got.num.terms, got.den.terms) == (full.num.terms, full.den.terms)
        assert str(got) == str(full)


# -- inversion ---------------------------------------------------------------

def test_inv_monomial():
    assert (P * Q).inv() == P**-1 * Q**-1


def test_inv_binomial_roundtrip():
    s = P + Q**-1
    assert s * s.inv() == one


def test_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        ZERO.inv()


# -- evaluation ---------------------------------------------------------------

def test_eval_monomial():
    assert (P * Q**-1).evaluate(2, 3) == Fraction(2, 3)


def test_eval_singular_at_unit_product():
    with pytest.raises(SingularEvaluation):
        (one / (one - P * Q)).evaluate(1, 1)


def test_eval_admissibility_guard():
    # evaluate has no admissibility guard: p*q = 1 is a regular point
    # (the rank cross-check draws its points from _random_admissible_points)
    assert P.evaluate(2, Fraction(1, 2)) == 2


def test_eval_degeneration_point():
    # p - q^-1 vanishes where the deformation source term dies
    assert (P - Q**-1).evaluate(3, Fraction(1, 3)) == 0


def test_eval_zero_parameter_rejected():
    with pytest.raises(SingularEvaluation):
        P.evaluate(0, 1)


def test_eval_is_homomorphism(rng):
    for _ in range(20):
        a = random_ratfunc(rng)
        b = random_ratfunc(rng)
        while True:
            p0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            q0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            if p0 * q0 in (1, -1):
                continue
            try:
                av, bv = a.evaluate(p0, q0), b.evaluate(p0, q0)
                ab = (a * b).evaluate(p0, q0)
                s = (a + b).evaluate(p0, q0)
            except SingularEvaluation:
                continue
            break
        assert ab == av * bv
        assert s == av + bv


# -- deformed integers ---------------------------------------------------------

def test_qnum_empty_sum():
    assert qnum(0, P * Q).is_zero


def test_qnum_one():
    assert qnum(1, P * Q) == one


def test_qnum_three():
    t = P * Q
    assert qnum(3, t) == one + t + t * t


@pytest.mark.parametrize("t", [P * Q, (P * Q) ** 2, (P * Q) ** -1],
                         ids=["pq", "pq_squared", "pq_inverse"])
def test_qnum_telescopes(t):
    for n in range(17):
        assert qnum(n, t) * (one - t) == one - t**n


@pytest.mark.parametrize("n", [60, 80, 100])
def test_geometric_sum_quotient_is_canonical(n):
    # (1 - t^n)/(1 - t) divides exactly, however long the quotient
    t = P * Q
    quot = (one - t**n) / (one - t)
    assert quot.den == LaurentPoly.const(1)
    assert quot.num == qnum(n, t).num


def test_exact_division_returns_long_quotients(rng):
    # a = r * (1 + m + ... + m^(n-1)) and b = 1 - m telescope, so a*b has
    # 2*len(r) terms while a has n*len(r), above a cap of the old
    # 8*(terms)+32 kind
    for _ in range(10):
        m = LaurentPoly.monomial(Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                                 rng.randint(-3, 3) or 1, rng.randint(-3, 3))
        r = LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(1, 5)
                         for _ in range(2)})
        n = rng.randint(70, 110)
        a = r * sum((m**k for k in range(n)), LaurentPoly.zero())
        b = LaurentPoly.const(1) - m
        assert len(a.terms) > 8 * (len((a * b).terms) + len(b.terms)) + 32
        quot = RatFunc(a * b, b)
        assert quot.den == LaurentPoly.const(1) and quot == RatFunc(a)
        assert quot.num == a


def test_inexact_division_keeps_its_denominator():
    inv = one / (one + P * Q)
    assert inv.den == LaurentPoly.const(1) + LaurentPoly.monomial(1, 1, 1)
    assert str(inv) == "1/(p*q + 1)"


# -- field structure ----------------------------------------------------------

def test_field_axioms_on_random_samples(rng):
    for _ in range(200):
        a = random_ratfunc(rng)
        b = random_ratfunc(rng)
        c = random_ratfunc(rng)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_cross_multiplication_matches_explicit_difference(rng):
    for _ in range(200):
        a = random_ratfunc(rng)
        b = random_ratfunc(rng)
        explicit = (a.num * b.den - b.num * a.den).is_zero
        assert (a == b) == explicit


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_constants_embed_ring_hom(x, y, z):
    cx, cy, cz = RatFunc.const(x), RatFunc.const(y), RatFunc.const(z)
    assert cx * (cy + cz) == RatFunc.const(x * (y + z))


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_monomial_pow_matches_repeated_product(a, b):
    m = rf(2, a, b)
    assert m**3 == m * m * m
    assert m**-1 * m == one


def test_printing_roundtrips_visually():
    assert str(P + Q**-1) == "p + q^-1"
    assert str((one - P * Q) / (one + P * Q)) == "(-p*q + 1)/(p*q + 1)"
    assert str(ZERO) == "0"


# -- coefficient representation -------------------------------------------------

@pytest.mark.parametrize("bad", [0.5, 0.1, 2.0, True], ids=["half", "tenth", "integral_float", "bool"])
def test_floats_and_bools_are_refused_at_every_entry_point(bad):
    entries = [
        lambda: LaurentPoly({(0, 0): bad}),
        lambda: LaurentPoly.const(bad),
        lambda: LaurentPoly.monomial(bad, 1, 0),
        lambda: LaurentPoly.const(3).scale(bad),
        lambda: LaurentPoly.const(3).evaluate(bad, 2),
        lambda: LaurentPoly.const(3).evaluate(2, bad),
        lambda: RatFunc(bad),
        lambda: RatFunc.const(bad),
        lambda: RatFunc.monomial(bad, 0, 1),
        lambda: P.evaluate(bad, 2),
        lambda: P.evaluate(2, bad),
    ]
    for make in entries:
        with pytest.raises(TypeError):
            make()


def test_integral_values_are_stored_as_ints():
    half = RatFunc.const(Fraction(1, 2))
    assert half.num.terms == {(0, 0): Fraction(1, 2)}
    assert type((half * RatFunc.const(2)).num.terms[(0, 0)]) is int
    assert type(LaurentPoly.const(Fraction(6, 3)).terms[(0, 0)]) is int
    assert type(LaurentPoly.const(Fraction(3, 2)).scale(Fraction(2, 3)).terms[(0, 0)]) is int


def test_evaluate_at_integer_points_is_exact():
    assert LaurentPoly.monomial(1, -1, 0).evaluate(2, 3) == Fraction(1, 2)
    assert type((P**-1).evaluate(2, 3)) is Fraction


def _assert_canonical(x):
    polys = [x.num, x.den] if isinstance(x, RatFunc) else [x]
    for poly in polys:
        for c in poly.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (poly.terms, c)


def _random_expression(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        atom = rng.choice(["p", "q", str(rng.randint(1, 6)), f"{rng.randint(1, 6)}/{rng.randint(2, 4)}"])
        return atom if rng.random() < 0.7 else f"{atom}^{rng.randint(-2, 3)}"
    op = rng.choice(["+", "-", "*", "/"])
    return f"({_random_expression(rng, depth - 1)}){op}({_random_expression(rng, depth - 1)})"


def test_stored_coefficients_are_canonical_after_every_operation(rng):
    # every coefficient is an int, or a Fraction that is not an integer
    for _ in range(150):
        a, b = random_ratfunc(rng), random_ratfunc(rng)
        results = [a + b, a - b, a * b, -a, a**rng.randint(0, 3),
                   a.substitute(P * Q, None), a.substitute(None, P + Q**-1)]
        if b:
            results += [a / b, b.inv(), b**-rng.randint(1, 2), (a * b) / b]
            # exact division of the product by a nonzero denominator
            results.append(RatFunc(a.num * b.num, b.num))
        for x in results:
            _assert_canonical(x)
        lp = a.num * b.num
        for x in (lp, lp.scale(Fraction(rng.randint(1, 6), rng.randint(1, 4))),
                  lp.unit_divide(Fraction(rng.randint(1, 6), rng.randint(1, 4)), 1, -1)):
            _assert_canonical(x)
    gr2 = preset("gr2")
    for _ in range(100):
        text = _random_expression(rng)
        try:
            scalar = parse_coeff(text)
        except ZeroInverse:
            continue
        _assert_canonical(scalar)
        for c in parse_poly(f"({text})*alpha*beta + 3/4*delta", gr2).terms.values():
            _assert_canonical(c)


# -- differential test against sympy ------------------------------------------------

def test_agrees_with_sympy(rng):
    sympy = pytest.importorskip("sympy")
    p, q = sympy.symbols("p q")

    def poly(lp):
        return sum((sympy.Rational(c.numerator, c.denominator) * p**a * q**b
                    for (a, b), c in lp.terms.items()), sympy.Integer(0))

    def random_pair(depth):
        """A random rational function, built both here and in sympy."""
        if depth == 0 or rng.random() < 0.25:
            leaf = LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)):
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 3))})
            return RatFunc(leaf), poly(leaf)
        x, sx = random_pair(depth - 1)
        op = rng.choice("+-*/^")
        if op == "^":
            n = rng.randint(-2, 3) if x else rng.randint(0, 3)
            return x**n, sx**n
        y, sy = random_pair(depth - 1)
        if op == "+":
            return x + y, sx + sy
        if op == "-":
            return x - y, sx - sy
        if op == "/" and y:
            return x / y, sx / sy
        return x * y, sx * sy

    for _ in range(25):
        x, sx = random_pair(2)
        y, sy = random_pair(2)
        if rng.random() < 0.3:  # the same value, reached another way
            y, sy = (x + y) - y, sx
        assert sympy.cancel(poly(x.num) / poly(x.den) - sx) == 0
        equal = sympy.cancel(sx - sy) == 0
        assert (x - y).is_zero == equal
        assert (x == y) == equal
        assert sympy.expand(poly(x.num * y.num) - poly(x.num) * poly(y.num)) == 0

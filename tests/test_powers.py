"""Closed-form powers of the generic supermatrix and the relation
families their entries satisfy."""

import pytest

from grasspq.coeff import ONE, P, Q, RatFunc, qnum
from grasspq.errors import DegreeCapExceeded
from grasspq.freealg import ENTRY_LAYOUTS, Poly, family, normal_form, preset
from grasspq.matops import (
    closed_power,
    generic_gr11,
    mat_mul,
    matrix_power,
    power_relations_check,
)

w = Poly.word
g = Poly.gen


@pytest.fixture(scope="module")
def gr11():
    return preset("gr11")


def test_exponent_one_is_the_matrix_itself():
    cp = closed_power(1)
    assert cp[0, 0] == g("alpha")
    assert cp[0, 1] == g("b")
    assert cp[1, 0] == g("c")
    assert cp[1, 1] == g("delta")


def test_exponent_two_entries(gr11):
    cp = closed_power(2)
    assert cp[0, 0] == w("b", "c")
    assert cp[0, 1] == w("alpha", "b") + w("delta", "b", coeff=P)
    assert cp[1, 0] == w("delta", "c") + w("alpha", "c", coeff=Q)
    assert cp[1, 1] == normal_form(w("c", "b"), gr11)


def test_exponent_three_top_entry(gr11):
    cp = closed_power(3)
    expected = normal_form(
        (g("alpha", ONE + P * Q) + g("delta", P)) * w("b", "c"), gr11)
    assert cp[0, 0] == expected


@pytest.mark.parametrize("exponent", range(1, 7))
def test_closed_power_matches_iterated_product(gr11, exponent):
    cp = closed_power(exponent)
    it = matrix_power(generic_gr11(gr11), exponent)
    assert (cp[0, 0] - it[0, 0]).is_zero
    assert (cp[0, 1] - it[0, 1]).is_zero
    assert (cp[1, 0] - it[1, 0]).is_zero
    assert (cp[1, 1] - it[1, 1]).is_zero


def test_squaring_power_matches_iterated_product_and_closed_form(gr11):
    m = generic_gr11(gr11)
    acc = m
    for exponent in range(1, 9):
        if exponent > 1:
            acc = mat_mul(acc, m)
        squared = matrix_power(m, exponent)
        assert squared == acc
        assert squared == closed_power(exponent)


# from e = 33 on, the family products of the entries are 2e letters long,
# past gr11's cap of 64; they reduce because no input word is held to it
@pytest.mark.parametrize("exponent", [*range(1, 7), 33, 42])
def test_power_relations_hold(exponent):
    report = power_relations_check(exponent)
    assert report.passed, report.to_text()


def test_power_relations_check_reads_a_given_power():
    # a built power gives the same report; another matrix is checked as it is
    assert (power_relations_check(3, closed_power(3)).signature()
            == power_relations_check(3).signature())
    assert not power_relations_check(3, closed_power(1)).passed


def test_power_relations_at_exponent_one_are_the_base_relations(gr11):
    # definitional: the exponent-1 family is the defining relation set
    report = power_relations_check(1)
    assert report.passed
    assert len(report.checks) == 8


def _power_family(exponent):
    return "diag_odd" if exponent % 2 else "diag_even"


@pytest.mark.parametrize("exponent", range(1, 5))
def test_power_family_fails_at_the_wrong_parameters(gr11, exponent):
    # the family check can fail: at (p^(e+1), q^(e+1)) some relation of
    # the e-th power leaves a nonzero normal form
    cp = closed_power(exponent)
    rels = family(_power_family(exponent), cp.entries, P**(exponent + 1), Q**(exponent + 1))
    assert any(not normal_form(rel, gr11).is_zero for _, rel in rels)


@pytest.mark.parametrize("exponent", range(1, 5))
def test_power_entries_have_the_parities_of_their_family_layout(gr11, exponent):
    cp = closed_power(exponent)
    layout = ENTRY_LAYOUTS[_power_family(exponent)]
    for entry, (_, parity) in zip(cp.entries, layout):
        assert gr11.poly_parity(entry) == parity


def test_power_check_names_carry_the_family_labels():
    names = [c.name for c in power_relations_check(3).checks]
    assert "e3:A*B = p^-1 B*A" in names
    assert "e3:B*C = p q^-1 C*B + (p - q^-1) D*A" in names


def test_even_power_entries_square_to_zero(gr11):
    cp = closed_power(4)
    assert normal_form(cp[0, 1] * cp[0, 1], gr11).is_zero
    assert normal_form(cp[1, 0] * cp[1, 0], gr11).is_zero


def test_even_power_mixed_commutator(gr11):
    # frozen spec example at exponent 2: AD - DA - (p^2 - q^-2) CB = 0
    cp = closed_power(2)
    a, b, c, d = cp.entries
    residual = a * d - d * a - (c * b).scale(P**2 - Q**-2)
    assert normal_form(residual, gr11).is_zero


def test_printed_coefficient_swaps_fail(gr11):
    # regression guard for the corrected relation family: the swapped
    # coefficient placements are genuinely wrong, not equivalent forms
    cp = closed_power(2)
    bad = cp[0, 0] * cp[0, 1] - (cp[0, 1] * cp[0, 0]).scale(P**2)
    assert not normal_form(bad, gr11).is_zero
    cp3 = closed_power(3)
    bad3 = cp3[0, 0] * cp3[1, 0] - (cp3[1, 0] * cp3[0, 0]).scale(P**-3)
    assert not normal_form(bad3, gr11).is_zero


def test_literal_first_power_collapse_in_localization():
    # B at exponent 1 formally reads bc (bc)^-1 b; the localization
    # collapses it to b, so the unlocalized algebra suffices for e >= 2
    loc = preset("gr11_localized")
    literal_b = normal_form(w("b", "c", "cinv", "binv", "b"), loc)
    literal_c = normal_form(w("c", "b", "binv", "cinv", "c"), loc)
    assert literal_b == g("b")
    assert literal_c == g("c")


def test_qnum_feeds_closed_power_coefficients(gr11):
    # A at odd exponent 2n-1 carries <n> alpha + p <n-1> delta on (bc)^(n-1)
    t = P * Q
    cp = closed_power(5)
    expected = normal_form(
        (g("alpha", qnum(3, t)) + g("delta", P * qnum(2, t)))
        * w("b", "c") * w("b", "c"), gr11)
    assert cp[0, 0] == expected


@pytest.mark.parametrize("exponent", [65, 10**9])
def test_power_past_the_word_cap_fails_before_any_coefficient(monkeypatch, exponent):
    # the e-th power has a word of length e; gr11 caps words at 64
    def no_qnum(*args):
        raise AssertionError("qnum ran before the cap check")

    monkeypatch.setattr("grasspq.matops.qnum", no_qnum)
    with pytest.raises(DegreeCapExceeded, match="over the cap 64"):
        closed_power(exponent)

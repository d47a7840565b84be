"""Matrices over the presented algebras: products, tensors, the R-matrix,
RTT residuals, dual determinants, inverses, the superdeterminant."""

from fractions import Fraction

import pytest

from grasspq.coeff import ONE, P, Q, RatFunc
from grasspq.errors import GeneratorMismatch, NotHomogeneous, NotLocalized, ShapeMismatch
from grasspq.freealg import (
    ENTRY_LAYOUTS,
    Poly,
    family,
    format_poly,
    free_algebra_on,
    normal_form,
    preset,
    specialize,
)
from grasspq.matops import (
    AlgMatrix,
    RMatrix,
    delta_left,
    delta_right,
    generic_gr2,
    generic_gr11,
    generic_gr11_localized,
    generic_matrix,
    identity_matrix,
    inverse11,
    left_inverse,
    mat_mul,
    matrix_power,
    rhat,
    right_inverse,
    rtt_residual,
    sdet,
    span_equal,
    tensor_graded,
    tensor_ungraded,
)
from grasspq.matops import _echelon

w = Poly.word
g = Poly.gen
one = RatFunc.one()
two = RatFunc.const(2)
zero_rf = RatFunc.zero()


@pytest.fixture(scope="module")
def gr2():
    return preset("gr2")


@pytest.fixture(scope="module")
def gr11():
    return preset("gr11")


@pytest.fixture(scope="module")
def loc():
    return preset("gr11_localized")


# -- products -----------------------------------------------------------------

def test_mat_mul_unit(gr2):
    a = generic_gr2(gr2)
    assert mat_mul(a, identity_matrix(gr2, 2)) == a
    assert mat_mul(identity_matrix(gr2, 2), a) == a


def test_supermatrix_square_entries(gr11):
    m = generic_gr11(gr11)
    sq = mat_mul(m, m)
    # frozen from the hand expansion: aa + bc, ab + bd, ca + dc, cb + dd
    assert sq[0, 0] == w("b", "c")
    assert sq[0, 1] == w("alpha", "b") + w("delta", "b", coeff=P)
    assert sq[1, 0] == w("alpha", "c", coeff=Q) + w("delta", "c")
    assert sq[1, 1] == normal_form(w("c", "b"), gr11)


def test_mat_mul_shape_mismatch(gr2):
    a = generic_gr2(gr2)
    col = AlgMatrix(2, 1, [g("alpha"), g("beta")], gr2)
    with pytest.raises(ShapeMismatch):
        mat_mul(col, a)


def test_mat_mul_presentation_mismatch(gr2, gr11):
    with pytest.raises(GeneratorMismatch):
        mat_mul(generic_gr2(gr2), generic_gr11(gr11))


# -- tensor embeddings -----------------------------------------------------------

def test_ungraded_slot1_layout(gr2):
    a = generic_gr2(gr2)
    t = tensor_ungraded(a, 1)
    # (ij),(kl) entry is A^i_k delta^j_l
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected = a[i, k] if j == l else Poly.zero()
                    assert (t[2 * i + j, 2 * k + l] - expected).is_zero


def test_ungraded_slot2_of_identity_is_identity(gr2):
    assert tensor_ungraded(identity_matrix(gr2, 2), 2) == identity_matrix(gr2, 4)


def test_graded_slot1_matches_explicit_matrix(gr11):
    m = generic_gr11(gr11)
    z = Poly.zero()
    expected = AlgMatrix(4, 4, [
        g("alpha"), z, g("b"), z,
        z, g("alpha"), z, g("b"),
        g("c"), z, g("delta"), z,
        z, g("c"), z, g("delta")], gr11)
    assert tensor_graded(m, 1) == expected


def test_graded_slot2_matches_explicit_signed_matrix(gr11):
    m = generic_gr11(gr11)
    z = Poly.zero()
    expected = AlgMatrix(4, 4, [
        -g("alpha"), -g("b"), z, z,
        -g("c"), -g("delta"), z, z,
        z, z, -g("alpha"), g("b"),
        z, z, g("c"), -g("delta")], gr11)
    assert tensor_graded(m, 2) == expected


def test_graded_slot2_of_all_even_matrix_is_signed_ungraded(gr11):
    # the slot-2 sign pattern is positional, so even entries do not kill
    # it: the embedding differs from the ungraded one exactly on the
    # fixed sign mask (minus everywhere except the two +1 slots)
    m = AlgMatrix(2, 2, [g("b"), g("c"), g("c"), g("b")], gr11)
    graded = tensor_graded(m, 2)
    ungraded = tensor_ungraded(m, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    r, c = 2 * i + j, 2 * k + l
                    sign = -1 if (1 + i * (j + l)) % 2 else 1
                    expected = ungraded[r, c].scale(RatFunc.const(sign))
                    assert (graded[r, c] - expected).is_zero


def test_tensor_rejects_wrong_shape(gr2):
    with pytest.raises(ShapeMismatch):
        tensor_ungraded(identity_matrix(gr2, 4), 1)


# -- R-matrix ----------------------------------------------------------------------

def test_rhat_explicit_layout():
    z = zero_rf
    expected = RMatrix([
        [P + Q**-1, z, z, z],
        [z, two, Q**-1 - P, z],
        [z, P - Q**-1, two * P * Q**-1, z],
        [z, z, z, P + Q**-1]])
    assert rhat(one) == expected


def test_rhat_at_minus_one():
    z = zero_rf
    expected = RMatrix([
        [P + Q**-1, z, z, z],
        [z, -two, Q**-1 - P, z],
        [z, P - Q**-1, -(two * P * Q**-1), z],
        [z, z, z, P + Q**-1]])
    assert rhat(-one) == expected


def test_rhat_at_zero_middle_diagonal():
    r = rhat(zero_rf)
    assert r[1, 1].is_zero and r[2, 2].is_zero
    assert r[0, 0] == P + Q**-1


# -- RTT -----------------------------------------------------------------------------

def test_rtt_soundness_gr2(gr2):
    assert rtt_residual(one, generic_gr2(gr2), graded=False).is_zero


def test_rtt_soundness_gr11_graded(gr11):
    assert rtt_residual(-one, generic_gr11(gr11), graded=True).is_zero


def test_rtt_needs_grading_for_supermatrix(gr11):
    # dropping the signs breaks the relation: the grading is load-bearing
    assert not rtt_residual(-one, generic_gr11(gr11), graded=False).is_zero


def test_rtt_completeness_gr2(gr2):
    free = free_algebra_on(gr2)
    residual = rtt_residual(one, generic_gr2(free), graded=False)
    entries = [e for e in residual.entries if not e.is_zero]
    assert span_equal(entries, gr2.relation_polys(), label="gr2").passed


def test_rtt_completeness_gr11(gr11):
    free = free_algebra_on(gr11)
    residual = rtt_residual(-one, generic_gr11(free), graded=True)
    entries = [e for e in residual.entries if not e.is_zero]
    assert span_equal(entries, gr11.relation_polys(), label="gr11").passed


# -- span comparison -------------------------------------------------------------------

def test_span_equal_reflexive(gr11):
    rels = gr11.relation_polys()
    assert span_equal(rels, rels, label="refl").passed


def test_span_equal_distinguishes_free_words():
    assert not span_equal([w("alpha", "beta")], [w("beta", "alpha")],
                          label="distinct").passed


def test_span_equal_scaling_invariance(gr2):
    rels = gr2.relation_polys()
    scaled = [r.scale(P * Q**-1) for r in rels]
    assert span_equal(rels, scaled, label="scaled").passed


def test_span_equal_names_the_failing_direction(gr2):
    rels = gr2.relation_polys()
    statuses = lambda report: {c.name: c.status for c in report.checks}
    assert statuses(span_equal(rels, rels[1:], label="sub")) == {
        "membership_second_in_first": "pass",
        "membership_first_in_second": "fail",
        "numeric_rank_crosscheck": "fail"}
    assert statuses(span_equal(rels[1:], rels, label="super")) == {
        "membership_second_in_first": "fail",
        "membership_first_in_second": "pass",
        "numeric_rank_crosscheck": "fail"}


def dense_rank(rows):
    """Reference rank: Gauss elimination on the dense Fraction matrix."""
    cols = sorted({c for row in rows for c in row})
    mat = [[row.get(c, Fraction(0)) for c in cols] for row in rows]
    rank = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_sparse_rank_matches_dense_elimination(rng):
    cols = [("alpha", x) for x in ("b", "c", "delta")] + [("b", "c"), ("c", "b")]
    for _ in range(300):
        rows = []
        for _ in range(rng.randint(1, 6)):
            if rows and rng.random() < 0.4:  # a combination of earlier rows
                row = {}
                for old in rng.sample(rows, rng.randint(1, len(rows))):
                    f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for c, v in old.items():
                        row[c] = row.get(c, 0) + f * v
                row = {c: v for c, v in row.items() if v}
            else:
                row = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                       for c in rng.sample(cols, rng.randint(1, 3))}
                row = {c: v for c, v in row.items() if v}
            rows.append(row)
        assert len(_echelon(rows)) == dense_rank(rows)
        # rows appended to the echelon of a prefix: the rank of the union
        cut = rng.randint(0, len(rows))
        prefix = _echelon(rows[:cut])
        assert len(_echelon(rows[cut:], prefix)) == dense_rank(rows)
        assert len(prefix) == dense_rank(rows[:cut])  # the basis is copied, not grown


def test_span_equal_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        span_equal([w("alpha", "beta") + g("alpha")], [w("alpha", "beta")])


# -- dual determinants and inverses ------------------------------------------------------

def test_delta_left_normal_form(gr2):
    assert delta_left(generic_gr2(gr2)) == (
        w("beta", "gamma") - w("alpha", "delta", coeff=Q**-1))


def test_delta_right_normal_form(gr2):
    assert delta_right(generic_gr2(gr2)) == (
        -w("beta", "gamma", coeff=Q * P**-1) - w("alpha", "delta", coeff=Q))


def test_determinants_at_equal_parameters(gr2):
    a = generic_gr2(gr2)
    dl = specialize(delta_left(a), {"q": P})
    dr = specialize(delta_right(a), {"q": P})
    assert dl == w("beta", "gamma") - w("alpha", "delta", coeff=P**-1)
    assert dr == -(w("beta", "gamma") + w("alpha", "delta", coeff=P))


def test_left_inverse_identity(gr2):
    a = generic_gr2(gr2)
    dl = delta_left(a)
    expected = AlgMatrix(2, 2, [dl, Poly.zero(), Poly.zero(), dl], gr2)
    assert mat_mul(left_inverse(a), a) == expected


def test_right_inverse_identity(gr2):
    a = generic_gr2(gr2)
    dr = delta_right(a)
    expected = AlgMatrix(2, 2, [dr, Poly.zero(), Poly.zero(), dr], gr2)
    assert mat_mul(a, right_inverse(a)) == expected


def test_left_right_inverse_compatibility(gr2):
    a = generic_gr2(gr2)
    dl, dr = delta_left(a), delta_right(a)
    lhs = AlgMatrix(2, 2, [dl * e for e in right_inverse(a).entries], gr2)
    rhs = AlgMatrix(2, 2, [e * dr for e in left_inverse(a).entries], gr2)
    assert lhs == rhs


# -- supermatrix inverse -------------------------------------------------------------------

def test_inverse11_entry(loc):
    m = generic_gr11_localized(loc)
    inv = inverse11(m)
    expected = -w("cinv", "delta", "binv")
    assert (inv[0, 0] - normal_form(expected, loc)).is_zero


def test_inverse11_two_sided(loc):
    m = generic_gr11_localized(loc)
    inv = inverse11(m)
    i2 = identity_matrix(loc, 2)
    assert mat_mul(m, inv) == i2
    assert mat_mul(inv, m) == i2


def test_inverse11_requires_localization(gr11):
    with pytest.raises(NotLocalized):
        inverse11(generic_gr11(gr11))


def test_inverse_entries_satisfy_inverted_parameter_relations(loc):
    m = generic_gr11_localized(loc)
    inv = inverse11(m)
    ap, bp, cp, dp = inv[0, 0], inv[0, 1], inv[1, 0], inv[1, 1]
    pi, qi = P**-1, Q**-1
    residuals = [
        ap * bp - (bp * ap).scale(pi**-1),
        ap * cp - (cp * ap).scale(qi**-1),
        dp * bp - (bp * dp).scale(pi**-1),
        dp * cp - (cp * dp).scale(qi**-1),
        ap * dp + dp * ap,
        ap * ap,
        dp * dp,
        bp * cp - (cp * bp).scale(pi * qi**-1) - (dp * ap).scale(pi - qi**-1),
    ]
    for residual in residuals:
        assert normal_form(residual, loc).is_zero


def test_inverse_entries_break_the_family_at_uninverted_parameters(loc):
    # the family check of suite_gr11 can fail: at (p, q) instead of
    # (p^-1, q^-1) some relation leaves a nonzero normal form
    inv = inverse11(generic_gr11_localized(loc))
    residuals = [normal_form(rel, loc) for _, rel in family("diag_odd", inv.entries, P, Q)]
    assert any(not r.is_zero for r in residuals)


# -- superdeterminant -------------------------------------------------------------------------

def test_sdet_forms_agree(loc):
    m = generic_gr11_localized(loc)
    assert (sdet(m, "left") - sdet(m, "right")).is_zero


def test_sdet_twisted_commutation(loc):
    m = generic_gr11_localized(loc)
    d = sdet(m, "left")
    twist = P * Q**-1
    for name in ("alpha", "delta", "b", "c"):
        gen = g(name)
        assert normal_form(d * gen - (gen * d).scale(twist), loc).is_zero


def test_sdet_noncentral_but_central_at_equal_parameters(loc):
    m = generic_gr11_localized(loc)
    d = sdet(m, "left")
    for name in ("alpha", "delta", "b", "c"):
        comm = normal_form(d * g(name) - g(name) * d, loc)
        assert not comm.is_zero
        assert specialize(comm, {"q": P}).is_zero


def test_sdet_needs_localization(gr11):
    with pytest.raises(NotLocalized):
        sdet(generic_gr11(gr11))


# -- parity bookkeeping -------------------------------------------------------------------------

def test_constructed_matrices_are_parity_homogeneous(gr2, gr11, loc):
    a = generic_gr2(gr2)
    for e in mat_mul(a, a).entries:
        if not e.is_zero:
            assert gr2.poly_parity(e) == 0  # products of two odds
    m = generic_gr11(gr11)
    pattern = [1, 0, 0, 1]  # diagonal odd, off-diagonal even
    for e, par in zip(m.entries, pattern):
        assert gr11.poly_parity(e) == par
    inv = inverse11(generic_gr11_localized(loc))
    for e, par in zip(inv.entries, pattern):
        assert loc.poly_parity(e) == par
    for kind, pres in (("all_odd", gr2), ("diag_odd", gr11), ("diag_odd", loc)):
        layout = [par for _, par in ENTRY_LAYOUTS[kind]]
        assert [pres.poly_parity(e) for e in generic_matrix(kind, pres).entries] == layout

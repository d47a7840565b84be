"""Matrices over the presented algebras: products, tensors, the R-matrix,
RTT residuals, dual determinants, inverses, the superdeterminant."""

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import pytest

from grasspq.coeff import P, Q, RatFunc
from grasspq.errors import GeneratorMismatch, NotHomogeneous, NotLocalized, ShapeMismatch
from grasspq.freealg import (
    ENTRY_LAYOUTS,
    EVEN,
    ODD,
    PRESET_NAMES,
    Poly,
    derive_relations,
    family,
    format_poly,
    free_algebra_on,
    normal_form,
    preset,
    specialize,
)
from grasspq.matops import (
    MAX_POINTS,
    AlgMatrix,
    Span,
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
    quadratic_pairing,
    rhat,
    right_inverse,
    rtt_residual,
    sdet,
    span_equal,
    tensor_graded,
    tensor_ungraded,
)
from grasspq.matops import (
    _admissible_points,
    _echelon,
    _integer_echelon,
    _integer_rows,
    _slot2_sign,
)
from grasspq.verify import (
    DEFAULT_SEED,
    FAMILIES,
    MUTATIONS,
    mutate_preset,
    rtt_entries,
)

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
    with pytest.raises(GeneratorMismatch, match="over 'gr2' and 'gr11'"):
        mat_mul(generic_gr2(gr2), generic_gr11(gr11))
    # a mutated copy keeps its preset's label but not its rules
    mutated = mutate_preset(next(m for m in MUTATIONS if m.preset_name == "gr2"))
    assert mutated.label == gr2.label
    with pytest.raises(GeneratorMismatch, match="two presentations labelled 'gr2'"):
        mat_mul(generic_gr2(mutated), generic_gr2(gr2))


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
    expected = (
        (P + Q**-1, z, z, z),
        (z, two, Q**-1 - P, z),
        (z, P - Q**-1, two * P * Q**-1, z),
        (z, z, z, P + Q**-1))
    assert rhat(one) == expected


def test_rhat_at_minus_one():
    z = zero_rf
    expected = (
        (P + Q**-1, z, z, z),
        (z, -two, Q**-1 - P, z),
        (z, P - Q**-1, -(two * P * Q**-1), z),
        (z, z, z, P + Q**-1))
    assert rhat(-one) == expected


def test_rhat_at_zero_middle_diagonal():
    r = rhat(zero_rf)
    assert r[1][1].is_zero and r[2][2].is_zero
    assert r[0][0] == P + Q**-1


def _kron(a, b):
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def _times(a, b):
    return [[sum((x * y for x, y in zip(row, col)), zero_rf) for col in zip(*b)] for row in a]


def _braids(r):
    """R12 R23 R12 = R23 R12 R23 for R12 = R (x) I and R23 = I (x) R, in
    exact 8x8 products."""
    eye = [[one, zero_rf], [zero_rf, one]]
    r12, r23 = _kron(r, eye), _kron(eye, r)
    return _times(_times(r12, r23), r12) == _times(_times(r23, r12), r23)


def test_rhat_does_not_braid():
    # the shipped R-matrix gives the RTT relations, but is no braid solution
    assert not _braids(rhat(one))
    assert not _braids(rhat(-one))


def test_two_parameter_hecke_matrices_braid():
    z, pq = zero_rf, P * Q
    even = [[one, z, z, z], [z, z, P, z], [z, Q, one - pq, z], [z, z, z, one]]
    odd = [[-one, z, z, z], [z, z, P, z], [z, Q, pq - one, z], [z, z, z, pq]]

    def shifted(r, c):
        return [[x + (c if i == j else z) for j, x in enumerate(row)] for i, row in enumerate(r)]

    # (R - 1)(R + pq) = 0 and (R' + 1)(R' - pq) = 0
    zero4 = [[z] * 4 for _ in range(4)]
    assert _times(shifted(even, -one), shifted(even, pq)) == zero4
    assert _times(shifted(odd, one), shifted(odd, -pq)) == zero4
    assert _braids(even) and _braids(odd)


def _one_sided_equations(kind, pres, graded):
    """The linear equations on the 16 entries of a 4x4 matrix X for
    X*A1*A2 + A2*A1*X to reduce to zero in pres, with the legs that
    `rtt_residual` builds: one row, (r, c) -> coefficient of X[r][c], per
    residual entry and normal word."""
    sign = _slot2_sign if graded else (lambda i, j, l: 1)
    a = generic_matrix(kind, pres)
    a12, a21 = {}, {}
    for i, j, k, l in itertools.product(range(2), repeat=4):
        row, col = 2 * i + j, 2 * k + l
        a12[row, col] = (a[i, k] * a[j, l]).scale(RatFunc.const(sign(k, j, l)))
        a21[row, col] = (a[j, l] * a[i, k]).scale(RatFunc.const(sign(i, j, l)))
    equations = {}
    # X = E_rc, the matrix unit: (E_rc A1A2)[row, col] = [row = r] A1A2[c, col]
    # and (A2A1 E_rc)[row, col] = A2A1[row, r] [col = c]
    for r, c, row, col in itertools.product(range(4), repeat=4):
        entry = (a12[c, col] if row == r else Poly.zero()) + (
            a21[row, r] if col == c else Poly.zero())
        for word, v in normal_form(entry, pres).terms.items():
            equations.setdefault((row, col, word), {})[r, c] = v
    return list(equations.values())


@pytest.mark.parametrize("name,kind,graded,x", [("gr2", "all_odd", False, one),
                                                ("gr11", "diag_odd", True, -one)])
def test_rhat_is_the_one_sided_solution_up_to_scale(name, kind, graded, x):
    # the X with X*A1*A2 + A2*A1*X = 0 over the quotient form a space of
    # dimension 16 - rank = 1 over Q(p, q), and rhat(x) lies in it
    equations = _one_sided_equations(kind, preset(name), graded)
    assert len(_echelon(equations)) == 15
    r = rhat(x)
    for eq in equations:
        assert sum((v * r[i][j] for (i, j), v in eq.items()), zero_rf) == zero_rf


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


def _rtt_residual_by_products(x, a, graded):
    """R*A1*A2 + A2*A1*R from the explicit 4x4 embeddings and four
    matrix products: the reference for `rtt_residual`."""
    embed = tensor_graded if graded else tensor_ungraded
    a1, a2 = embed(a, 1), embed(a, 2)
    r = AlgMatrix(4, 4, [Poly.unit(c) if c else Poly.zero() for row in rhat(x) for c in row],
                  a.presentation, reduce=False)
    return mat_mul(mat_mul(r, a1), a2) + mat_mul(mat_mul(a2, a1), r)


def _assert_same_residual(x, a, graded):
    got = rtt_residual(x, a, graded)
    want = _rtt_residual_by_products(x, a, graded)
    pres = a.presentation
    for g_entry, w_entry in zip(got.entries, want.entries, strict=True):
        assert g_entry == w_entry
        assert format_poly(g_entry, pres) == format_poly(w_entry, pres)


RTT_POINTS = (one, -one, P * Q**-1)


@pytest.mark.parametrize("name", ["gr2", "gr11"])
@pytest.mark.parametrize("free", [False, True], ids=["preset", "free"])
@pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
def test_rtt_residual_equals_the_matrix_products(name, free, graded):
    pres = preset(name)
    if free:
        pres = free_algebra_on(pres)
    a = generic_matrix(FAMILIES[name].kind, pres)
    for x in RTT_POINTS:
        _assert_same_residual(x, a, graded)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_rtt_residual_equals_the_matrix_products_on_mutated_presets(mutation):
    # the mutated presets are not confluent; both sides still reduce the
    # same words, so they agree entry by entry
    pres = mutate_preset(mutation)
    a = generic_matrix(FAMILIES[mutation.preset_name].kind, pres)
    for graded in (False, True):
        for x in RTT_POINTS:
            _assert_same_residual(x, a, graded)


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


def random_rows(rng):
    """Up to six sparse Fraction rows over five words, some of them
    combinations of earlier rows."""
    cols = [("alpha", x) for x in ("b", "c", "delta")] + [("b", "c"), ("c", "b")]
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
    return rows


def test_sparse_rank_matches_dense_elimination(rng):
    for _ in range(300):
        dense = random_rows(rng)
        rows = [{c: RatFunc.const(v) for c, v in row.items()} for row in dense]
        assert len(_echelon(rows)) == dense_rank(dense)
        # rows appended to the echelon of a prefix: the rank of the union
        cut = rng.randint(0, len(rows))
        prefix = _echelon(rows[:cut])
        assert len(_echelon(rows[cut:], prefix)) == dense_rank(dense)
        assert len(prefix) == dense_rank(dense[:cut])  # the basis is copied, not grown


def test_integer_rank_matches_dense_elimination(rng):
    point = (Fraction(3), Fraction(5, 2))
    for _ in range(300):
        dense = random_rows(rng)
        at = _integer_rows([{c: RatFunc.const(v) for c, v in row.items()} for row in dense],
                           point)
        assert len(_integer_echelon(at)) == dense_rank(dense)
        cut = rng.randint(0, len(at))
        prefix = _integer_echelon(at[:cut])
        assert len(_integer_echelon(at[cut:], prefix)) == dense_rank(dense)
        assert len(prefix) == dense_rank(dense[:cut])  # the basis is copied, not grown


def test_integer_rows_are_primitive_and_proportional_to_the_values(rng):
    cols = [("alpha", x) for x in ("b", "c", "delta")] + [("b", "c"), ("c", "b")]
    # p - 2 and q - 3 vanish at some of the points, so entries drop out
    coeffs = [P, Q**-1, P - two, Q - RatFunc.const(3), (P + Q).inv(),
              (P * P + Q).inv() * (P - Q), RatFunc.const(Fraction(3, 4)) * P * Q**-2]
    for _ in range(300):
        point = (Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                 Fraction(rng.randint(1, 6), rng.randint(1, 2)))
        row = {c: rng.choice(coeffs) * RatFunc.const(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
               for c in rng.sample(cols, rng.randint(1, 4))}
        [ints] = _integer_rows([row], point)
        values = {c: v for c, f in row.items() if (v := f.evaluate(*point))}
        assert ints.keys() == values.keys()
        if ints:
            assert all(type(v) is int for v in ints.values())
            assert gcd(*ints.values()) == 1
            assert len({v / values[c] for c, v in ints.items()}) == 1


@pytest.mark.parametrize("coeff", [P - Q, (P - Q).inv()], ids=["p-q", "1/(p-q)"])
def test_span_equal_never_samples_the_one_parameter_point(coeff):
    # seed 1 drew p0 = q0 = 2, where p - q vanishes
    xy = w("alpha", "beta")
    assert span_equal([xy.scale(coeff)], [xy], seed=1).passed


def test_span_equal_draws_past_a_point_where_a_denominator_vanishes():
    assert any(p0 == 2 * q0 for p0, q0 in itertools.islice(_admissible_points(random.Random(27)), 5))
    xy = w("alpha", "beta")
    assert span_equal([xy.scale((P - two * Q).inv())], [xy], seed=27).passed


XY = w("alpha", "beta")
# At seed 27 the third draw has p0 = 2 q0, where (p - 2q)^-1 has no value,
# and the sixth has 21 p0 = 95 q0, where 21p - 95q vanishes: the sixth draw
# is the fifth point checked only if the third is passed over.
SINGULAR = XY.scale((P - two * Q).inv())
VANISHING = XY.scale((RatFunc.const(21) * P - RatFunc.const(95) * Q) * (P - two * Q).inv())
SPAN_SEEDS = (DEFAULT_SEED, 1, 27)


def plane_derived(name):
    """The relations of FAMILIES[name] derived from its planes both ways."""
    fam = FAMILIES[name]
    one, other = (preset(plane) for plane in fam.planes)
    return derive_relations(one, other, fam.kind) + derive_relations(other, one, fam.kind)


def test_a_reused_span_reports_as_a_fresh_one():
    draws = list(itertools.islice(_admissible_points(random.Random(27)), 6))
    assert [p0 == 2 * q0 for p0, q0 in draws] == [False, False, True, False, False, False]
    assert 21 * draws[5][0] == 95 * draws[5][1]
    refs = {f"{name}:rtt": rtt_entries(name) for name in FAMILIES}
    refs |= {f"{name}:derive": plane_derived(name) for name in FAMILIES}
    singular = {"xy": [XY], "singular": [SINGULAR], "vanishing": [VANISHING]}
    seconds = {name: preset(name).relation_polys()
               for name in PRESET_NAMES if name != "gr11_localized"}
    seconds |= {m.name: mutate_preset(m).relation_polys() for m in MUTATIONS}
    statuses = {}
    for ref, polys in (refs | singular).items():
        span = Span(polys)  # one span per reference, the seeds interleaved on it
        for name, second in (seconds | singular).items():
            for seed in SPAN_SEEDS:
                got = span_equal(span, second, seed=seed, label=name)
                assert got.signature() == span_equal(
                    list(polys), list(second), seed=seed, label=name).signature()
                statuses[ref, name, seed] = tuple(c.status for c in got.checks)
    passed = ("pass",) * 3
    for seed in SPAN_SEEDS:
        for name in FAMILIES:
            assert statuses[f"{name}:rtt", name, seed] == passed
            assert statuses[f"{name}:derive", name, seed] == passed
        for m in MUTATIONS:
            assert "fail" in statuses[f"{m.preset_name}:rtt", m.name, seed]
        # a point where either set is singular is passed over, not counted
        assert statuses["singular", "xy", seed] == statuses["xy", "singular", seed] == passed
        crosscheck = "fail" if seed == 27 else "pass"
        assert statuses["xy", "vanishing", seed] == ("pass", "pass", crosscheck)
        assert statuses["vanishing", "xy", seed] == ("pass", "pass", crosscheck)


def test_threads_sharing_a_span_agree_with_fresh_results(gr11):
    polys, relations = rtt_entries("gr11"), gr11.relation_polys()
    # four threads at a time on one seed, so they race to fill the same points
    seeds = [seed for seed in (DEFAULT_SEED, 1, 27, 2, 3, 4) for _ in range(4)]
    want = [span_equal(list(polys), relations, seed=seed).signature() for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-fill
    try:
        for _ in range(8):
            shared = Span(polys)
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(
                    lambda seed: span_equal(shared, relations, seed=seed).signature(),
                    seeds, timeout=60))
            assert got == want
    finally:
        sys.setswitchinterval(interval)


def test_a_span_holds_at_most_max_points_entries(gr2):
    relations = gr2.relation_polys()
    span = Span(relations)
    for seed in range(30):  # about 150 points
        assert span_equal(span, relations, seed=seed).passed
        assert len(span._points) <= MAX_POINTS
    assert len(span._points) > 5  # it was emptied, not bypassed


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


def test_quadratic_pairing_signs_by_the_first_letter():
    # <x y, X Y> = (-1)^|x|: with x even and y odd, x*y + y*x pairs to zero
    # with X*Y + Y*X, and with X*Y - Y*X to 2
    letters, parities = {"x": "X", "y": "Y"}, {"x": EVEN, "y": ODD}
    rel = w("x", "y") + w("y", "x")
    assert quadratic_pairing([rel], [w("X", "Y") + w("Y", "X")], letters, parities) == (
        "0 nonzero pairings, ranks 1 + 1")
    assert quadratic_pairing([rel], [w("X", "Y") - w("Y", "X")], letters, parities) == (
        "1 nonzero pairings, ranks 1 + 1")
    # a word off the letter map pairs to zero, and the ranks are exact
    assert quadratic_pairing([rel, rel.scale(P)], [w("Y", "Y"), w("X", "X")],
                             letters, parities) == "0 nonzero pairings, ranks 1 + 2"
    # the annihilator of x*y + y*x is spanned by the other three words,
    # so the ranks fill the four words
    dual = [w("X", "X"), w("Y", "Y"), w("X", "Y") + w("Y", "X")]
    assert quadratic_pairing([rel], dual, letters, parities) is None

"""Acceptance gate: every criterion is exact (identities must reduce to
literal zero in the quotient algebra) and carries a wall-clock budget.
One pass/fail line is printed per criterion."""

import time

import pytest

from grasspq.coeff import ONE, P, Q, RatFunc
from grasspq.freealg import (
    Poly,
    build_family,
    derive_relations,
    free_algebra_on,
    irreducible_words,
    normal_form,
    overlap_check,
    preset,
    PRESET_NAMES,
    specialize,
    specialize_presentation,
)
from grasspq.matops import (
    AlgMatrix,
    closed_power,
    delta_left,
    delta_right,
    generic_gr2,
    generic_gr11,
    generic_gr11_localized,
    identity_matrix,
    inverse11,
    left_inverse,
    mat_mul,
    matrix_power,
    power_relations_check,
    right_inverse,
    rtt_residual,
    sdet,
    span_equal,
    tensor_graded,
)
from grasspq.verify import FAMILIES, MUTATIONS, mutation_witness
from test_freealg import cold_copy

w = Poly.word
g = Poly.gen
one = RatFunc.one()


@pytest.fixture(scope="module", autouse=True)
def warm_presets():
    # presentation construction (orientation, inter-reduction, completion)
    # is engine setup, shared by every criterion; build once up front
    for name in PRESET_NAMES:
        preset(name)


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.number:2d} [{status}] {self.name} "
              f"({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_01_confluence_and_dimension():
    with _Budget(1, "confluence of all presets; 16-dimensional base algebra", 1.0):
        # a preset reports its builder's proof; its cold copy resolves anew
        for name in PRESET_NAMES:
            assert overlap_check(preset(name)).passed, name
            assert overlap_check(cold_copy(preset(name))).passed, name
        assert len(irreducible_words(preset("gr2"), 5)) == 16


def test_criterion_02_endomorphism_derivation():
    with _Budget(2, "plane endomorphisms regenerate the relation spans", 1.0):
        d = (derive_relations(preset("plane_p20"), preset("plane_q02"), "all_odd")
             + derive_relations(preset("plane_q02"), preset("plane_p20"), "all_odd"))
        assert span_equal(d, preset("gr2").relation_polys(), label="gr2").passed
        d = (derive_relations(preset("plane_p11"), preset("plane_q11_dual"), "diag_odd")
             + derive_relations(preset("plane_q11_dual"), preset("plane_p11"), "diag_odd"))
        assert span_equal(d, preset("gr11").relation_polys(), label="gr11").passed


def test_criterion_03_inverse_identities():
    with _Budget(3, "left/right dual inverses and their compatibility", 1.0):
        pres = preset("gr2")
        a = generic_gr2(pres)
        dl, dr = delta_left(a), delta_right(a)
        zero = Poly.zero()
        dli = AlgMatrix(2, 2, [dl, zero, zero, dl], pres)
        dri = AlgMatrix(2, 2, [dr, zero, zero, dr], pres)
        residuals = (
            (mat_mul(left_inverse(a), a) - dli).entries
            + (mat_mul(a, right_inverse(a)) - dri).entries
            + (AlgMatrix(2, 2, [dl * e for e in right_inverse(a).entries], pres)
               - AlgMatrix(2, 2, [e * dr for e in left_inverse(a).entries], pres)).entries
        )
        assert len(residuals) == 12
        assert all(r.is_zero for r in residuals)


def test_criterion_04_rtt_soundness_and_completeness():
    with _Budget(4, "RTT residuals vanish and span the relations", 2.0):
        gr2, gr11 = preset("gr2"), preset("gr11")
        assert rtt_residual(one, generic_gr2(gr2), graded=False).is_zero
        assert rtt_residual(-one, generic_gr11(gr11), graded=True).is_zero
        free = free_algebra_on(gr2)
        entries = [e for e in rtt_residual(one, generic_gr2(free), graded=False).entries
                   if not e.is_zero]
        assert span_equal(entries, gr2.relation_polys(), label="gr2").passed
        free = free_algebra_on(gr11)
        entries = [e for e in rtt_residual(-one, generic_gr11(free), graded=True).entries
                   if not e.is_zero]
        assert span_equal(entries, gr11.relation_polys(), label="gr11").passed


def test_criterion_05_graded_tensor_ground_truth():
    with _Budget(5, "graded embeddings match the explicit signed matrices", 1.0):
        pres = preset("gr11")
        m = generic_gr11(pres)
        z = Poly.zero()
        slot1 = AlgMatrix(4, 4, [
            g("alpha"), z, g("b"), z,
            z, g("alpha"), z, g("b"),
            g("c"), z, g("delta"), z,
            z, g("c"), z, g("delta")], pres)
        slot2 = AlgMatrix(4, 4, [
            -g("alpha"), -g("b"), z, z,
            -g("c"), -g("delta"), z, z,
            z, z, -g("alpha"), g("b"),
            z, z, g("c"), -g("delta")], pres)
        assert tensor_graded(m, 1) == slot1
        assert tensor_graded(m, 2) == slot2


def test_criterion_06_supermatrix_inverse():
    with _Budget(6, "two-sided inverse with inverted-parameter entries", 2.0):
        loc = preset("gr11_localized")
        m = generic_gr11_localized(loc)
        inv = inverse11(m)
        i2 = identity_matrix(loc, 2)
        assert mat_mul(m, inv) == i2
        assert mat_mul(inv, m) == i2
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
        assert len(residuals) == 8
        assert all(normal_form(r, loc).is_zero for r in residuals)


def test_criterion_07_superdeterminant():
    with _Budget(7, "superdeterminant forms, twists, and p=q centrality", 2.0):
        loc = preset("gr11_localized")
        m = generic_gr11_localized(loc)
        d = sdet(m, "left")
        assert (d - sdet(m, "right")).is_zero
        reduction = normal_form(
            w("b", "cinv") - w("cinv", "b", coeff=Q * P**-1)
            + w("cinv", "delta", "alpha", "cinv", coeff=Q - P**-1), loc)
        assert reduction.is_zero
        twist = P * Q**-1
        for name in ("alpha", "delta", "b", "c"):
            gen = g(name)
            assert normal_form(d * gen - (gen * d).scale(twist), loc).is_zero
            comm = normal_form(d * gen - gen * d, loc)
            assert specialize(comm, {"q": P}).is_zero


def test_criterion_08_powers():
    with _Budget(8, "closed powers equal iterated products; relation families hold", 10.0):
        pres = preset("gr11")
        m = generic_gr11(pres)
        acc = None
        for e in range(1, 7):
            acc = m if acc is None else mat_mul(acc, m)
            cp = closed_power(e)
            assert (cp[0, 0] - acc[0, 0]).is_zero, e
            assert (cp[0, 1] - acc[0, 1]).is_zero, e
            assert (cp[1, 0] - acc[1, 0]).is_zero, e
            assert (cp[1, 1] - acc[1, 1]).is_zero, e
            assert power_relations_check(e).passed, e


def test_criterion_09_degeneration():
    with _Budget(9, "q := p specialization equals the one-parameter families", 1.0):
        for name, row in FAMILIES.items():
            spec = specialize_presentation(preset(name), {"q": P})
            direct = build_family(row.kind, P, P, name)
            assert len(spec.rules) == len(direct.rules)
            for r1, r2 in zip(spec.rules, direct.rules):
                assert r1.lhs == r2.lhs
                assert (r1.rhs - r2.rhs).is_zero


def test_criterion_10_fault_sensitivity():
    with _Budget(10, "all ten catalogued coefficient faults are detected", 5.0):
        assert len(MUTATIONS) == 10
        for mutation in MUTATIONS:
            witness = mutation_witness(mutation)
            assert witness, mutation.name  # nonzero residual text

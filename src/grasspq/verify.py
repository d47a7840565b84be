"""Named verification suites bundling every identity the engine is
expected to reproduce, plus a catalogue of deliberate single-coefficient
faults that the suites must catch."""

from __future__ import annotations

from collections.abc import Callable

from .coeff import ONE, P, Q, RatFunc, qnum
from .freealg import (
    Poly,
    Presentation,
    RewriteRule,
    derive_relations,
    family,
    format_poly,
    free_algebra_on,
    irreducible_words,
    normal_form,
    overlap_check,
    preset,
    residual_check,
    specialize,
    specialize_presentation,
    build_gr2,
    build_gr11,
)
from .matops import (
    AlgMatrix,
    closed_power,
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
    power_relations_check,
    right_inverse,
    rtt_residual,
    sdet,
    span_equal,
    tensor_graded,
)
from .reporting import Check, Report, truncate_poly_text

DEFAULT_SEED = 20240915


def _matrix_residual_check(name: str, residual: AlgMatrix, ref: str) -> Check:
    ok = residual.is_zero
    text = None if ok else truncate_poly_text(repr(residual))
    return Check(name=name, status="pass" if ok else "fail",
                 residual=text, paper_ref=ref)


def _flatten(report: Report, sub: Report, prefix: str) -> None:
    ok = sub.passed
    witness = None
    if not ok:
        first = sub.failures()[0]
        witness = f"{first.name}: {first.residual or 'failed'}"
    report.add(Check(name=prefix, status="pass" if ok else "fail",
                     residual=witness, paper_ref=sub.suite))


def _degeneration_check(pres: Presentation, build) -> Check:
    """Specializing q := p in pres gives the rules `build` makes at (p, p)."""
    spec = specialize_presentation(pres, {"q": P})
    direct = build(P, P)
    same = len(spec.rules) == len(direct.rules) and all(
        r1.lhs == r2.lhs and (r1.rhs - r2.rhs).is_zero
        for r1, r2 in zip(spec.rules, direct.rules))
    return Check(name="degeneration_q_eq_p",
                 status="pass" if same else "fail",
                 paper_ref="q := p collapses to the one-parameter deformation")


def _family_checks(report: Report, pres: Presentation, kind: str, x: RatFunc,
                   planes: tuple[str, str], build) -> None:
    """The checks both matrix families share: the RTT residual entries of
    the generic matrix over the free algebra span the relations, so do the
    relations derived from the plane endomorphisms both ways, and q := p
    gives the one-parameter family.  The all-odd matrix is embedded
    ungraded, the dual supermatrix graded."""
    free = free_algebra_on(pres)
    residual = rtt_residual(x, generic_matrix(kind, free), graded=kind != "all_odd")
    entries = [e for e in residual.entries if not e.is_zero]
    _flatten(report, span_equal(entries, pres.relation_polys(), seed=report.seed,
                                label=f"{report.suite}-rtt"), "rtt_completeness")
    one, other = (preset(name) for name in planes)
    derived = derive_relations(one, other, kind) + derive_relations(other, one, kind)
    _flatten(report, span_equal(derived, pres.relation_polys(), seed=report.seed,
                                label=f"{report.suite}-derive"), "derivation_equivalence")
    report.add(_degeneration_check(pres, build))


def suite_gr2(seed: int = DEFAULT_SEED, *, presentation: Presentation | None = None) -> Report:
    """Confluence, dimension count, inverse identities, RTT soundness and
    completeness, endomorphism derivation, parameter degeneration."""
    pres = presentation or preset("gr2")
    report = Report(suite="gr2", seed=seed)

    _flatten(report, overlap_check(pres), "confluence")

    words = irreducible_words(pres, 5)
    report.add(Check(
        name="dimension_16",
        status="pass" if len(words) == 16 else "fail",
        residual=None if len(words) == 16 else f"found {len(words)} irreducible words",
        paper_ref="nilpotency and the 10 quadratic relations force dimension 16"))

    a = generic_gr2(pres)
    dl = delta_left(a)
    dr = delta_right(a)
    dli = AlgMatrix(2, 2, [dl, Poly.zero(), Poly.zero(), dl], pres)
    dri = AlgMatrix(2, 2, [dr, Poly.zero(), Poly.zero(), dr], pres)
    report.add(_matrix_residual_check(
        "inverse_left", mat_mul(left_inverse(a), a) - dli,
        "A_L^-1 * A = Delta_L * I"))
    report.add(_matrix_residual_check(
        "inverse_right", mat_mul(a, right_inverse(a)) - dri,
        "A * A_R^-1 = Delta_R * I"))
    compat_l = AlgMatrix(2, 2, [dl * e for e in right_inverse(a).entries], pres)
    compat_r = AlgMatrix(2, 2, [e * dr for e in left_inverse(a).entries], pres)
    report.add(_matrix_residual_check(
        "inverse_compatibility", compat_l - compat_r,
        "Delta_L * A_R^-1 = A_L^-1 * Delta_R"))

    report.add(_matrix_residual_check(
        "rtt_soundness", rtt_residual(ONE, a, graded=False),
        "R(1) A1 A2 + A2 A1 R(1) = 0 over the quotient"))

    _family_checks(report, pres, "all_odd", ONE, ("plane_p20", "plane_q02"), build_gr2)
    return report.finish()


def suite_gr11(seed: int = DEFAULT_SEED, *,
               presentation: Presentation | None = None) -> Report:
    """Confluence of the supergroup presentations, graded tensor ground
    truth, graded RTT, supermatrix inverse, superdeterminant."""
    pres = presentation or preset("gr11")
    loc = preset("gr11_localized")
    report = Report(suite="gr11", seed=seed)

    _flatten(report, overlap_check(pres), "confluence")
    _flatten(report, overlap_check(loc), "confluence_localized")
    _flatten(report, overlap_check(preset("gr11_inverse")), "confluence_inverse_family")

    m = generic_gr11(pres)
    g = Poly.gen
    z = Poly.zero()
    slot1_expected = AlgMatrix(4, 4, [
        g("alpha"), z, g("b"), z,
        z, g("alpha"), z, g("b"),
        g("c"), z, g("delta"), z,
        z, g("c"), z, g("delta")], pres)
    slot2_expected = AlgMatrix(4, 4, [
        -g("alpha"), -g("b"), z, z,
        -g("c"), -g("delta"), z, z,
        z, z, -g("alpha"), g("b"),
        z, z, g("c"), -g("delta")], pres)
    report.add(_matrix_residual_check(
        "graded_tensor_slot1", tensor_graded(m, 1) - slot1_expected,
        "first graded embedding carries no surviving signs"))
    report.add(_matrix_residual_check(
        "graded_tensor_slot2", tensor_graded(m, 2) - slot2_expected,
        "second graded embedding matches the explicit signed layout"))

    report.add(_matrix_residual_check(
        "rtt_soundness_graded", rtt_residual(-ONE, m, graded=True),
        "R(-1) M1 M2 + M2 M1 R(-1) = 0 with graded embeddings"))

    _family_checks(report, pres, "diag_odd", -ONE, ("plane_p11", "plane_q11_dual"),
                   build_gr11)

    ml = generic_gr11_localized(loc)
    minv = inverse11(ml)
    i2 = identity_matrix(loc, 2)
    report.add(_matrix_residual_check(
        "inverse_right_sided", mat_mul(ml, minv) - i2, "M * M^-1 = I"))
    report.add(_matrix_residual_check(
        "inverse_left_sided", mat_mul(minv, ml) - i2, "M^-1 * M = I"))

    bad = [label for label, expr in family("diag_odd", minv.entries, P**-1, Q**-1)
           if not normal_form(expr, loc).is_zero]
    report.add(Check(
        name="inverse_entry_relations",
        status="pass" if not bad else "fail",
        residual=", ".join(bad) or None,
        paper_ref="inverse entries obey the relations at (p^-1, q^-1)"))

    dl = sdet(ml, "left")
    drr = sdet(ml, "right")
    report.add(residual_check("sdet_forms_agree", dl - drr, loc,
                              "both superdeterminant forms coincide"))
    w = Poly.word
    red39 = normal_form(
        w("b", "cinv") - w("cinv", "b", coeff=Q * P**-1)
        + w("cinv", "delta", "alpha", "cinv", coeff=Q - P**-1), loc)
    report.add(residual_check("localization_reduction", red39, loc,
                              "b c^-1 = qp^-1 c^-1 b - (q - p^-1) c^-1 d a c^-1"))
    twist = P * Q**-1
    for gen_name in ("alpha", "delta", "b", "c"):
        gen = Poly.gen(gen_name)
        resid = normal_form(dl * gen - (gen * dl).scale(twist), loc)
        report.add(residual_check(f"sdet_twist_{gen_name}", resid, loc,
                                  "sdet g = pq^-1 g sdet"))
    central = []
    for gen_name in ("alpha", "delta", "b", "c"):
        gen = Poly.gen(gen_name)
        comm = normal_form(dl * gen - gen * dl, loc)
        central.append(specialize(comm, {"q": P}).is_zero)
    report.add(Check(name="sdet_central_at_p_eq_q",
                     status="pass" if all(central) else "fail",
                     paper_ref="the superdeterminant becomes central at p = q"))

    return report.finish()


def suite_powers(max_n: int = 3, seed: int = DEFAULT_SEED) -> Report:
    """Closed power formulas against iterated multiplication, the relation
    families at the effective parameters, and the deformed-integer
    identities feeding them."""
    if max_n < 1:
        raise ValueError("max_n must be positive")
    pres = preset("gr11")
    report = Report(suite="powers", seed=seed)
    m = generic_gr11(pres)
    acc = None
    for e in range(1, 2 * max_n + 1):
        acc = m if acc is None else mat_mul(acc, m)
        closed = closed_power(e)
        report.add(_matrix_residual_check(
            f"closed_vs_iterated_e{e}", closed - acc,
            "closed-form entries equal the iterated product"))
        _flatten(report, power_relations_check(e, closed), f"relations_e{e}")
    ok = True
    t_candidates = (P * Q, (P * Q) ** 2, (P * Q) ** -1)
    for t in t_candidates:
        for n in range(0, 17):
            if not (qnum(n, t) * (ONE - t) == ONE - t**n):
                ok = False
    report.add(Check(name="qnum_telescopes",
                     status="pass" if ok else "fail",
                     paper_ref="<n>_t (1 - t) = 1 - t^n"))
    report.add(Check(
        name="exponent1_literal_collapse",
        status="pass" if _literal_first_power_collapses() else "fail",
        paper_ref="at exponent 1 the closed form's (bc)^-1 factor cancels in the localization"))
    return report.finish()


def _literal_first_power_collapses() -> bool:
    """The closed odd-power formula at n=1 reads B = bc (bc)^-1 b; in the
    localized algebra that collapses to b (and the C analogue to c)."""
    loc = preset("gr11_localized")
    w = Poly.word
    b_literal = normal_form(w("b", "c", "cinv", "binv", "b"), loc)
    c_literal = normal_form(w("c", "b", "binv", "cinv", "c"), loc)
    return (b_literal - Poly.gen("b")).is_zero and (c_literal - Poly.gen("c")).is_zero


def suite_all(max_n: int = 3, seed: int = DEFAULT_SEED) -> Report:
    report = Report(suite="all", seed=seed)
    for sub in (suite_gr2(seed), suite_gr11(seed), suite_powers(max_n, seed)):
        for check in sub.checks:
            report.add(Check(name=f"{sub.suite}:{check.name}", status=check.status,
                             residual=check.residual, paper_ref=check.paper_ref))
    return report.finish()


SUITES: dict[str, Callable[..., Report]] = {
    "gr2": lambda max_n, seed: suite_gr2(seed),
    "gr11": lambda max_n, seed: suite_gr11(seed),
    "powers": lambda max_n, seed: suite_powers(max_n, seed),
    "all": lambda max_n, seed: suite_all(max_n, seed),
    "faults": lambda max_n, seed: fault_injection_report(seed),
}


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


class Mutation:
    """A single-coefficient fault injected into a preset rule."""

    __slots__ = ("name", "preset_name", "rule_lhs", "rhs_word", "factor")

    def __init__(self, name: str, preset_name: str, rule_lhs: tuple[str, ...],
                 rhs_word: tuple[str, ...], factor: RatFunc):
        self.name = name
        self.preset_name = preset_name
        self.rule_lhs = rule_lhs
        self.rhs_word = rhs_word
        self.factor = factor  # multiply that coefficient by this


MUTATIONS = (
    Mutation("gr2_flip_beta_alpha", "gr2", ("beta", "alpha"), ("alpha", "beta"), -ONE),
    Mutation("gr2_scale_gamma_alpha", "gr2", ("gamma", "alpha"), ("alpha", "gamma"), Q**-2),
    Mutation("gr2_scale_gamma_delta", "gr2", ("gamma", "delta"), ("delta", "gamma"), P**2),
    Mutation("gr2_flip_delta_alpha", "gr2", ("delta", "alpha"), ("alpha", "delta"), -ONE),
    Mutation("gr2_drop_sign_source_term", "gr2", ("gamma", "beta"), ("alpha", "delta"), -ONE),
    Mutation("gr11_scale_b_alpha", "gr11", ("b", "alpha"), ("alpha", "b"), P**-2),
    Mutation("gr11_swap_cb_coeff", "gr11", ("c", "b"), ("b", "c"), P**2 * Q**-2),
    Mutation("gr11_warp_source_term", "gr11", ("c", "b"), ("alpha", "delta"), -ONE),
    Mutation("gr11_scale_c_delta", "gr11", ("c", "delta"), ("delta", "c"), Q**2),
    Mutation("gr11_flip_delta_alpha", "gr11", ("delta", "alpha"), ("alpha", "delta"), -ONE),
)


def mutate_preset(mutation: Mutation) -> Presentation:
    pres = preset(mutation.preset_name)
    rules = []
    found = False
    for rule in pres.rules:
        if rule.lhs == mutation.rule_lhs:
            terms = dict(rule.rhs.terms)
            if mutation.rhs_word not in terms:
                raise KeyError(f"{mutation.name}: word {mutation.rhs_word} "
                               f"absent from rule {rule.lhs}")
            terms[mutation.rhs_word] = terms[mutation.rhs_word] * mutation.factor
            rules.append(RewriteRule(rule.lhs, Poly(terms)))
            found = True
        else:
            rules.append(rule)
    if not found:
        raise KeyError(f"{mutation.name}: no rule with lhs {mutation.rule_lhs}")
    return pres.with_rules(rules)


def mutation_witness(mutation: Mutation) -> str | None:
    """Run the cheap identity checks most sensitive to the touched rule;
    returns a nonzero-residual witness when the fault is caught, else
    None."""
    mutated = mutate_preset(mutation)

    def first_nonzero(matrix: AlgMatrix) -> str | None:
        for entry in matrix.entries:
            if not entry.is_zero:
                return truncate_poly_text(format_poly(entry, mutated))
        return None

    if mutation.preset_name == "gr2":
        a = generic_gr2(mutated)
        witness = first_nonzero(rtt_residual(ONE, a, graded=False))
        if witness:
            return witness
        dl = delta_left(a)
        dli = AlgMatrix(2, 2, [dl, Poly.zero(), Poly.zero(), dl], mutated)
        return first_nonzero(mat_mul(left_inverse(a), a) - dli)
    m = generic_gr11(mutated)
    return first_nonzero(rtt_residual(-ONE, m, graded=True))


def fault_injection_report(seed: int = DEFAULT_SEED) -> Report:
    """Each catalogued mutation must make at least one identity fail,
    leaving a nonzero residual as the witness."""
    report = Report(suite="fault_injection", seed=seed)
    for mutation in MUTATIONS:
        witness = mutation_witness(mutation)
        report.add(Check(
            name=f"caught:{mutation.name}",
            status="pass" if witness else "fail",
            residual=witness or "mutated preset slipped through every check",
            paper_ref="single-coefficient faults must be detected"))
    return report.finish()

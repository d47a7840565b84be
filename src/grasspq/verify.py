"""Named verification suites bundling every identity the engine is
expected to reproduce, plus a catalogue of deliberate single-coefficient
faults that the suites must catch."""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

from .coeff import ONE, P, Q, RatFunc, qnum
from .freealg import (
    ENTRY_LAYOUTS,
    Poly,
    Presentation,
    RewriteRule,
    build_family,
    derive_relations,
    family,
    format_poly,
    generic_family,
    irreducible_words,
    normal_form,
    overlap_check,
    preset,
    residual_check,
    specialize,
    specialize_presentation,
)
from .matops import (
    AlgMatrix,
    Span,
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
    quadratic_pairing,
    right_inverse,
    rtt_residual,
    sdet,
    span_equal,
    tensor_graded,
)
from .reporting import Check, Report, truncate_poly_text, verdict

DEFAULT_SEED = 20240915


def _matrix_residual_check(name: str, residual: AlgMatrix, ref: str) -> Check:
    ok = residual.is_zero
    return verdict(name, ok, ref, None if ok else truncate_poly_text(repr(residual)))


class Family(NamedTuple):
    """The row of the relation family a two-parameter preset presents: its
    kind and its even partner's (ENTRY_LAYOUTS keys), its R-matrix
    parameter, whether the RTT legs are graded, the planes it is derived
    from, and the RTT soundness check's name and paper_ref."""
    kind: str
    dual: str
    x: RatFunc
    graded: bool
    planes: tuple[str, str]
    soundness: str
    soundness_ref: str


FAMILIES = {
    "gr2": Family("all_odd", "all_even", ONE, False, ("plane_p20", "plane_q02"),
                  "rtt_soundness", "R(1) A1 A2 + A2 A1 R(1) = 0 over the quotient"),
    "gr11": Family("diag_odd", "diag_even", -ONE, True, ("plane_p11", "plane_q11_dual"),
                   "rtt_soundness_graded",
                   "R(-1) M1 M2 + M2 M1 R(-1) = 0 with graded embeddings"),
}


@lru_cache(maxsize=None)
def rtt_entries(name: str) -> tuple[Poly, ...]:
    """The 16 RTT residual entries of FAMILIES[name]'s generic matrix over
    the free algebra, unreduced; built once per process."""
    fam = FAMILIES[name]
    free = Presentation(f"free({fam.kind})", ENTRY_LAYOUTS[fam.kind], ())
    return rtt_residual(fam.x, generic_matrix(fam.kind, free), fam.graded).entries


class References(NamedTuple):
    """What the family checks of preset `name` compare against: the
    relations derived from its planes both ways, the spans of the RTT
    entries, of those relations and of the preset's own relations, and
    the one-parameter presentation at (p, p)."""
    derived: tuple[Poly, ...]
    rtt_span: Span
    derived_span: Span
    relations: Span
    degenerate: Presentation


@lru_cache(maxsize=None)
def references(name: str) -> References:
    """FAMILIES[name]'s references, built once per process; each span
    fills its integer echelons once per sample point."""
    fam = FAMILIES[name]
    one, other = (preset(plane) for plane in fam.planes)
    derived = tuple(derive_relations(one, other, fam.kind) + derive_relations(other, one, fam.kind))
    return References(derived, Span(rtt_entries(name)), Span(derived),
                      Span(preset(name).relation_polys()), build_family(fam.kind, P, P, name))


def _family_checks(report: Report, pres: Presentation, name: str) -> None:
    """The checks both matrix families share, against the references of
    preset `name`.  RTT soundness reduces the free-algebra residual
    entries in pres, which is `rtt_residual` over pres because the normal
    form is linear; the entries span the relations, so do the relations
    derived from the plane maps both ways, and q := p in pres gives the
    rules of the family at (p, p).  The preset reads its cached relation
    span, so a warm pass row-reduces only the unions with the references;
    any other presentation spans its relations afresh."""
    fam = FAMILIES[name]
    refs = references(name)
    report.add(_matrix_residual_check(
        fam.soundness, AlgMatrix(4, 4, rtt_entries(name), pres), fam.soundness_ref))
    relations = refs.relations if pres is preset(name) else Span(pres.relation_polys())
    report.absorb("rtt_completeness", span_equal(refs.rtt_span, relations, seed=report.seed,
                                                 label=f"{report.suite}-rtt"))
    report.absorb("derivation_equivalence", span_equal(refs.derived_span, relations,
                                                       seed=report.seed,
                                                       label=f"{report.suite}-derive"))
    spec = specialize_presentation(pres, {"q": P})
    same = [(r.lhs, r.rhs) for r in spec.rules] == [(r.lhs, r.rhs) for r in refs.degenerate.rules]
    report.expect("degeneration_q_eq_p", same,
                  "q := p collapses to the one-parameter deformation")


def suite_gr2(seed: int = DEFAULT_SEED, *, presentation: Presentation | None = None) -> Report:
    """Confluence, dimension count, inverse identities, RTT soundness and
    completeness, endomorphism derivation, parameter degeneration."""
    pres = presentation or preset("gr2")
    report = Report(suite="gr2", seed=seed)

    report.absorb("confluence", overlap_check(pres))

    found = len(irreducible_words(pres, 5))
    report.expect("dimension_16", found == 16,
                  "nilpotency and the 10 quadratic relations force dimension 16",
                  None if found == 16 else f"found {found} irreducible words")

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

    _family_checks(report, pres, "gr2")
    return report.finish()


def suite_gr11(seed: int = DEFAULT_SEED, *,
               presentation: Presentation | None = None) -> Report:
    """Confluence of the supergroup presentations, graded tensor ground
    truth, graded RTT, supermatrix inverse, superdeterminant."""
    pres = presentation or preset("gr11")
    loc = preset("gr11_localized")
    report = Report(suite="gr11", seed=seed)

    report.absorb("confluence", overlap_check(pres))
    report.absorb("confluence_localized", overlap_check(loc))
    report.absorb("confluence_inverse_family", overlap_check(preset("gr11_inverse")))

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

    _family_checks(report, pres, "gr11")

    ml = generic_gr11_localized(loc)
    minv = inverse11(ml)
    i2 = identity_matrix(loc, 2)
    report.add(_matrix_residual_check(
        "inverse_right_sided", mat_mul(ml, minv) - i2, "M * M^-1 = I"))
    report.add(_matrix_residual_check(
        "inverse_left_sided", mat_mul(minv, ml) - i2, "M^-1 * M = I"))

    bad = [label for label, expr in family("diag_odd", minv.entries, P**-1, Q**-1)
           if not normal_form(expr, loc).is_zero]
    report.expect("inverse_entry_relations", not bad,
                  "inverse entries obey the relations at (p^-1, q^-1)", ", ".join(bad) or None)

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
    central = []
    for gen_name in ("alpha", "delta", "b", "c"):
        gen = Poly.gen(gen_name)
        resid = normal_form(dl * gen - (gen * dl).scale(twist), loc)
        report.add(residual_check(f"sdet_twist_{gen_name}", resid, loc,
                                  "sdet g = pq^-1 g sdet"))
        comm = normal_form(dl * gen - gen * dl, loc)
        central.append(specialize(comm, {"q": P}).is_zero)
    report.expect("sdet_central_at_p_eq_q", all(central),
                  "the superdeterminant becomes central at p = q")

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
        report.absorb(f"relations_e{e}", power_relations_check(e, closed))
    ok = all(qnum(n, t) * (ONE - t) == ONE - t**n
             for t in (P * Q, (P * Q) ** 2, (P * Q) ** -1) for n in range(17))
    report.expect("qnum_telescopes", ok, "<n>_t (1 - t) = 1 - t^n")
    report.expect("exponent1_literal_collapse", _literal_first_power_collapses(),
                  "at exponent 1 the closed form's (bc)^-1 factor cancels in the localization")
    return report.finish()


def _literal_first_power_collapses() -> bool:
    """The closed odd-power formula at n=1 reads B = bc (bc)^-1 b; in the
    localized algebra that collapses to b (and the C analogue to c)."""
    loc = preset("gr11_localized")
    w = Poly.word
    b_literal = normal_form(w("b", "c", "cinv", "binv", "b"), loc)
    c_literal = normal_form(w("c", "b", "binv", "cinv", "c"), loc)
    return (b_literal - Poly.gen("b")).is_zero and (c_literal - Poly.gen("c")).is_zero


def suite_gr2_powers(seed: int = DEFAULT_SEED) -> Report:
    """The Appendix's powers for the Grassmann matrix M: M^3 is nonzero
    and M^4 vanishes."""
    m = generic_matrix("all_odd", preset("gr2"))
    report = Report(suite="gr2_powers", seed=seed)
    cube = mat_mul(mat_mul(m, m), m)
    report.expect("cube_nonzero", not cube.is_zero, "M^3 != 0: (M^3)_12 = -p alpha delta beta")
    report.add(_matrix_residual_check("fourth_power_vanishes", mat_mul(cube, m), "M^4 = 0"))
    return report.finish()


def superdual(name: str) -> tuple[list[Poly], dict[str, str]]:
    """The relations of FAMILIES[name]'s even partner at (q, p), and the
    map of the family's entries onto the partner's."""
    fam = FAMILIES[name]
    odd, even = ([n for n, _ in ENTRY_LAYOUTS[kind]] for kind in (fam.kind, fam.dual))
    return generic_family(fam.dual, Q, P), dict(zip(odd, even))


def suite_duality(seed: int = DEFAULT_SEED) -> Report:
    """The superdual is the quadratic dual: each family's relations pair to
    zero with its even partner's at (q, p), and the first of its planes'
    with the second's at q := p, and the two ranks fill the degree-2
    words."""
    report = Report(suite="duality", seed=seed)
    found = []
    for name, fam in FAMILIES.items():
        pres = preset(name)
        witness = quadratic_pairing(pres.relation_polys(), *superdual(name), pres.parities)
        report.expect(f"superdual_{name}", witness is None,
                      f"{name} is the quadratic dual of its even partner at (q, p)", witness)
        source, target = (preset(plane) for plane in fam.planes)
        letters = {x.name: y.name for x, y in zip(source.generators, target.generators)}
        dual = [specialize(rel, {"q": P}) for rel in target.relation_polys()]
        found += filter(None, [quadratic_pairing(source.relation_polys(), dual, letters,
                                                 source.parities)])
    report.expect("planes_dual", not found, "each p-plane is dual to its q-plane at q := p",
                  "; ".join(found) or None)
    return report.finish()


def suite_all(max_n: int = 3, seed: int = DEFAULT_SEED) -> Report:
    """Every identity suite of SUITES, its checks named suite:check."""
    report = Report(suite="all", seed=seed)
    for name, run in SUITES.items():
        if name not in ("all", "faults"):
            sub = run(max_n, seed)
            for check in sub.checks:
                report.add(check._replace(name=f"{sub.suite}:{check.name}"))
    return report.finish()


SUITES: dict[str, Callable[..., Report]] = {
    "gr2": lambda max_n, seed: suite_gr2(seed),
    "gr11": lambda max_n, seed: suite_gr11(seed),
    "powers": lambda max_n, seed: suite_powers(max_n, seed),
    "gr2_powers": lambda max_n, seed: suite_gr2_powers(seed),
    "duality": lambda max_n, seed: suite_duality(seed),
    "all": lambda max_n, seed: suite_all(max_n, seed),
    "faults": lambda max_n, seed: fault_injection_report(seed),
}


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


class Mutation(NamedTuple):
    """A single-coefficient fault injected into a preset rule: the rhs
    coefficient of rhs_word in the rule with lhs rule_lhs times factor."""
    name: str
    preset_name: str
    rule_lhs: tuple[str, ...]
    rhs_word: tuple[str, ...]
    factor: RatFunc


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
    """Reduce the family's cached RTT residual entries in the mutated
    preset one at a time and return the first nonzero one, formatted, as
    the witness that the fault is caught; None if every entry vanishes.
    A coefficient change in a quadratic preset changes its degree-2 span,
    which the RTT entries span (rtt_completeness), so some entry leaves
    the mutated ideal."""
    mutated = mutate_preset(mutation)
    for entry in rtt_entries(mutation.preset_name):
        residual = normal_form(entry, mutated)
        if not residual.is_zero:
            return truncate_poly_text(format_poly(residual, mutated))
    return None


def fault_injection_report(seed: int = DEFAULT_SEED) -> Report:
    """Each catalogued mutation must make at least one identity fail,
    leaving a nonzero residual as the witness."""
    report = Report(suite="fault_injection", seed=seed)
    for mutation in MUTATIONS:
        witness = mutation_witness(mutation)
        report.expect(f"caught:{mutation.name}", bool(witness),
                      "single-coefficient faults must be detected",
                      witness or "mutated preset slipped through every check")
    return report.finish()

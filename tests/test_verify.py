"""Suite reports: contents, determinism, JSON schema, fault injection."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import grasspq
from grasspq import cli, freealg, matops, verify
from grasspq.coeff import ONE, P, Q, RatFunc
from grasspq.freealg import EVEN, PRESET_NAMES, Presentation, format_poly, normal_form, preset
from grasspq.matops import closed_power, generic_matrix, mat_mul, quadratic_pairing, rtt_residual
from grasspq.reporting import Check, Report, truncate_poly_text
from grasspq.verify import (
    DEFAULT_SEED,
    MUTATIONS,
    SUITES,
    Mutation,
    fault_injection_report,
    mutate_preset,
    mutation_witness,
    suite_all,
    suite_duality,
    suite_gr2,
    suite_gr2_powers,
    suite_gr11,
    suite_powers,
    superdual,
)


@pytest.fixture(scope="module")
def gr2_report():
    return suite_gr2()


@pytest.fixture(scope="module")
def gr11_report():
    return suite_gr11()


@pytest.fixture(scope="module")
def powers_report():
    return suite_powers(3)


def test_suite_gr2_passes(gr2_report):
    assert gr2_report.passed, gr2_report.to_text()


def test_suite_gr11_passes(gr11_report):
    assert gr11_report.passed, gr11_report.to_text()


def test_suite_powers_passes(powers_report):
    assert powers_report.passed, powers_report.to_text()


def test_suite_powers_passes_up_to_exponent_32():
    report = suite_powers(16)
    assert report.passed, report.to_text()
    assert "closed_vs_iterated_e32" in {c.name for c in report.checks}


def test_suite_powers_builds_each_closed_power_once(monkeypatch):
    built = []

    def counting(exponent):
        built.append(exponent)
        return closed_power(exponent)

    monkeypatch.setattr(verify, "closed_power", counting)
    monkeypatch.setattr(matops, "closed_power", counting)
    assert suite_powers(3).passed
    assert built == [1, 2, 3, 4, 5, 6]


def test_each_family_reference_is_built_once_per_process(monkeypatch):
    for name in PRESET_NAMES:
        preset(name)  # the presets are built once per process too
    # the family references live for the whole process, so both caches
    # are emptied: what earlier tests made does not count
    for cache in (verify.rtt_entries, verify.references):
        cache.cache_clear()
    builds, derivations, spans = [], [], []
    build, derive, span = freealg.build_presentation, verify.derive_relations, verify.Span

    def counting_build(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    def counting_derive(*args, **kwargs):
        derivations.append(args[2])
        return derive(*args, **kwargs)

    def counting_span(polys):
        spans[-1].append(polys)
        return span(polys)

    monkeypatch.setattr(freealg, "build_presentation", counting_build)
    monkeypatch.setattr(verify, "derive_relations", counting_derive)
    monkeypatch.setattr(verify, "Span", counting_span)
    spans.append([])
    assert fault_injection_report().passed
    assert builds == derivations == spans[0] == []
    passes = []
    for _ in range(2):
        spans.append([])
        reports = [f() for f in (suite_gr2, suite_gr11, fault_injection_report)]
        assert all(r.passed for r in reports)
        passes.append([r.signature() for r in reports])
    assert passes[1] == passes[0]
    assert builds == ["gr2", "gr11"]
    assert derivations == ["all_odd"] * 2 + ["diag_odd"] * 2
    # the first pass spans the four references and each preset's relations
    # once, with their exact echelons; the second pass spans nothing
    references = [r for name in verify.FAMILIES
                  for r in (verify.rtt_entries(name), verify.references(name).derived)]
    assert [len(made) for made in spans[1:]] == [6, 0]
    assert sum(any(polys is r for r in references) for polys in spans[1]) == 4
    relations = [polys for polys in spans[1] if not any(polys is r for r in references)]
    assert relations == [preset("gr2").relation_polys(), preset("gr11").relation_polys()]


SUITE_OF = {"gr2": suite_gr2, "gr11": suite_gr11}


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_a_mutated_presentation_gets_its_own_relation_span(mutation, monkeypatch):
    suite = SUITE_OF[mutation.preset_name]
    assert suite().passed  # the preset's references are made, or read
    mutated = mutate_preset(mutation)
    spans, span = [], verify.Span
    monkeypatch.setattr(verify, "Span", lambda polys: spans.append(polys) or span(polys))
    failed = {c.name for c in suite(presentation=mutated).checks if c.status == "fail"}
    assert {"rtt_completeness", "derivation_equivalence"} <= failed
    assert spans == [mutated.relation_polys()]  # made afresh for the copy alone
    monkeypatch.undo()
    assert suite().passed


def test_a_presentation_other_than_the_preset_reports_as_before_and_is_kept_nowhere():
    for suite in SUITE_OF.values():
        assert suite().passed
    held = verify.references.cache_info().currsize
    # the builtin text loaded afresh reports as its preset does
    for name, suite in SUITE_OF.items():
        loaded = cli.load_presentation(cli.builtin_preset_text(name), label=name)
        assert loaded is not preset(name)
        assert suite(presentation=loaded).signature() == suite().signature()
    # sha256 of repr() of the mutated copies' signatures as they were when
    # each presentation's relation span was kept while it lived
    sigs = repr([SUITE_OF[m.preset_name](presentation=mutate_preset(m)).signature()
                 for m in MUTATIONS])
    assert hashlib.sha256(sigs.encode()).hexdigest() == (
        "a9a44fa66fd5015dcffffa480d9a65446c36c564dc2a479a7c5ae0f257ec02fd")
    assert verify.references.cache_info().currsize == held


# the RTT parameter and grading of each preset's family, written out here
# rather than read from verify.FAMILIES
_RTT = {"gr2": ("all_odd", ONE, False), "gr11": ("diag_odd", -ONE, True)}


@pytest.mark.parametrize("name, mutation",
                         [("gr2", None), ("gr11", None)]
                         + [(m.preset_name, m) for m in MUTATIONS],
                         ids=lambda case: getattr(case, "name", case or "unmutated"))
def test_the_cached_residual_reduces_to_the_direct_one(name, mutation):
    pres = preset(name) if mutation is None else mutate_preset(mutation)
    kind, x, graded = _RTT[name]
    direct = rtt_residual(x, generic_matrix(kind, pres), graded).entries
    assert [normal_form(e, pres) for e in verify.rtt_entries(name)] == list(direct)
    if mutation is not None:
        first = next(e for e in direct if not e.is_zero)
        assert mutation_witness(mutation) == truncate_poly_text(format_poly(first, pres))


def test_suite_all_is_the_conjunction(gr2_report, gr11_report, powers_report):
    combined = suite_all(3)
    assert combined.passed
    # every entry of SUITES but "all" and "faults", each check named suite:check
    subs = (gr2_report, gr11_report, powers_report, suite_gr2_powers(), suite_duality())
    assert {sub.suite for sub in subs} == set(SUITES) - {"all", "faults"}
    assert [c.name for c in combined.checks] == sorted(
        f"{sub.suite}:{c.name}" for sub in subs for c in sub.checks)


def test_suite_all_nonempty_at_minimal_configuration():
    report = suite_all(max_n=1)
    assert report.checks
    assert report.passed


def test_reports_name_the_identity(gr2_report):
    assert all(c.paper_ref for c in gr2_report.checks)


def test_reports_sorted_by_check_name(gr11_report):
    names = [c.name for c in gr11_report.checks]
    assert names == sorted(names)


def test_reports_deterministic():
    a = suite_gr2(seed=7)
    b = suite_gr2(seed=7)
    assert a.signature() == b.signature()


def test_signatures_are_pinned():
    # sha256 of repr(signature()) at DEFAULT_SEED; a change that moves a
    # signature on purpose updates these and says why
    def digest(signature):
        return hashlib.sha256(repr(signature).encode()).hexdigest()

    combined = suite_all(3, DEFAULT_SEED)
    assert digest(combined.signature()) == (
        "7c08d2834ff6d3b3c75dc88b53b880f9d98bddc614206f60bc6fde90e573f337")
    # without the gr2_powers and duality checks, the hash before they came
    older = tuple(tuple(c) for c in combined.checks
                  if not c.name.startswith(("gr2_powers:", "duality:")))
    assert digest(("all", DEFAULT_SEED, older)) == (
        "e8feefd6f5cd3b718e8458807862f210e6e539bc57ce86b0cc54df0ac990af52")
    assert digest(fault_injection_report(DEFAULT_SEED).signature()) == (
        "339970dd30b2ceab0c6e5630879b57655ebd84cd9974b8495c9f7c5fd7056a88")


def test_interleaved_seeds_report_as_in_a_fresh_interpreter():
    # the family references fill their integer echelons once per sample
    # point, so what one seed left behind must not change another's report
    seeds = (DEFAULT_SEED, 27, DEFAULT_SEED)
    here = [repr([suite(seed).signature() for suite in (suite_gr2, suite_gr11)])
            for seed in seeds]
    assert here[2] == here[0]
    src = os.path.dirname(os.path.dirname(grasspq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for seed, sigs in zip(seeds[:2], here):
        code = ("from grasspq.verify import suite_gr2, suite_gr11; "
                f"print(repr([f({seed}).signature() for f in (suite_gr2, suite_gr11)]))")
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, check=True, timeout=60).stdout.strip()
        assert fresh == sigs, seed


def test_report_records_seed(gr2_report):
    assert gr2_report.seed == DEFAULT_SEED


def test_json_schema(powers_report):
    doc = json.loads(powers_report.to_json())
    assert set(doc) == {"suite", "checks", "seed", "elapsed_ms"}
    assert doc["suite"] == "powers"
    assert doc["seed"] == DEFAULT_SEED
    for check in doc["checks"]:
        assert list(check) == ["name", "status", "residual", "paper_ref"]
        assert check["status"] in ("pass", "fail")


def test_absorb_stands_one_check_for_a_sub_report():
    sub = Report(suite="span:demo")
    sub.expect("b_second", False, "ref")
    sub.expect("a_first", False, "ref", "x - y")
    sub.expect("c_fine", True, "ref")
    sub.finish()
    report = Report(suite="outer")
    report.absorb("failing", sub)
    passing = Report(suite="span:ok")
    passing.expect("fine", True, "ref")
    report.absorb("passing", passing)
    assert report.checks == [Check("failing", "fail", "a_first: x - y", "span:demo"),
                             Check("passing", "pass", None, "span:ok")]
    # a failure with no residual is witnessed as failed
    bare = Report(suite="bare")
    bare.expect("only", False, "ref")
    report.absorb("bare", bare)
    assert report.checks[-1] == Check("bare", "fail", "only: failed", "bare")


def test_expect_keeps_a_residual_on_a_pass():
    report = Report(suite="faults")
    report.expect("caught:x", True, "ref", "witness")
    report.expect("missed:x", False, "ref")
    assert report.checks == [Check("caught:x", "pass", "witness", "ref"),
                             Check("missed:x", "fail", None, "ref")]
    assert report.failures() == report.checks[1:]
    assert report.signature() == ("faults", None, (
        ("caught:x", "pass", "witness", "ref"), ("missed:x", "fail", None, "ref")))


def test_text_rendering_mentions_every_check(powers_report):
    text = powers_report.to_text()
    for check in powers_report.checks:
        assert check.name in text


# -- fault injection ---------------------------------------------------------------


def test_catalogue_has_ten_mutations():
    assert len(MUTATIONS) == 10
    assert len({m.name for m in MUTATIONS}) == 10


def test_every_mutation_is_caught():
    report = fault_injection_report()
    assert report.passed, report.to_text()
    assert len(report.checks) == 10


def test_every_single_coefficient_fault_of_a_family_rule_leaves_a_residual():
    # each factor on each rhs term of every gr2 and gr11 rule: the RTT
    # residual entries alone see every such fault
    factors = (-ONE, P, Q, P**-1, Q**-1, P / Q, RatFunc.const(2))
    faults = [Mutation(f"{name}_{i}", name, rule.lhs, word, factor)
              for name in ("gr2", "gr11") for rule in preset(name).rules
              for word in rule.rhs.terms for i, factor in enumerate(factors)]
    assert len(faults) == 98
    assert [m for m in faults if mutation_witness(m) is None] == []


def _rule_values(pres):
    # rules compare by identity, so compare their lhs and rhs
    return [(r.lhs, r.rhs) for r in pres.rules]


def test_mutated_copy_keeps_the_preset_settings():
    loc = preset("gr11_localized")
    mutated = mutate_preset(Mutation("loc_scale_b_alpha", "gr11_localized",
                                     ("b", "alpha"), ("alpha", "b"), P**-2))
    assert mutated.max_word_length == 256
    assert (mutated.order, mutated.negative_weight, mutated.inverses) == (
        loc.order, loc.negative_weight, loc.inverses)
    assert len(mutated.rules) == len(loc.rules)
    assert _rule_values(mutated) != _rule_values(loc)


def test_rule_comparison_sees_a_mutation_that_changes_nothing():
    loc = preset("gr11_localized")
    same = mutate_preset(Mutation("loc_keep_b_alpha", "gr11_localized",
                                  ("b", "alpha"), ("alpha", "b"), ONE))
    assert _rule_values(same) == _rule_values(loc)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutated_presets_fail_a_suite_with_witness(mutation):
    report = SUITE_OF[mutation.preset_name](presentation=mutate_preset(mutation))
    assert not report.passed
    assert any(c.residual for c in report.failures())


# -- gr2 powers and the superdual ----------------------------------------------------


def test_gr2_powers_pass_and_the_cube_is_pinned():
    report = suite_gr2_powers()
    assert report.passed, report.to_text()
    assert [c.name for c in report.checks] == ["cube_nonzero", "fourth_power_vanishes"]
    gr2 = preset("gr2")
    m = generic_matrix("all_odd", gr2)
    cube = mat_mul(mat_mul(m, m), m)
    assert format_poly(cube[0, 1], gr2) == "-p*alpha*delta*beta"


@pytest.mark.parametrize("mutation", [m for m in MUTATIONS if m.preset_name == "gr2"],
                         ids=lambda m: m.name)
def test_each_gr2_mutation_fails_the_fourth_power(mutation):
    m = generic_matrix("all_odd", mutate_preset(mutation))
    square = mat_mul(m, m)
    assert not mat_mul(square, square).is_zero


def test_duality_passes():
    report = suite_duality()
    assert report.passed, report.to_text()
    assert [c.name for c in report.checks] == ["planes_dual", "superdual_gr11", "superdual_gr2"]


def pairing_witness(source, dual, letters):
    return quadratic_pairing(source.relation_polys(), dual, letters, source.parities)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_each_mutation_fails_the_superdual(mutation):
    witness = pairing_witness(mutate_preset(mutation), *superdual(mutation.preset_name))
    assert witness is not None and not witness.startswith("0 nonzero")


@pytest.mark.parametrize("name, ranks", [("gr2", "10 + 6"), ("gr11", "8 + 8")])
def test_the_superdual_needs_q_and_p_swapped(name, ranks):
    assert pairing_witness(preset(name), *superdual(name)) is None
    at_p_q = freealg.generic_family(verify.FAMILIES[name].dual, P, Q)
    assert pairing_witness(preset(name), at_p_q, superdual(name)[1]) == (
        f"6 nonzero pairings, ranks {ranks}")


def even_copy(pres):
    # the same rules over all-even letters: the pairing loses its sign
    return Presentation(f"{pres.label}_even", [(g.name, EVEN) for g in pres.generators], pres.rules)


def test_the_superdual_needs_the_parity_sign():
    assert pairing_witness(even_copy(preset("gr11")), *superdual("gr11")) == (
        "5 nonzero pairings, ranks 8 + 8")
    # gr2's letters are all odd, so the sign is -1 on every word and the
    # plain pairing agrees
    assert pairing_witness(even_copy(preset("gr2")), *superdual("gr2")) is None


def test_the_planes_are_dual_only_with_the_sign_and_q_equal_to_p():
    source, target = preset("plane_p11"), preset("plane_q11_dual")
    letters = {"x": "eta", "xi": "y"}
    at_p = [freealg.specialize(rel, {"q": P}) for rel in target.relation_polys()]
    assert pairing_witness(source, at_p, letters) is None
    assert pairing_witness(even_copy(source), at_p, letters) == "1 nonzero pairings, ranks 2 + 2"
    assert pairing_witness(source, target.relation_polys(), letters) == (
        "1 nonzero pairings, ranks 2 + 2")

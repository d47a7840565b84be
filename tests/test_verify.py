"""Suite reports: contents, determinism, JSON schema, fault injection."""

import hashlib
import json

import pytest

from grasspq.coeff import P
from grasspq.freealg import preset
from grasspq.verify import (
    DEFAULT_SEED,
    MUTATIONS,
    Mutation,
    fault_injection_report,
    mutate_preset,
    suite_all,
    suite_gr2,
    suite_gr11,
    suite_powers,
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


def test_suite_all_is_the_conjunction(gr2_report, gr11_report, powers_report):
    combined = suite_all(3)
    assert combined.passed
    expected = (len(gr2_report.checks) + len(gr11_report.checks)
                + len(powers_report.checks))
    assert len(combined.checks) == expected


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
    def digest(report):
        return hashlib.sha256(repr(report.signature()).encode()).hexdigest()

    assert digest(suite_all(3, DEFAULT_SEED)) == (
        "e8feefd6f5cd3b718e8458807862f210e6e539bc57ce86b0cc54df0ac990af52")
    assert digest(fault_injection_report(DEFAULT_SEED)) == (
        "339970dd30b2ceab0c6e5630879b57655ebd84cd9974b8495c9f7c5fd7056a88")


def test_report_records_seed(gr2_report):
    assert gr2_report.seed == DEFAULT_SEED


def test_json_schema(powers_report):
    doc = json.loads(powers_report.to_json())
    assert set(doc) == {"suite", "checks", "seed", "elapsed_ms"}
    assert doc["suite"] == "powers"
    assert doc["seed"] == DEFAULT_SEED
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "residual", "paper_ref"}
        assert check["status"] in ("pass", "fail", "skipped")


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


def test_mutated_copy_keeps_the_preset_settings():
    loc = preset("gr11_localized")
    mutated = mutate_preset(Mutation("loc_scale_b_alpha", "gr11_localized",
                                     ("b", "alpha"), ("alpha", "b"), P**-2))
    assert mutated.limits.max_word_length == 256
    assert (mutated.order, mutated.negative_weight, mutated.inverses) == (
        loc.order, loc.negative_weight, loc.inverses)
    assert len(mutated.rules) == len(loc.rules) and mutated.rules != loc.rules


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutated_presets_fail_a_suite_with_witness(mutation):
    mutated = mutate_preset(mutation)
    if mutation.preset_name == "gr2":
        report = suite_gr2(presentation=mutated)
    else:
        report = suite_gr11(presentation=mutated)
    assert not report.passed
    assert any(c.residual for c in report.failures())

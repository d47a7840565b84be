"""Expression parser, canonical printing round-trip, CLI exit codes."""

import io
import json
import contextlib
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grasspq import matops
from grasspq.coeff import ONE, P, Q, RatFunc
from grasspq.errors import (
    ExprSyntaxError,
    NegativePowerOfNonInvertible,
    UnknownGenerator,
)
from grasspq.freealg import Poly, format_poly, normal_form, preset
from grasspq.cli import (
    builtin_preset_text,
    dump_presentation,
    load_presentation,
    main,
    parse,
    parse_coeff,
    parse_poly,
)

w = Poly.word
g = Poly.gen


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- parsing ------------------------------------------------------------------

def test_parse_base_relation_text():
    pres = preset("gr2")
    poly = parse_poly("alpha*beta + p^-1*beta*alpha", pres)
    assert poly.is_zero  # it is the first defining relation


def test_parse_supergroup_relation_text():
    pres = preset("gr11")
    poly = parse_poly("b*c - p*q^-1*c*b - (p - q^-1)*delta*alpha", pres)
    assert poly.is_zero


def test_parse_rejects_negative_power_of_nilpotent():
    with pytest.raises(NegativePowerOfNonInvertible):
        parse_poly("alpha^-1", preset("gr2"))


def test_parse_allows_negative_power_of_localized_generator():
    pres = preset("gr11_localized")
    assert parse_poly("b^-1", pres) == g("binv")
    assert parse_poly("b*b^-1", pres) == Poly.unit()
    assert parse_poly("c^-2", pres) == w("cinv", "cinv")


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse("alpha*nosuch", preset("gr2"))


def test_parse_reports_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("alpha*(beta + ", preset("gr2"))
    assert err.value.position == 14


def test_parse_empty_is_an_error():
    with pytest.raises(ExprSyntaxError):
        parse("   ", preset("gr2"))


def test_unary_minus_binds_below_power():
    assert parse_coeff("-p^-2") == -(P**-2)
    assert parse_coeff("-2^2") == RatFunc.const(-4)


def test_division_requires_scalar_divisor():
    with pytest.raises(NegativePowerOfNonInvertible):
        parse_poly("p/alpha", preset("gr2"))


def test_coefficient_syntax():
    assert parse_coeff("(p - q^-1)/(1 + p*q)") == (P - Q**-1) / (ONE + P * Q)
    assert parse_coeff("3/2*p") == RatFunc.const(3) / RatFunc.const(2) * P


def test_power_expands_to_repeated_product():
    pres = preset("gr2")
    assert parse_poly("alpha^3", pres).is_zero
    assert parse_poly("(b*c)^2", preset("gr11")) == normal_form(
        w("b", "c", "b", "c"), preset("gr11"))


def test_parser_totality_no_crashes():
    pres = preset("gr2")
    for text in ("", "*", "alpha+", "((", "p^", "p^x", "1//2", "alpha beta",
                 ")", "^2", "alpha*^", "%", "²", "alpha^²"):
        with pytest.raises((ExprSyntaxError, UnknownGenerator)):
            parse_poly(text, pres)


@given(st.text(max_size=24))
def test_parser_totality_fuzz(text):
    try:
        parse_poly(text, preset("gr2"))
    except (ExprSyntaxError, UnknownGenerator, NegativePowerOfNonInvertible):
        pass


# -- printing round-trip ----------------------------------------------------------

def random_nf_poly(rng, pres):
    names = [gen.name for gen in pres.generators]
    out = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
        num = RatFunc.monomial(rng.randint(-3, 3) or 1,
                               rng.randint(-2, 2), rng.randint(-2, 2))
        if rng.random() < 0.3:
            num = num / (ONE + P * Q)
        out = out + Poly({word: num})
    return normal_form(out, pres)


@pytest.mark.parametrize("name", ["gr2", "gr11", "gr11_localized", "gr11_inverse",
                                  "plane_p20", "plane_q02", "plane_p11",
                                  "plane_q11_dual"])
def test_roundtrip_parse_of_printed_polys(name, rng):
    pres = preset(name)
    for _ in range(200):
        poly = random_nf_poly(rng, pres)
        text = format_poly(poly, pres)
        back = parse_poly(text, pres)
        assert (back - poly).is_zero, text


# -- exit codes --------------------------------------------------------------------

EXIT_MATRIX = [
    (("check", "--preset", "gr2", "alpha*delta + delta*alpha"), 0),
    (("check", "--preset", "gr2", "alpha*delta - delta*alpha"), 1),
    (("check", "--preset", "gr11", "b*c - p*q^-1*c*b - (p - q^-1)*delta*alpha"), 0),
    (("reduce", "--preset", "gr2", "alpha^3"), 0),
    (("reduce", "--preset", "gr2", "alpha*("), 2),
    (("reduce", "--preset", "gr2", "alpha^-1"), 2),
    (("reduce", "--preset", "gr2", "nosuch"), 2),
    (("reduce", "--preset", "nosuch", "alpha"), 2),
    (("reduce", "alpha"), 2),  # missing preset selection
    (("rmatrix", "--x", "p*q"), 0),
    (("rmatrix", "--x", "p*("), 2),
    (("power", "--n", "3"), 0),
    (("power", "--n", "3", "--closed-form"), 0),
    (("power", "--n", "0"), 2),
    (("verify", "--suite", "gr2"), 0),
    (("verify", "--suite", "powers", "--max-n", "1"), 0),
    (("confluence", "--preset", "gr11_localized"), 0),
    (("nosuchcommand",), 2),
]


@pytest.mark.parametrize("argv,expected", EXIT_MATRIX,
                         ids=[" ".join(a) for a, _ in EXIT_MATRIX])
def test_exit_code_contract(argv, expected):
    code, _, _ = run_cli(*argv)
    assert code == expected


def test_reduce_prints_canonical_form():
    code, out, _ = run_cli("reduce", "--preset", "gr2", "delta*alpha")
    assert code == 0
    assert out.strip() == "-alpha*delta"


def test_check_prints_witness_on_failure():
    code, out, _ = run_cli("check", "--preset", "gr2", "alpha*beta")
    assert code == 1
    assert "alpha*beta" in out


def test_rmatrix_layout():
    code, out, _ = run_cli("rmatrix", "--x", "1")
    rows = out.strip().splitlines()
    assert code == 0 and len(rows) == 4
    assert "p + q^-1" in rows[0]
    assert "2" in rows[1]


def test_power_closed_and_iterated_agree():
    _, closed, _ = run_cli("power", "--n", "4", "--closed-form")
    _, iterated, _ = run_cli("power", "--n", "4")
    def entries(text):
        return [line.split("=", 1)[1].strip() for line in text.splitlines()
                if line.startswith("  ") and line.lstrip()[0] in "ABCD"]
    assert entries(closed) == entries(iterated)


def test_verify_json_document():
    code, out, _ = run_cli("verify", "--suite", "gr11", "--json", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "gr11"
    assert doc["seed"] == 3
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_all_runs_every_suite():
    code, out, _ = run_cli("verify", "--suite", "all", "--max-n", "1")
    assert code == 0
    assert "gr2:" in out and "gr11:" in out and "powers:" in out


def test_verify_faults_runs_the_mutation_catalogue():
    code, out, _ = run_cli("verify", "--suite", "faults", "--json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert len(names) == 10 and all(n.startswith("caught:") for n in names)


# -- input size ----------------------------------------------------------------------

def test_input_words_are_held_to_the_length_cap():
    assert run_cli("reduce", "--preset", "gr11", "b^64") == (0, "b^64\n", "")
    code, out, err = run_cli("reduce", "--preset", "gr11", "b^65")
    assert code == 1 and not out
    assert "input word of length 65 in 'gr11' exceeds the cap 64" in err
    code, _, err = run_cli("reduce", "--preset", "gr11", "c*b^64")
    assert code == 1 and "length 65" in err
    code, _, err = run_cli("check", "--preset", "gr11_localized", "b^-257")
    assert code == 1 and "length 257" in err


def test_input_length_cap_follows_the_preset(tmp_path):
    # gr11_localized allows words of length 256, also when loaded from its file
    assert run_cli("reduce", "--preset", "gr11_localized", "b^200") == (0, "b^200\n", "")
    path = tmp_path / "gr11_localized.preset"
    path.write_text(builtin_preset_text("gr11_localized"))
    assert run_cli("reduce", "--preset-file", str(path), "b^100") == (0, "b^100\n", "")


def test_power_at_the_word_cap_prints_and_past_it_fails_at_once():
    code, out, _ = run_cli("power", "--n", "64", "--closed-form")
    assert code == 0 and out.startswith("exponent 64;")
    start = time.perf_counter()
    code, _, err = run_cli("power", "--n", "20000", "--closed-form")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "over the cap 64" in err


def test_iterated_power_checks_the_cap_before_any_product(monkeypatch):
    def no_products(*args):
        raise AssertionError("mat_mul ran before the cap check")

    monkeypatch.setattr(matops, "mat_mul", no_products)
    code, _, err = run_cli("power", "--n", "20000")
    assert code == 1 and "power 20000 of 'gr11' is over the cap 64" in err
    monkeypatch.undo()
    code, out, _ = run_cli("power", "--n", "64")
    assert code == 0 and out.startswith("exponent 64 (iterated product)")


def test_huge_power_fails_before_building_the_word():
    start = time.perf_counter()
    code, _, err = run_cli("reduce", "--preset", "gr11", "b^1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "length 1000000" in err


# -- presentation files ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["gr2", "gr11", "gr11_localized", "gr11_inverse",
                                  "plane_p20", "plane_q02", "plane_p11",
                                  "plane_q11_dual"])
def test_builtin_preset_files_match_builders(name):
    # the shipped files are dump_presentation output, pinned byte for byte
    pres = preset(name)
    assert builtin_preset_text(name) == dump_presentation(pres)
    loaded = load_presentation(builtin_preset_text(name), label=name)
    assert loaded.limits == pres.limits
    assert len(loaded.rules) == len(pres.rules)
    by_lhs = {r.lhs: r for r in loaded.rules}
    for rule in pres.rules:
        assert rule.lhs in by_lhs
        assert (by_lhs[rule.lhs].rhs - rule.rhs).is_zero


def test_dump_then_load_roundtrip():
    pres = preset("gr11")
    loaded = load_presentation(dump_presentation(pres), label="again")
    assert len(loaded.rules) == len(pres.rules)


def test_preset_file_flag(tmp_path):
    path = tmp_path / "custom.preset"
    path.write_text(builtin_preset_text("gr2"))
    code, out, _ = run_cli("reduce", "--preset-file", str(path), "delta*alpha")
    assert code == 0
    assert out.strip() == "-alpha*delta"


def test_preset_file_missing(tmp_path):
    code, _, err = run_cli("reduce", "--preset-file", str(tmp_path / "nope"), "x")
    assert code == 2


def test_bad_max_n_and_unreadable_preset_files_exit_with_usage_code(tmp_path):
    not_utf8 = tmp_path / "latin1.preset"
    not_utf8.write_bytes("generator \xe9 even\n".encode("latin-1"))
    for argv in (("verify", "--suite", "powers", "--max-n", "0"),
                 ("verify", "--suite", "all", "--max-n", "-2"),
                 ("reduce", "--preset-file", str(tmp_path), "x"),
                 ("reduce", "--preset-file", str(not_utf8), "x")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(("error: ", "verify needs --max-n >= 1")), argv


@pytest.mark.parametrize("line", ["order foo", "order", "order deglex invweight"])
def test_loader_rejects_unknown_order(line):
    text = f"generator x even\n{line}\nrelation x*x\n"
    with pytest.raises(ExprSyntaxError, match="line 2"):
        load_presentation(text)


@pytest.mark.parametrize("line", ["inverse x", "inverse x   ", "inverse", "inverse x xinv y"])
def test_loader_rejects_inverse_without_single_name(line):
    text = f"generator x even\ngenerator xinv even\n{line}\n"
    with pytest.raises(ExprSyntaxError, match="line 3"):
        load_presentation(text)


@pytest.mark.parametrize("line", ["maxword 0", "maxword x", "maxword", "maxword -3",
                                  "maxword 2.5", "maxword 8 9", "maxword ٣"])
def test_loader_rejects_maxword_that_is_not_a_positive_integer(line):
    text = f"generator x even\n{line}\nrelation x*x\n"
    with pytest.raises(ExprSyntaxError, match="line 2"):
        load_presentation(text)


@pytest.mark.parametrize("text", [
    "generator x even\ngenerator x odd\n",
    "generator x even\ninverse x xinv\n",
    "generator x even\ninverse y x\n",
    "generator x even\nnegweight x y\n",
    "generator x even\ngenerator x*y even\n",
    "generator x even\ngenerator 2x even\n",
    "generator x even\ngenerator x- odd\n",
])
def test_loader_rejects_invalid_or_undeclared_names(text):
    with pytest.raises(ExprSyntaxError, match="line 2"):
        load_presentation(text)


@pytest.mark.parametrize("text,message", [
    # y is no inverse of x: x^-1*x would print x*y
    ("generator x even\ngenerator y even\ninverse x y\nrelation x*y - y*x\n",
     "inverse x y on line 3: x\\*y does not reduce to 1"),
    # x*x reduces to x, not 1
    ("generator x even\ngenerator y even\ninverse x x\nrelation x*x - x\n",
     "inverse x x on line 3: x\\*x does not reduce to 1"),
    # a second inverse line would silently replace the first
    ("generator x even\ngenerator y even\ninverse x y\ninverse x x\n"
     "relation x*y - 1\nrelation y*x - 1\n",
     "repeated inverse for 'x' on line 4"),
])
def test_loader_checks_inverse_lines(text, message):
    with pytest.raises(ExprSyntaxError, match=message):
        load_presentation(text)


def test_loader_rejections_exit_with_usage_code(tmp_path):
    path = tmp_path / "bad.preset"
    path.write_text("generator x even\norder foo\n")
    code, _, err = run_cli("reduce", "--preset-file", str(path), "x")
    assert code == 2
    assert "line 2" in err

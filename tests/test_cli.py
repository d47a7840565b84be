"""Expression parser, canonical printing round-trip, CLI exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grasspq
from grasspq import cli, matops
from grasspq.coeff import ONE, P, Q, RatFunc
from grasspq.errors import (
    AlgebraError,
    DegreeCapExceeded,
    ExprSyntaxError,
    NegativePowerOfNonInvertible,
    UnknownGenerator,
)
from grasspq.freealg import PRESET_NAMES, Poly, format_poly, normal_form, preset
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


def test_import_loads_no_module_that_start_up_does_not_use():
    # a fresh interpreter: what `python -c pass` loads is already in
    # sys.modules before the import
    src = os.path.dirname(os.path.dirname(grasspq.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def newly_loaded(statement, names):
        code = (f"import sys; before = set(sys.modules); {statement}; "
                f"print(sorted({names} & (set(sys.modules) - before)))")
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=60).stdout.strip()

    assert newly_loaded("import grasspq, grasspq.cli",
                        "{'dataclasses', 'inspect', 'json', 'argparse'}") == "[]"
    # the package re-exports nothing, so one module loads only what it imports
    assert newly_loaded("import grasspq.coeff",
                        "{m for m in sys.modules if m.startswith('grasspq')}") == (
        "['grasspq', 'grasspq.coeff', 'grasspq.errors']")


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
    # the base is read by its value: parentheses and unit factors do not hide it
    assert parse_poly("(b)^-1", pres) == g("binv")
    assert parse_poly("(1*b)^-2", pres) == w("binv", "binv")


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


# text -> (error class, position of the fault) or the printed normal form
PINNED_TOKENS = {
    "²": (ExprSyntaxError, 0),  # a digit, but not an ASCII one
    "alpha²": (UnknownGenerator, 0),  # one name: '²' is alphanumeric
    "x¹": (UnknownGenerator, 0),
    "٣": (ExprSyntaxError, 0),
    "alpha^²": (ExprSyntaxError, 6),
    "ß": (UnknownGenerator, 0),  # a letter, so a name
    "_x": (UnknownGenerator, 0),
    "alpha *　beta": "alpha*beta",  # ideographic space
    "alpha\x1c*beta": "alpha*beta",  # str.isspace() holds for \x1c
    "alpha⁠*beta": (ExprSyntaxError, 5),  # word joiner: not whitespace
    "alpha*(beta +": (ExprSyntaxError, 13),
    "alpha*(beta + ": (ExprSyntaxError, 14),
    "p^x": (ExprSyntaxError, 2),
}


@pytest.mark.parametrize("text", list(PINNED_TOKENS), ids=ascii)
def test_token_boundaries_are_pinned(text):
    pres = preset("gr2")
    expected = PINNED_TOKENS[text]
    if isinstance(expected, str):
        assert format_poly(parse_poly(text, pres), pres) == expected
        return
    cls, position = expected
    with pytest.raises((ExprSyntaxError, UnknownGenerator)) as err:
        parse_poly(text, pres)
    assert type(err.value) is cls
    assert str(err.value).endswith(f"(at position {position})")
    if cls is ExprSyntaxError:
        assert err.value.position == position


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_roundtrip_parse_of_printed_polys(name, rng):
    pres = preset(name)
    for _ in range(200):
        poly = random_nf_poly(rng, pres)
        text = format_poly(poly, pres)
        back = parse_poly(text, pres)
        assert (back - poly).is_zero, text


# -- expression-tree oracle -----------------------------------------------------------
#
# Random trees are rendered to text and valued with Poly and RatFunc
# operations alone, so the oracle knows nothing of the parser.  A rendered
# node carries its precedence level; a child below the level its place
# needs is put in parentheses.

SUM, PRODUCT, NEG, POWER, ATOM = range(5)


def paren(node, level):
    text, value, prec = node
    return text if prec >= level else f"({text})"


def random_scalar(rng, depth):
    """(text, nonzero RatFunc, level)."""
    kind = rng.choice(["int", "param", "binomial"] if depth == 0 else
                      ["int", "param", "binomial", "product", "quotient", "power"])
    if kind == "int":
        n = rng.randint(1, 4)
        return str(n), RatFunc.const(n), ATOM
    if kind == "param":
        return rng.choice([("p", P, ATOM), ("q", Q, ATOM)])
    if kind == "binomial":
        return rng.choice([("p + q", P + Q, SUM), ("1 - p*q", ONE - P * Q, SUM),
                           ("p - q^-1", P - Q**-1, SUM)])
    a, b = random_scalar(rng, depth - 1), random_scalar(rng, depth - 1)
    if kind == "product":
        return f"{paren(a, PRODUCT)}*{paren(b, NEG)}", a[1] * b[1], PRODUCT
    if kind == "quotient":
        return f"{paren(a, PRODUCT)}/{paren(b, NEG)}", a[1] / b[1], PRODUCT
    k = rng.randint(1, 3)
    return f"{paren(a, ATOM)}^-{k}", a[1] ** -k, POWER


def random_tree(rng, pres, depth):
    """(text, Poly, level) for a random expression over pres."""
    names = [g.name for g in pres.generators]
    if depth == 0:
        roll = rng.random()
        if roll < 0.5:
            name = rng.choice(names)
            return name, Poly.gen(name), ATOM
        if roll < 0.6:
            n = rng.randint(0, 5)
            return str(n), Poly.unit(RatFunc.const(n)), ATOM
        if roll < 0.7 and pres.inverses:
            name = rng.choice(sorted(pres.inverses))
            k = rng.randint(1, 3)
            return f"{name}^-{k}", Poly.word(*[pres.inverses[name]] * k), POWER
        text, value, prec = random_scalar(rng, 1)
        return text, Poly.unit(value), prec
    kind = rng.choice(["sum", "difference", "product", "product", "negation",
                       "quotient", "power", "parenthesis"])
    a = random_tree(rng, pres, depth - 1)
    if kind == "negation":
        return f"-{paren(a, NEG)}", -a[1], NEG
    if kind == "parenthesis":
        return f"({a[0]})", a[1], ATOM
    if kind == "quotient":
        s = random_scalar(rng, 1)
        return f"{paren(a, PRODUCT)}/{paren(s, NEG)}", a[1].scale(s[1].inv()), PRODUCT
    if kind == "power":
        k = rng.randint(0, 2)
        value = Poly.unit()
        for _ in range(k):
            value = value * a[1]
        return f"{paren(a, ATOM)}^{k}", value, POWER
    b = random_tree(rng, pres, depth - 1)
    if kind == "sum":
        return f"{a[0]} + {paren(b, PRODUCT)}", a[1] + b[1], SUM
    if kind == "difference":
        return f"{a[0]} - {paren(b, PRODUCT)}", a[1] - b[1], SUM
    return f"{paren(a, PRODUCT)}*{paren(b, NEG)}", a[1] * b[1], PRODUCT


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_parsed_trees_equal_their_direct_values(name, rng):
    pres = preset(name)
    for _ in range(60):
        text, value, _ = random_tree(rng, pres, rng.randint(1, 3))
        assert parse_poly(text, pres) == normal_form(value, pres), text


# -- exit codes --------------------------------------------------------------------

EXIT_MATRIX = [
    (("check", "--preset", "gr2", "alpha*delta + delta*alpha"), 0),
    (("check", "--preset", "gr2", "alpha*delta - delta*alpha"), 1),
    (("check", "--preset", "gr11", "b*c - p*q^-1*c*b - (p - q^-1)*delta*alpha"), 0),
    (("check", "--preset", "gr11", "p*alpha*(alpha*b - p^-1*b*alpha)*c"), 0),
    (("reduce", "--preset", "gr2", "alpha^3"), 0),
    (("reduce", "--preset", "gr2", "alpha*("), 2),
    (("reduce", "--preset", "gr2", "alpha^-1"), 2),
    (("reduce", "--preset", "gr2", "²"), 2),  # not an ASCII digit
    (("reduce", "--preset", "gr2", "nosuch"), 2),
    (("reduce", "--preset", "nosuch", "alpha"), 2),
    (("reduce", "alpha"), 2),  # missing preset selection
    (("reduce", "--preset", "gr2", "--preset-file", "gr2.preset", "alpha"), 2),  # both
    (("rmatrix", "--x", "p*q"), 0),
    (("rmatrix", "--x", "p*("), 2),
    (("power", "--n", "3"), 0),
    (("power", "--n", "3", "--closed-form"), 0),
    (("power", "--n", "0"), 2),
    (("verify", "--suite", "gr2"), 0),
    (("verify", "--suite", "powers", "--max-n", "1"), 0),
    # the closed powers hold up to exponent 42; from 43 on the family
    # relations rewrite to a word past gr11's cap of 64
    (("verify", "--suite", "powers", "--max-n", "21"), 0),
    (("verify", "--suite", "gr2_powers"), 0),
    (("verify", "--suite", "duality"), 0),
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
    assert run_cli("reduce", "--preset", "gr11", "c*b") == (
        0, "p^-1*q*b*c + (q - p^-1)*alpha*delta\n", "")


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


_POWER5 = """\
  A = (p*q^2 + q)*delta*b^2*c^2 + (p*q^3 + q^2 + p^-1*q)*alpha*b^2*c^2
  B = p^-3*q^3*b^3*c^2 + (p^3*q^4 + p^2*q^3)*alpha*delta*b^2*c
  C = p^-3*q^3*b^2*c^3 + (-p^-1*q^2 - p^-2*q)*alpha*delta*b*c^2
  D = (p^-1*q^5 + p^-2*q^4 + p^-3*q^3)*delta*b^2*c^2 + (p^-2*q^5 + p^-3*q^4)*alpha*b^2*c^2
"""


# the whole stdout of rmatrix and power, byte for byte: padding, header, entry lines
_PINNED_STDOUT = {
    "rmatrix --x -1":
        "[ p + q^-1   0          0          0         ]\n"
        "[ 0          -2         -p + q^-1  0         ]\n"
        "[ 0          p - q^-1   -2*p*q^-1  0         ]\n"
        "[ 0          0          0          p + q^-1  ]\n",
    "rmatrix --x p*q":
        "[ p + q^-1   0          0          0         ]\n"
        "[ 0          2*p*q      -p + q^-1  0         ]\n"
        "[ 0          p - q^-1   2*p^2      0         ]\n"
        "[ 0          0          0          p + q^-1  ]\n",
    "power --n 5 --closed-form":
        "exponent 5; effective parameters (p^5, q^5) = (p^5, q^5)\n" + _POWER5,
    "power --n 6 --closed-form":
        "exponent 6; effective parameters (p^6, q^6) = (p^6, q^6)\n"
        "  A = p^-3*q^3*b^3*c^3\n"
        "  B = (q^5 + p^-1*q^4 + p^-2*q^3)*delta*b^3*c^2"
        " + (p^-1*q^5 + p^-2*q^4 + p^-3*q^3)*alpha*b^3*c^2\n"
        "  C = (p^-1*q^5 + p^-2*q^4 + p^-3*q^3)*delta*b^2*c^3"
        " + (p^-1*q^6 + p^-2*q^5 + p^-3*q^4)*alpha*b^2*c^3\n"
        "  D = p^-6*q^6*b^3*c^3 + (p*q^8 + q^7 + p^-1*q^6 - p^-2*q^5 - p^-3*q^4"
        " - p^-4*q^3)*alpha*delta*b^2*c^2\n",
    "power --n 5": "exponent 5 (iterated product)\n" + _POWER5,
}


@pytest.mark.parametrize("command", list(_PINNED_STDOUT))
def test_rmatrix_and_power_print_pinned_text(command):
    assert run_cli(*command.split()) == (0, _PINNED_STDOUT[command], "")


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
    assert all(list(c) == ["name", "status", "residual", "paper_ref"] for c in doc["checks"])


def test_verify_all_runs_every_suite():
    code, out, _ = run_cli("verify", "--suite", "all", "--max-n", "1")
    assert code == 0
    for suite in ("gr2", "gr11", "powers", "gr2_powers", "duality"):
        assert f"] {suite}:" in out


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


def test_product_chains_hold_each_factor_against_the_product_so_far():
    # the product so far is zero, so b^64*c adds no word past the cap
    assert run_cli("reduce", "--preset", "gr11", "(alpha - alpha)*b^64*c") == (0, "0\n", "")
    code, out, err = run_cli("reduce", "--preset", "gr11", "b*b^63*c - b^64*c")
    assert code == 1 and not out
    assert "input word of length 65 in 'gr11' exceeds the cap 64" in err


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


def test_coefficient_powers_past_the_span_bound_fail_at_once():
    start = time.perf_counter()
    code, out, err = run_cli("reduce", "--preset", "gr2", "(p+q)^1500*alpha")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert "input coefficient of p-degree span 1500 exceeds the bound 64" in err
    assert run_cli("reduce", "--preset", "gr2", "(p+q)^64*alpha")[0] == 0
    # a monomial spans nothing, whatever its exponents
    assert run_cli("reduce", "--preset", "gr2", "p^-500*q^700*alpha") == (
        0, "p^-500*q^700*alpha\n", "")


def test_powers_past_the_term_bound_fail_at_once():
    assert cli.MAX_INPUT_TERMS == 2**16
    start = time.perf_counter()
    code, out, err = run_cli("reduce", "--preset", "gr2", "(alpha+beta)^64")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err == "error: input power of 2 terms to the 64 exceeds the bound 65536\n"
    # the word cap holds first, so a long exponent is never raised to
    code, _, err = run_cli("reduce", "--preset", "gr2", "(alpha+beta)^" + "9" * 4000)
    assert code == 1 and "exceeds the cap 64" in err
    # at the bound: 65,536 free terms, which gr2's nilpotency sends to 0
    assert run_cli("reduce", "--preset", "gr2", "(alpha+beta)^16") == (0, "0\n", "")


def test_product_chains_past_the_term_bound_fail_at_once():
    chain = "*".join(["(alpha+beta)"] * 18)
    start = time.perf_counter()
    code, out, err = run_cli("reduce", "--preset", "gr2", chain)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err == "error: input product of 65536 by 2 terms exceeds the bound 65536\n"
    # one-word factors extend every word and add no terms
    assert run_cli("reduce", "--preset", "gr2", "(alpha+beta)^16*alpha*alpha")[0] == 0


def test_preset_file_relations_are_held_to_the_term_bound(tmp_path):
    text = ("generator x even\ngenerator y even\n"
            "relation " + "*".join(["(x+y)"] * 17) + "\n")
    with pytest.raises(DegreeCapExceeded, match="exceeds the bound 65536"):
        load_presentation(text)
    path = tmp_path / "wide.preset"
    path.write_text(text)
    code, out, err = run_cli("reduce", "--preset-file", str(path), "x")
    assert code == 1 and not out
    assert err == ("error: relation on line 3: input product of 65536 by 2 terms exceeds "
                   "the bound 65536\n")


def test_coefficient_products_and_quotients_add_their_spans():
    assert run_cli("reduce", "--preset", "gr2", "(p+q)^32*(1+q)^32*alpha")[0] == 0
    code, out, err = run_cli("reduce", "--preset", "gr2", "(p+q)^32*(1+q)^33*alpha")
    assert code == 1 and not out
    assert "q-degree span 65 exceeds the bound 64" in err
    code, _, err = run_cli("reduce", "--preset", "gr2", "alpha/(1 + p)^40/(1 + p)^25")
    assert code == 1 and "p-degree span 65" in err
    code, _, err = run_cli("reduce", "--preset", "gr2", "(p - q)^-65*alpha")
    assert code == 1 and "p-degree span 65" in err


def test_sums_and_unary_minus_runs_of_any_length_fold_in_a_loop():
    # terms meeting on one word add to a coefficient held to the span bound
    terms = " + ".join(f"p^{k}*alpha" for k in range(65))
    code, out, _ = run_cli("reduce", "--preset", "gr2", terms)
    assert code == 0 and out.count(" + ") == 64
    assert out.startswith("(p^64 + p^63 + ") and out.endswith(" + p + 1)*alpha\n")
    code, out, err = run_cli("reduce", "--preset", "gr2", terms + " + p^65*alpha")
    assert (code, out) == (1, "")
    assert err == "error: input coefficient of p-degree span 65 exceeds the bound 64\n"
    assert run_cli("reduce", "--preset", "gr2", " + ".join(["alpha"] * 2000)) == (
        0, "2000*alpha\n", "")
    assert run_cli("reduce", "--preset", "gr2", "--", "-" * 1000 + "alpha") == (
        0, "alpha\n", "")
    assert run_cli("reduce", "--preset", "gr2", "--", "-" * 999 + "p^2*alpha") == (
        0, "-p^2*alpha\n", "")


def test_sums_are_held_to_the_coefficient_bounds(tmp_path):
    # alpha/1 + ... + alpha/10499 once ended in a ValueError at print time
    # (its coefficient's integers pass Python's int/str limit), and the sum
    # of alpha/(1+k*p) in a denominator of any degree
    harmonic = " + ".join(f"alpha/{k}" for k in range(1, 10500))
    shifted = " + ".join(f"alpha/(1+{k}*p)" for k in range(1, 120))
    for text, bound in ((harmonic, "the bound 2^8192"), (shifted, "the bound 64")):
        start = time.perf_counter()
        with pytest.raises(DegreeCapExceeded) as exc:
            parse(text, preset("gr2"))
        assert time.perf_counter() - start < 1.0 and bound in str(exc.value)
        path = tmp_path / "sum.preset"
        path.write_text(f"generator alpha odd\nrelation {text}\n")
        code, out, err = run_cli("reduce", "--preset-file", str(path), "alpha")
        assert code == 1 and not out
        assert err.startswith("error: relation on line 2: input coefficient") and bound in err
    # terms on distinct words pay nothing, and sums within the bounds print
    assert run_cli("reduce", "--preset", "gr2", "(p+q)^40*alpha + (p+q)^40*beta")[0] == 0
    code, out, _ = run_cli("reduce", "--preset", "gr2",
                           " + ".join(f"alpha/{k}" for k in range(1, 3001)))
    assert code == 0 and out.endswith("*alpha\n")


def test_a_printed_coefficient_reads_back_only_within_the_input_bounds():
    # pins a known limitation, not a fix: a coefficient of several terms
    # reads back as a sum, which is held to the span bound, and a reduction
    # can print one past it (format_poly's docstring states the rule).  A
    # change that makes printed output read back changes this test on purpose
    printed = "(p^40 - p^-39)*alpha*beta"
    assert run_cli("reduce", "--preset", "gr2", "p^40*alpha*beta + p^-40*beta*alpha") == (
        0, printed + "\n", "")
    assert run_cli("reduce", "--preset", "gr2", printed) == (
        1, "", "error: input coefficient of p-degree span 79 exceeds the bound 64\n")
    assert run_cli("reduce", "--preset", "gr2", "(p^32 - p^-31)*alpha*beta")[0] == 0


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter prints integers of any length")
def test_a_coefficient_past_the_int_to_str_limit_is_an_error_line(tmp_path):
    # a 3000-digit literal is within the parser's bounds, but its fourth
    # power is past the interpreter's limit on printing an int
    path = tmp_path / "big.preset"
    path.write_text("generator alpha even\ngenerator beta even\n"
                    f"relation beta*alpha - {'9' * 3000}*alpha*beta\n")
    limit = sys.get_int_max_str_digits()
    message = (f"error: a coefficient in 'big' has an integer past the "
               f"{limit}-digit printing limit\n")
    for command in ("reduce", "check"):
        assert run_cli(command, "--preset-file", str(path), "beta*beta*alpha*alpha") == (
            1, "", message)
    code, out, _ = run_cli("reduce", "--preset-file", str(path), "beta*alpha")
    assert code == 0 and out == f"{'9' * 3000}*alpha*beta\n"


def test_an_expression_may_start_with_a_minus_sign():
    # argparse would read "-alpha" as an unknown option; the CLI moves the
    # expression behind "--" itself, wherever it stands among the options
    for argv in (("reduce", "--preset", "gr2", "-alpha"),
                 ("reduce", "-alpha", "--preset", "gr2"),
                 ("reduce", "--preset=gr2", "-alpha"),
                 ("reduce", "--preset", "gr2", "--", "-alpha")):
        assert run_cli(*argv) == (0, "-alpha\n", ""), argv
    assert run_cli("reduce", "--preset", "gr2", "-2*beta*alpha") == (0, "2*p*alpha*beta\n", "")
    assert run_cli("check", "--preset", "gr2", "-alpha*alpha") == (0, "zero: identity holds\n", "")
    code, out, _ = run_cli("check", "--preset", "gr2", "-alpha*beta")
    assert code == 1 and out.startswith("nonzero residual: ")
    # -h still asks for help, and two signed arguments are still refused
    code, out, _ = run_cli("reduce", "--preset", "gr2", "-h")
    assert code == 0 and out.startswith("usage: grasspq reduce")
    code, out, _ = run_cli("reduce", "--preset", "gr2", "-alpha", "-beta")
    assert code == 2 and not out


def test_a_missing_operand_at_the_end_is_reported_as_end_of_input(tmp_path):
    for argv in (("alpha +",), ("alpha*(beta +",), ("(",), ("--", "-")):
        code, out, err = run_cli("reduce", "--preset", "gr2", *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: unexpected end of input (at position {len(argv[-1])})\n"
    path = tmp_path / "bad.preset"
    path.write_text("generator alpha odd\nrelation alpha +\n")
    assert run_cli("reduce", "--preset-file", str(path), "alpha") == (
        2, "", "error: relation on line 2: unexpected end of input (at position 7)\n")


def test_parentheses_nest_at_most_max_nesting_deep(tmp_path):
    assert cli.MAX_NESTING == 64
    nested = "(" * 64 + "alpha" + ")" * 64
    assert run_cli("reduce", "--preset", "gr2", nested) == (0, "alpha\n", "")
    code, out, err = run_cli("reduce", "--preset", "gr2", "(" * 300 + "alpha" + ")" * 300)
    assert code == 2 and not out
    assert err == "error: parentheses nested deeper than 64 (at position 64)\n"
    code, _, err = run_cli("reduce", "--preset", "gr2", "--", "-(" * 65 + "alpha" + ")" * 65)
    assert code == 2 and "(at position 129)" in err
    # the same bounds hold for the relation lines of a preset file
    path = tmp_path / "deep.preset"
    head = "generator x even\ngenerator y even\n"
    for relation, code in ((nested.replace("alpha", "x*y - y*x"), 0),
                           ("-" * 1000 + "x*y + y*x", 0),
                           ("(" * 300 + "x*y" + ")" * 300, 2)):
        path.write_text(head + f"relation {relation}\n")
        assert run_cli("confluence", "--preset-file", str(path))[0] == code


def test_scalar_powers_are_one_exponentiation():
    for text, printed in (("1^999999999*alpha", "alpha"), ("(-1)^999999999*alpha", "-alpha"),
                          ("p^999999*alpha", "p^999999*alpha"),
                          ("(p*q^-1)^-999999*alpha", "p^-999999*q^999999*alpha"),
                          ("0^0*alpha + 0^5*beta", "alpha")):
        start = time.perf_counter()
        assert run_cli("reduce", "--preset", "gr2", text) == (0, printed + "\n", "")
        assert time.perf_counter() - start < 1.0, text


def test_integers_are_held_to_their_bounds_before_they_are_formed():
    long_literal = "7" * 5000
    for argv, message in (
            (("reduce", "--preset", "gr2", "2^99999"),
             "input coefficient integers up to 2^99999 exceed the bound 2^8192"),
            (("reduce", "--preset", "gr2", f"{long_literal}*alpha"),
             "integer literal of 5000 digits at position 0 exceeds the bound 4000"),
            (("reduce", "--preset", "gr2", f"alpha^{long_literal}"),
             "integer literal of 5000 digits at position 6 exceeds the bound 4000"),
            (("rmatrix", "--x", "2^20000"),
             "input coefficient integers up to 2^20000 exceed the bound 2^8192"),
            (("reduce", "--preset", "gr2", "(2^4096*alpha)*(2^4097*beta)"),
             "input coefficient integers up to 2^8193 exceed the bound 2^8192"),
            (("reduce", "--preset", "gr2", f"(p^{'9' * 1300})^{'9' * 1300}*alpha"),
             "input coefficient degree exceeds the bound 2^8192")):
        start = time.perf_counter()
        assert run_cli(*argv) == (1, "", f"error: {message}\n")
        assert time.perf_counter() - start < 1.0, argv
    # at the bounds the printed integers parse back
    text = f"2^8192*alpha - 3/2^4000*beta + (q^{'9' * 2400})^-1*gamma"
    code, out, _ = run_cli("reduce", "--preset", "gr2", text)
    assert code == 0
    assert parse_poly(out, preset("gr2")) == parse_poly(text, preset("gr2"))
    literal = "9" * 4000
    assert run_cli("reduce", "--preset", "gr2", literal) == (0, literal + "\n", "")


def test_closed_powers_at_the_word_cap_parse_back():
    # every coefficient the program prints at the cap is within the bounds
    pres = preset("gr11")
    for entry in matops.closed_power(64).entries:
        assert parse_poly(format_poly(entry, pres), pres) == entry


# -- presentation files ---------------------------------------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_builtin_preset_files_match_builders(name):
    # the shipped files are dump_presentation output, pinned byte for byte
    pres = preset(name)
    assert builtin_preset_text(name) == dump_presentation(pres)
    loaded = load_presentation(builtin_preset_text(name), label=name)
    assert loaded.max_word_length == pres.max_word_length
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


def test_the_preset_choice_is_one_required_group(tmp_path):
    # argparse refuses a missing or double choice before any file is read
    code, out, err = run_cli("reduce", "alpha")
    assert (code, out) == (2, "")
    assert "one of the arguments --preset --preset-file is required" in err
    assert "position" not in err
    path = tmp_path / "gr2.preset"
    path.write_text(cli.builtin_preset_text("gr2"))
    code, out, err = run_cli("reduce", "--preset", "gr11", "--preset-file", str(path), "alpha")
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    # an empty path is a file choice, and reading it fails
    with pytest.raises(OSError) as exc:
        cli.load_presentation_file("")
    assert run_cli("reduce", "--preset-file", "", "alpha") == (2, "", f"error: {exc.value}\n")


def test_loader_errors_name_their_line(tmp_path):
    head = "generator x even\ngenerator y even\n# a comment\n"
    path = tmp_path / "bad.preset"
    for relation, error, code, message in (
            ("x*y - )", ExprSyntaxError, 2, "unexpected token ')' (at position 6)"),
            (f"{'7' * 5000}*x*y", DegreeCapExceeded, 1,
             "integer literal of 5000 digits at position 0 exceeds the bound 4000")):
        text = head + f"relation {relation}\n"
        with pytest.raises(error):
            load_presentation(text)
        path.write_text(text)
        assert run_cli("reduce", "--preset-file", str(path), "x") == (
            code, "", f"error: relation on line 4: {message}\n")
    # a directive error is about its whole line: it names no position
    with pytest.raises(ExprSyntaxError) as exc:
        load_presentation("generator x even\ngenerator x odd\n")
    assert str(exc.value) == "duplicate generator 'x' on line 2"
    assert exc.value.position is None


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


@pytest.mark.parametrize("text,message", [
    # a second setting line would silently replace the first
    ("generator x even\norder deglex\norder invweight\nrelation x*x\n",
     r"repeated order on line 3 \(first on line 2\)"),
    ("generator x even\ngenerator y even\norder invweight\nnegweight x\nnegweight y\n"
     "relation x*y - y*x\n",
     r"repeated negweight on line 5 \(first on line 4\)"),
    ("generator x even\nmaxword 8\nmaxword 20\nrelation x*x\n",
     r"repeated maxword on line 3 \(first on line 2\)"),
    # deglex never reads the weights
    ("generator x even\ngenerator y even\nnegweight y\nrelation x*y - y*x\n",
     "negweight on line 3 needs order invweight"),
])
def test_loader_rejects_repeated_or_unread_settings(text, message):
    with pytest.raises(ExprSyntaxError, match=message):
        load_presentation(text)


# Preset texts assembled from directive keywords, names (declared,
# undeclared, reserved, malformed) and expression fragments (mostly valid,
# some unknown or malformed).  A text declares the first four names, then
# has at most two other directives and then relations, so that many texts
# get as far as orienting and completing their relations.
LOADER_NAMES = ["x", "y", "xi", "xinv", "z", "_a", "ß", "p", "2x", "x*y", "x-"]
LOADER_FRAGMENTS = ["x", "y", "xi", "x*y", "y*x", "x*x", "xi*xi", "p*x*y", "1", "x^2",
                    "(x + y)", "-x", "x/2", "q^-1*y*x", "(p - q^-1)*xi*x", "x*xinv",
                    "x^-1", "x/y", "(x", "z", "²"]


def loader_directive():
    name = st.sampled_from(LOADER_NAMES)
    declared = st.sampled_from(LOADER_NAMES[:4])
    return st.one_of(
        st.builds("inverse {} {}".format, declared, declared),
        st.lists(name, max_size=3).map(lambda names: " ".join(["inverse"] + names)),
        st.lists(declared, max_size=2).map(lambda names: " ".join(["negweight"] + names)),
        st.builds("generator {} {}".format, name, st.sampled_from(["even", "odd", "", "even odd"])),
        st.sampled_from(["deglex", "invweight", "", "lex"]).map("order {}".format),
        st.sampled_from(["2", "3", "64", "0", "x", "٣"]).map("maxword {}".format),
        st.sampled_from(["", "# comment", "frobnicate x", "relation", "generator"]),
    )


def loader_relation():
    fragment = st.sampled_from(LOADER_FRAGMENTS)
    return st.builds(
        lambda first, rest: "relation " + first + "".join(op + f for op, f in rest), fragment,
        st.lists(st.tuples(st.sampled_from([" + ", " - ", "*"]), fragment), max_size=3))


LOADER_TEXTS = st.builds(
    lambda *parts: "\n".join(line for part in parts for line in part),
    st.permutations(["generator x even", "generator y even", "generator xi odd",
                     "generator xinv even"]),
    st.lists(loader_directive(), max_size=2),
    st.lists(loader_relation(), max_size=4))


@settings(max_examples=40, deadline=None)
@given(LOADER_TEXTS)
def test_loader_totality_fuzz(text):
    try:
        load_presentation(text)
    except AlgebraError:  # ExprSyntaxError, UnknownGenerator and the like
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.preset")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _, _ = run_cli("reduce", "--preset-file", path, "1")
    assert code in (0, 1, 2)


def test_loader_rejections_exit_with_usage_code(tmp_path):
    path = tmp_path / "bad.preset"
    path.write_text("generator x even\norder foo\n")
    code, _, err = run_cli("reduce", "--preset-file", str(path), "x")
    assert code == 2
    assert "line 2" in err

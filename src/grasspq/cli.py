"""Command-line front end: parse noncommutative expressions, reduce them
in a chosen presentation, run identity suites, print R-matrices and
matrix powers.

Grammar (products are noncommutative, '*' mandatory between atoms):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := integer | 'p' | 'q' | generator | '(' expr ')'

Tokens: an integer is a run of the ASCII digits 0-9.  A name is a Unicode
letter or '_' (str.isalpha), then any Unicode letters, digits or '_'
(str.isalnum), so 'x²' is one name and '²' or '٣' alone is an error.
Whitespace is any Unicode whitespace (str.isspace) and only separates
tokens.  Any other character is an error at its position.

'^' binds tighter than '*' and '/', which bind tighter than '+' and '-';
unary minus sits just below '^' (so -p^2 means -(p^2)).  The parser
evaluates as it reads, in one pass: sums and products are folded left to
right in a loop and a run of unary minuses folds to one sign, so only
parentheses nest, at most MAX_NESTING deep.  Division requires a scalar
divisor.  Negative powers are allowed on scalars and on generators with
a declared inverse; a scalar power is one exponentiation.  Inputs are
bounded before anything is built: words by the presentation's length
cap, coefficients by MAX_COEFF_SPAN and MAX_INT_BITS, integer literals
by MAX_LITERAL_DIGITS, the free expansion of a product or power by
MAX_INPUT_TERMS.  A sum is held where its terms meet on one word: the
coefficient they add to obeys MAX_COEFF_SPAN and MAX_INT_BITS.
"""

from __future__ import annotations

import os
import re
import sys

from .coeff import ONE, P, Q, RatFunc
from .errors import (
    AlgebraError,
    DegreeCapExceeded,
    ExprSyntaxError,
    NegativePowerOfNonInvertible,
    UnknownGenerator,
)
from .freealg import (
    EVEN,
    ODD,
    MAX_WORD_LENGTH,
    Poly,
    Presentation,
    Word,
    build_presentation,
    format_poly,
    normal_form,
    overlap_check,
    preset,
    product_terms,
    PRESET_NAMES,
)
from .matops import check_power_cap, closed_power, generic_gr11, matrix_power, rhat
from .reporting import Report
from .verify import DEFAULT_SEED, SUITES

# How deep parentheses may nest: each level is a few parser stack frames.
MAX_NESTING = 64

# The widest p- and q-degree span a scalar product or power in an input may
# reach.  The closed matrix powers reach span 63 at the default word cap.
MAX_COEFF_SPAN = 64

# Integers stay well below Python's 4,300-digit int/str limit: a literal
# of more than MAX_LITERAL_DIGITS digits is refused before it is read, and
# a product, power or met sum is held to integers of about 2^MAX_INT_BITS
# (2,467 digits).  The literal bound is the wider, so a printed integer
# parses back as a literal, though not inside a coefficient of several
# terms, which is read as a sum.
MAX_LITERAL_DIGITS = 4000
MAX_INT_BITS = 8192

# The most free terms a product or power in an input may expand to, held
# before it is formed: (alpha+beta)^16 reaches it.
MAX_INPUT_TERMS = 2**16


# ---------------------------------------------------------------------------
# tokens, parsing and evaluation
# ---------------------------------------------------------------------------

# A token is a tuple (kind, value, position): kind is "int", "name" or
# "end", or for an operator or a parenthesis the character itself.
# Python's \w is exactly str.isalnum() or "_", and \s exactly str.isspace();
# a \w run that starts with a digit other than 0-9 is no name.  Every
# character is \s or \S, so consecutive matches cover the whole text but
# for trailing whitespace, and a running offset gives each token's position.
_TOKEN = re.compile(r"(\s*)(?:([-+*/^()])|([0-9]+)|(\w+)|(\S))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    for space, op, digits, word, other in _TOKEN.findall(text):
        pos += len(space)
        value = op or digits or word or other
        if op:
            kind = op
        elif digits:
            kind = "int"
        elif word and (word[0].isalpha() or word[0] == "_"):
            kind = "name"
        else:
            raise ExprSyntaxError(f"unexpected character {value[0]!r}", pos)
        tokens.append((kind, value, pos))
        pos += len(value)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that evaluates as it reads: each rule returns the
    term map of the text it read (word -> nonzero coefficient, a scalar c
    as {(): c}).  `tok` is the next token, and the end token is never
    consumed."""

    def __init__(self, tokens: list[tuple[str, str, int]], pres: Presentation):
        self.rest = iter(tokens)
        self.tok = next(self.rest)
        self.pres = pres
        self.depth = 0  # open parentheses

    def expr(self) -> dict[Word, RatFunc]:
        acc = self.term()
        while (op := self.tok[0]) == "+" or op == "-":
            self.tok = next(self.rest)
            for w, c in self.term().items():
                s = acc.get(w)
                if op == "-":
                    c = -c
                if s is None:
                    acc[w] = c
                    continue
                s += c
                if s:
                    _hold_coeffs({w: s})
                    acc[w] = s
                else:
                    del acc[w]
        return acc

    def term(self) -> dict[Word, RatFunc]:
        # each factor is held against the product so far; one word with
        # coefficient 1 (a generator) just extends every word
        acc = self.factor()
        while (op := self.tok[0]) == "*" or op == "/":
            self.tok = next(self.rest)
            right = self.factor()
            if op == "/":
                divisor = _scalar_of(right)
                if divisor is None:
                    raise NegativePowerOfNonInvertible("division only by scalar coefficients")
                _hold_coeffs(acc, right)
                inverse = divisor.inv()
                acc = {w: c * inverse for w, c in acc.items()}
            elif len(right) == 1 and ONE is next(iter(right.values())):
                (word,) = right
                _hold_length(_longest(acc) + len(word), self.pres)
                acc = {w + word: c for w, c in acc.items()}
            else:
                _hold_length(_longest(acc) + _longest(right), self.pres)
                _hold_coeffs(acc, right)
                if len(acc) * len(right) > MAX_INPUT_TERMS:
                    raise DegreeCapExceeded(f"input product of {len(acc)} by {len(right)} "
                                            f"terms exceeds the bound {MAX_INPUT_TERMS}")
                acc = product_terms(acc, right)
        return acc

    def factor(self) -> dict[Word, RatFunc]:
        # unary minus binds just below '^': -p^2 means -(p^2)
        negate = False
        while self.tok[0] == "-":
            negate = not negate
            self.tok = next(self.rest)
        terms = self.atom()
        if self.tok[0] == "^":
            self.tok = next(self.rest)
            sign = 1
            if self.tok[0] == "-":
                sign = -1
                self.tok = next(self.rest)
            kind, value, pos = self.tok
            if kind != "int":
                raise ExprSyntaxError("exponent must be an integer", pos)
            self.tok = next(self.rest)
            terms = _power(terms, sign * _literal(value, pos), self.pres)
        if negate:
            terms = {w: -c for w, c in terms.items()}
        return terms

    def atom(self) -> dict[Word, RatFunc]:
        kind, value, pos = self.tok
        if kind == "name":
            if value in ("p", "q"):
                terms = {(): P if value == "p" else Q}
            elif value in self.pres.parities:
                terms = {(value,): ONE}
            else:
                raise UnknownGenerator(
                    f"{value!r} is not a generator of {self.pres.label!r} "
                    f"(at position {pos})")
        elif kind == "int":
            n = _literal(value, pos)
            terms = {(): RatFunc.const(n)} if n else {}
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            self.tok = next(self.rest)
            terms = self.expr()
            if self.tok[0] != ")":
                raise ExprSyntaxError("expected ')'", self.tok[2])
            self.depth -= 1
        else:
            raise ExprSyntaxError("unexpected end of input" if kind == "end"
                                  else f"unexpected token {value!r}", pos)
        self.tok = next(self.rest)
        return terms


def parse(text: str, pres: Presentation) -> dict[Word, RatFunc]:
    """The term map of an expression over pres, evaluated but not reduced."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(tokenize(text), pres)
    terms = parser.expr()
    kind, value, pos = parser.tok
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
    return terms


def _literal(digits: str, pos: int) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise DegreeCapExceeded(f"integer literal of {len(digits)} digits at position "
                                f"{pos} exceeds the bound {MAX_LITERAL_DIGITS}")
    return int(digits)


def _scalar_of(terms: dict[Word, RatFunc]) -> RatFunc | None:
    """The coefficient if terms is a pure scalar (a multiple of the empty
    word), else None."""
    if not terms:
        return RatFunc.zero()
    if len(terms) == 1 and () in terms:
        return terms[()]
    return None


def _hold_length(length: int, pres: Presentation) -> None:
    """Input words obey the presentation's length cap, checked before a
    product or power is built, so an oversized power fails at once."""
    cap = pres.max_word_length
    if length > cap:
        raise DegreeCapExceeded(
            f"input word of length {length} in {pres.label!r} exceeds the cap {cap}")


def _longest(terms: dict[Word, RatFunc]) -> int:
    return max(map(len, terms), default=0)


def _hold_coeffs(*factors: dict[Word, RatFunc], times: int = 1) -> None:
    """A product or power is held to MAX_COEFF_SPAN and MAX_INT_BITS before
    it is formed, as _hold_length holds words, and so is the coefficient
    that the terms of a sum meeting on one word add to: the widest p- and
    q-degree spans and integer sizes (ceil(log2) of the largest integer) of
    each factor's coefficients add, times |n| for a power.  A coefficient
    num/den spans the exponent ranges of num and den, so a monomial spans
    nothing."""
    p_span = q_span = size = 0
    for terms in factors:
        widest_p = widest_q = 0
        top = 1  # the largest integer in the factor's coefficients
        for c in terms.values():
            num, den = c.num.terms, c.den.terms
            for part in (num, den):
                for v in part.values():
                    if type(v) is not int:
                        v = max(abs(v.numerator), v.denominator)
                    if not -top <= v <= top:
                        top = abs(v)
            if len(num) == 1 and len(den) == 1:
                continue
            c_p = c_q = 0
            for part in (num, den):
                if len(part) > 1:  # one term spans nothing
                    ps, qs = zip(*part)
                    c_p += max(ps) - min(ps)
                    c_q += max(qs) - min(qs)
            if c_p > widest_p:
                widest_p = c_p
            if c_q > widest_q:
                widest_q = c_q
        p_span += widest_p * times
        q_span += widest_q * times
        size += (top - 1).bit_length() * times
    # every parsed product, power and met sum passes here, so the common
    # case costs one comparison
    if p_span <= MAX_COEFF_SPAN and q_span <= MAX_COEFF_SPAN and size <= MAX_INT_BITS:
        return
    for name, span in (("p", p_span), ("q", q_span)):
        if span > MAX_COEFF_SPAN:
            raise DegreeCapExceeded(f"input coefficient of {name}-degree span {span} "
                                    f"exceeds the bound {MAX_COEFF_SPAN}")
    if size > MAX_INT_BITS:
        raise DegreeCapExceeded(f"input coefficient integers up to 2^{size} exceed "
                                f"the bound 2^{MAX_INT_BITS}")


def _power(base: dict[Word, RatFunc], n: int, pres: Presentation) -> dict[Word, RatFunc]:
    _hold_coeffs(base, times=abs(n))
    scalar = _scalar_of(base)
    if scalar is not None:
        if abs(n) > 1:  # the power multiplies the degree of every term
            degree = max(abs(e) for part in (scalar.num, scalar.den) for pair in part.terms
                         for e in pair)
            if (degree * n).bit_length() > MAX_INT_BITS:
                raise DegreeCapExceeded(f"input coefficient degree exceeds the bound "
                                        f"2^{MAX_INT_BITS}")
        value = scalar ** n
        return {(): value} if value else {}
    if n >= 0:
        _hold_length(_longest(base) * n, pres)  # so n is at most the word cap
        if len(base) ** n > MAX_INPUT_TERMS:
            raise DegreeCapExceeded(f"input power of {len(base)} terms to the {n} "
                                    f"exceeds the bound {MAX_INPUT_TERMS}")
        out = {(): ONE}
        for _ in range(n):
            out = product_terms(out, base)
        return out
    # a base that is one generator, with coefficient 1 and a declared inverse
    word = next(iter(base))
    if len(base) == 1 and len(word) == 1 and word[0] in pres.inverses and base[word] == ONE:
        _hold_length(-n, pres)
        return {(pres.inverses[word[0]],) * -n: ONE}
    raise NegativePowerOfNonInvertible(
        "negative power needs a scalar or a generator with a declared inverse")


def eval_expr(terms: dict[Word, RatFunc], pres: Presentation) -> Poly:
    """The normal form of a parsed term map."""
    return normal_form(Poly(terms), pres)


def parse_poly(text: str, pres: Presentation) -> Poly:
    return eval_expr(parse(text, pres), pres)


def parse_coeff(text: str) -> RatFunc:
    """Parse a pure-coefficient expression (no generators)."""
    scalar = _scalar_of(parse(text, Presentation("coeff", (), ())))
    if scalar is None:
        raise ExprSyntaxError("expected a pure coefficient", 0)
    return scalar


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------
#
# line-oriented format:
#   generator <name> <even|odd>
#   inverse <generator> <inverse-generator>     (optional: both products must reduce to 1)
#   order <deglex|invweight>                    (optional)
#   negweight <name> [<name> ...]               (optional: only under order invweight)
#   maxword <n>                                 (optional: word-length cap, default 64)
#   relation <expression>                       (meaning: expression = 0)
# '#' starts a comment.  Each of order, negweight and maxword may appear once.


def dump_presentation(pres: Presentation) -> str:
    lines = [f"# presentation: {pres.label}"]
    for g in pres.generators:
        lines.append(f"generator {g.name} {'odd' if g.parity else 'even'}")
    if pres.order != "deglex":
        lines.append(f"order {pres.order}")
    if pres.negative_weight:
        lines.append("negweight " + " ".join(sorted(pres.negative_weight)))
    for gen_name, inv_name in sorted(pres.inverses.items()):
        lines.append(f"inverse {gen_name} {inv_name}")
    if pres.max_word_length != MAX_WORD_LENGTH:
        lines.append(f"maxword {pres.max_word_length}")
    for rule in pres.rules:
        lines.append("relation " + format_poly(rule.as_relation(), pres))
    return "\n".join(lines) + "\n"


def _is_name(text: str) -> bool:
    """Whether text is exactly one name token of the expression grammar."""
    try:
        kind, value, _ = tokenize(text)[0]
    except ExprSyntaxError:
        return False
    return kind == "name" and value == text


def _require_declared(names: list[str], gens: list[tuple[str, int]], lineno: int) -> None:
    declared = {n for n, _ in gens}
    unknown = [n for n in names if n not in declared]
    if unknown:
        raise ExprSyntaxError(
            f"{unknown[0]!r} on line {lineno} is not a generator declared above it", 0)


def load_presentation(text: str, label: str = "loaded") -> Presentation:
    gens: list[tuple[str, int]] = []
    inverses: dict[str, str] = {}
    inverse_lines: dict[str, int] = {}
    setting_lines: dict[str, int] = {}  # order, negweight, maxword -> line
    order = "deglex"
    negweight: list[str] = []
    max_word_length = MAX_WORD_LENGTH
    relation_texts: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("order", "negweight", "maxword"):
            if head in setting_lines:
                raise ExprSyntaxError(f"repeated {head} on line {lineno} "
                                      f"(first on line {setting_lines[head]})", 0)
            setting_lines[head] = lineno
        if head == "generator":
            name, _, parity = rest.partition(" ")
            parity = parity.strip()
            if parity not in ("even", "odd") or not _is_name(name):
                raise ExprSyntaxError(f"bad generator line {lineno}", 0)
            if name in ("p", "q"):
                raise ExprSyntaxError(
                    f"generator may not shadow a parameter (line {lineno})", 0)
            if any(name == n for n, _ in gens):
                raise ExprSyntaxError(f"duplicate generator {name!r} on line {lineno}", 0)
            gens.append((name, ODD if parity == "odd" else EVEN))
        elif head == "inverse":
            names = rest.split()
            if len(names) != 2:
                raise ExprSyntaxError(f"bad inverse line {lineno}", 0)
            _require_declared(names, gens, lineno)
            if names[0] in inverses:
                raise ExprSyntaxError(
                    f"repeated inverse for {names[0]!r} on line {lineno}", 0)
            inverses[names[0]] = names[1]
            inverse_lines[names[0]] = lineno
        elif head == "order":
            if rest not in ("deglex", "invweight"):
                raise ExprSyntaxError(f"unknown order {rest!r} on line {lineno}", 0)
            order = rest
        elif head == "negweight":
            negweight = rest.split()
            _require_declared(negweight, gens, lineno)
        elif head == "maxword":
            if not (rest.isascii() and rest.isdecimal()) or int(rest) < 1:
                raise ExprSyntaxError(f"bad maxword line {lineno}: need a positive integer", 0)
            max_word_length = int(rest)
        elif head == "relation":
            relation_texts.append(rest)
        else:
            raise ExprSyntaxError(f"unknown directive {head!r} on line {lineno}", 0)
    if "negweight" in setting_lines and order != "invweight":
        raise ExprSyntaxError(f"negweight on line {setting_lines['negweight']} "
                              f"needs order invweight", 0)
    skeleton = Presentation(label, gens, (), inverses=inverses,
                            max_word_length=max_word_length)
    relations = [Poly(parse(t, skeleton)) for t in relation_texts]
    pres = build_presentation(label, gens, relations, order=order,
                              negative_weight=negweight, inverses=inverses,
                              max_word_length=max_word_length)
    for name, inv in inverses.items():
        for word in ((name, inv), (inv, name)):
            if not normal_form(Poly.word(*word) - Poly.unit(), pres).is_zero:
                raise ExprSyntaxError(
                    f"inverse {name} {inv} on line {inverse_lines[name]}: "
                    f"{'*'.join(word)} does not reduce to 1", 0)
    return pres


def load_presentation_file(path: str | os.PathLike) -> Presentation:
    from pathlib import Path

    path = Path(path)
    return load_presentation(path.read_text(encoding="utf-8"), label=path.stem)


def builtin_preset_text(name: str) -> str:
    from importlib import resources

    return resources.files("grasspq").joinpath(f"presets/{name}.preset").read_text()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _select_preset(args) -> Presentation:
    if getattr(args, "preset_file", None):
        return load_presentation_file(args.preset_file)
    if getattr(args, "preset", None) is None:
        raise ExprSyntaxError("one of --preset or --preset-file is required", 0)
    return preset(args.preset)


def _cmd_reduce(args) -> int:
    pres = _select_preset(args)
    poly = parse_poly(args.expression, pres)
    print(format_poly(poly, pres))
    return 0


def _cmd_check(args) -> int:
    pres = _select_preset(args)
    poly = parse_poly(args.expression, pres)
    if poly.is_zero:
        print("zero: identity holds")
        return 0
    print(f"nonzero residual: {format_poly(poly, pres)}")
    return 1


def _cmd_rmatrix(args) -> int:
    cells = [[str(c) for c in row] for row in rhat(parse_coeff(args.x))]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("[ " + "  ".join(c.ljust(width) for c in row) + " ]")
    return 0


def _cmd_power(args) -> int:
    n = args.n
    if n < 1:
        print("power needs --n >= 1", file=sys.stderr)
        return 2
    pres = preset("gr11")
    if args.closed_form:
        mat = closed_power(n)
        print(f"exponent {n}; effective parameters "
              f"(p^{n}, q^{n}) = ({P**n}, {Q**n})")
    else:
        check_power_cap(n, pres)
        mat = matrix_power(generic_gr11(pres), n)
        print(f"exponent {n} (iterated product)")
    for name, poly in zip("ABCD", mat.entries):
        print(f"  {name} = {format_poly(poly, pres)}")
    return 0


def _emit_report(report: Report, as_json: bool) -> int:
    print(report.to_json() if as_json else report.to_text())
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        print("verify needs --max-n >= 1", file=sys.stderr)
        return 2
    report = SUITES[args.suite](args.max_n, args.seed)
    return _emit_report(report, args.json)


def _cmd_confluence(args) -> int:
    pres = _select_preset(args)
    return _emit_report(overlap_check(pres), args.json)


def build_arg_parser():
    """The `grasspq` command's argparse.ArgumentParser."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="grasspq",
        description="Exact rewrite-system algebra for the deformed Grassmann "
                    "matrix group and supergroup.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_preset_opts(sp):
        sp.add_argument("--preset", choices=PRESET_NAMES, default=None)
        sp.add_argument("--preset-file", default=None,
                        help="load a presentation from a file instead of --preset")

    sp = sub.add_parser("reduce", help="normal form of an expression")
    add_preset_opts(sp)
    sp.add_argument("expression")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("check", help="does the expression reduce to zero?")
    add_preset_opts(sp)
    sp.add_argument("expression")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("rmatrix", help="print the 4x4 R-matrix at a value of x")
    sp.add_argument("--x", default="1", help="coefficient expression, e.g. -1 or p*q")
    sp.set_defaults(func=_cmd_rmatrix)

    sp = sub.add_parser("power", help="entries of the generic supermatrix power")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--closed-form", action="store_true")
    sp.set_defaults(func=_cmd_power)

    sp = sub.add_parser("verify", help="run an identity suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--max-n", type=int, default=3, dest="max_n")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("confluence", help="overlap-check a presentation")
    add_preset_opts(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_confluence)

    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes an expression that starts with a minus sign for an
    # unknown option unless it follows "--", so it is moved there
    signed = [a for a in argv if a[:1] == "-" and a[1:2] not in ("", "-") and a != "-h"]
    if argv[:1] in (["reduce"], ["check"]) and len(signed) == 1 and "--" not in argv:
        argv = [a for a in argv if a != signed[0]] + ["--", signed[0]]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return args.func(args)
    except (ExprSyntaxError, UnknownGenerator, NegativePowerOfNonInvertible,
            OSError, UnicodeDecodeError) as exc:  # the last two: an unreadable --preset-file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

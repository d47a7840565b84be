"""Command-line front end: parse noncommutative expressions, reduce them
in a chosen presentation, run identity suites, print R-matrices and
matrix powers.

Grammar (products are noncommutative, '*' mandatory between atoms):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := integer | 'p' | 'q' | generator | '(' expr ')'

Integers are runs of the ASCII digits 0-9.

'^' binds tighter than '*' and '/', which bind tighter than '+' and '-';
unary minus sits just below '^' (so -p^2 means -(p^2)).  Division
requires a scalar divisor.  Negative powers are allowed on scalars and
on generators with a declared inverse.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .coeff import RatFunc
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
    Generator,
    Poly,
    Presentation,
    ReductionLimits,
    build_presentation,
    format_poly,
    normal_form,
    overlap_check,
    preset,
    PRESET_NAMES,
)
from .matops import check_power_cap, closed_power, generic_gr11, matrix_power, rhat
from .reporting import Report
from .verify import DEFAULT_SEED, SUITES

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")
_DIGITS = set("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # int | name | op | end
    value: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Param:
    name: str  # p or q


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Num | Param | Gen | BinOp | Power | Neg


class _Parser:
    def __init__(self, tokens: list[Token], pres: Presentation):
        self.tokens = tokens
        self.pos = 0
        self.pres = pres

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.value!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.advance().value
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().value in "*/":
            op = self.advance().value
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        # unary minus binds just below '^': -p^2 means -(p^2)
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        if self.peek().kind == "op" and self.peek().value == "^":
            self.advance()
            node = Power(node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            sign = -1
            self.advance()
            tok = self.peek()
        if tok.kind != "int":
            raise ExprSyntaxError("exponent must be an integer", tok.pos)
        self.advance()
        return sign * int(tok.value)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Num(int(tok.value))
        if tok.kind == "name":
            self.advance()
            if tok.value in ("p", "q"):
                return Param(tok.value)
            if tok.value not in self.pres.by_name:
                raise UnknownGenerator(
                    f"{tok.value!r} is not a generator of {self.pres.label!r} "
                    f"(at position {tok.pos})")
            return Gen(tok.value)
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.value!r}", tok.pos)


def parse(text: str, pres: Presentation) -> Expr:
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(tokenize(text), pres).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _scalar_of(poly: Poly) -> RatFunc | None:
    """The coefficient if poly is a pure scalar (multiple of the empty
    word), else None."""
    if poly.is_zero:
        return RatFunc.zero()
    if set(poly.terms) == {()}:
        return poly.terms[()]
    return None


def _hold_length(length: int, pres: Presentation) -> None:
    """Input words obey the presentation's length cap, checked before a
    product or power is built, so an oversized power fails at once."""
    cap = pres.limits.max_word_length
    if length > cap:
        raise DegreeCapExceeded(
            f"input word of length {length} in {pres.label!r} exceeds the cap {cap}")


def _eval(node: Expr, pres: Presentation) -> Poly:
    if isinstance(node, Num):
        return Poly.unit(RatFunc.const(node.value))
    if isinstance(node, Param):
        return Poly.unit(RatFunc.p() if node.name == "p" else RatFunc.q())
    if isinstance(node, Gen):
        return Poly.gen(node.name)
    if isinstance(node, Neg):
        return -_eval(node.operand, pres)
    if isinstance(node, BinOp):
        left = _eval(node.left, pres)
        right = _eval(node.right, pres)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            _hold_length(left.max_word_length() + right.max_word_length(), pres)
            return left * right
        divisor = _scalar_of(right)
        if divisor is None:
            raise NegativePowerOfNonInvertible(
                "division only by scalar coefficients")
        return left.scale(divisor.inv())
    if isinstance(node, Power):
        base = _eval(node.base, pres)
        n = node.exponent
        if n >= 0:
            _hold_length(base.max_word_length() * n, pres)
            out = Poly.unit()
            for _ in range(n):
                out = out * base
            return out
        scalar = _scalar_of(base)
        if scalar is not None:
            return Poly.unit(scalar ** n)
        if isinstance(node.base, Gen):
            inv_name = pres.inverses.get(node.base.name)
            if inv_name is not None:
                _hold_length(-n, pres)
                out = Poly.unit()
                for _ in range(-n):
                    out = out * Poly.gen(inv_name)
                return out
        raise NegativePowerOfNonInvertible(
            "negative power needs a scalar or a generator with a declared inverse")
    raise TypeError(f"unknown node {node!r}")


def eval_expr(node: Expr, pres: Presentation) -> Poly:
    """Interpret the tree and return the normal form."""
    return normal_form(_eval(node, pres), pres)


def parse_poly(text: str, pres: Presentation) -> Poly:
    return eval_expr(parse(text, pres), pres)


def parse_coeff(text: str) -> RatFunc:
    """Parse a pure-coefficient expression (no generators)."""
    scratch = Presentation("coeff", (), ())
    poly = _eval(parse(text, scratch), scratch)
    scalar = _scalar_of(poly)
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
#   negweight <name> [<name> ...]               (optional)
#   maxword <n>                                 (optional: word-length cap, default 64)
#   relation <expression>                       (meaning: expression = 0)
# '#' starts a comment.


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
    if pres.limits.max_word_length != ReductionLimits().max_word_length:
        lines.append(f"maxword {pres.limits.max_word_length}")
    for rule in pres.rules:
        lines.append("relation " + format_poly(rule.as_relation(), pres))
    return "\n".join(lines) + "\n"


def _is_name(text: str) -> bool:
    """Whether text is exactly one name token of the expression grammar."""
    try:
        tokens = tokenize(text)
    except ExprSyntaxError:
        return False
    return tokens[0].kind == "name" and tokens[0].value == text


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
    order = "deglex"
    negweight: list[str] = []
    limits = ReductionLimits()
    relation_texts: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
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
            limits = ReductionLimits(max_word_length=int(rest))
        elif head == "relation":
            relation_texts.append(rest)
        else:
            raise ExprSyntaxError(f"unknown directive {head!r} on line {lineno}", 0)
    skeleton = Presentation(label, tuple(
        Generator(n, p, i) for i, (n, p) in enumerate(gens)), (),
        inverses=inverses, limits=limits)
    relations = [_eval(parse(t, skeleton), skeleton) for t in relation_texts]
    pres = build_presentation(label, gens, relations, order=order,
                              negative_weight=negweight, inverses=inverses,
                              limits=limits)
    for name, inv in inverses.items():
        for word in ((name, inv), (inv, name)):
            if not normal_form(Poly.word(*word) - Poly.unit(), pres).is_zero:
                raise ExprSyntaxError(
                    f"inverse {name} {inv} on line {inverse_lines[name]}: "
                    f"{'*'.join(word)} does not reduce to 1", 0)
    return pres


def load_presentation_file(path: str | Path) -> Presentation:
    path = Path(path)
    return load_presentation(path.read_text(encoding="utf-8"), label=path.stem)


def builtin_preset_text(name: str) -> str:
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
    x = parse_coeff(args.x)
    print(rhat(x).pretty())
    return 0


def _cmd_power(args) -> int:
    n = args.n
    if n < 1:
        print("power needs --n >= 1", file=sys.stderr)
        return 2
    pres = preset("gr11")
    if args.closed_form:
        cp = closed_power(n)
        entries = {"A": cp.A, "B": cp.B, "C": cp.C, "D": cp.D}
        print(f"exponent {n}; effective parameters "
              f"(p^{n}, q^{n}) = ({cp.parameters[0]}, {cp.parameters[1]})")
    else:
        check_power_cap(n, pres)
        mat = matrix_power(generic_gr11(pres), n)
        entries = {"A": mat[0, 0], "B": mat[0, 1], "C": mat[1, 0], "D": mat[1, 1]}
        print(f"exponent {n} (iterated product)")
    for name, poly in entries.items():
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


def build_arg_parser() -> argparse.ArgumentParser:
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
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return args.func(args)
    except (ExprSyntaxError, UnknownGenerator, NegativePowerOfNonInvertible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # unreadable --preset-file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Matrices over a presented algebra: products, tensor embeddings, the
numeric R-matrix and RTT residuals, dual determinants and inverses, the
noncentral superdeterminant, and closed-form matrix powers."""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .coeff import ONE, P, Q, RatFunc, pair_evaluator, qnum
from .errors import (
    DegreeCapExceeded,
    GeneratorMismatch,
    NotHomogeneous,
    NotLocalized,
    ShapeMismatch,
    SingularEvaluation,
)
from .freealg import (
    ENTRY_LAYOUTS,
    Poly,
    Presentation,
    Word,
    add_scaled,
    family,
    format_poly,
    normal_form,
    preset,
    product_terms,
    residual_check,
)
from .reporting import Report


class AlgMatrix:
    """Row-major matrix with Poly entries over a fixed presentation.
    Entries are kept in normal form."""

    __slots__ = ("rows", "cols", "entries", "presentation")

    def __init__(self, rows: int, cols: int, entries: Sequence[Poly],
                 presentation: Presentation, *, reduce: bool = True):
        if rows * cols != len(entries):
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries")
        if reduce:
            entries = [normal_form(e, presentation) for e in entries]
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.presentation = presentation

    def __getitem__(self, idx: tuple[int, int]) -> Poly:
        i, j = idx
        return self.entries[i * self.cols + j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            (a - b).is_zero for a, b in zip(self.entries, other.entries))

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __sub__(self, other: AlgMatrix) -> AlgMatrix:
        self._compatible(other)
        return AlgMatrix(self.rows, self.cols,
                         [a - b for a, b in zip(self.entries, other.entries)],
                         self.presentation)

    def __add__(self, other: AlgMatrix) -> AlgMatrix:
        self._compatible(other)
        return AlgMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self.entries, other.entries)],
                         self.presentation)

    def _compatible(self, other: AlgMatrix) -> None:
        a, b = self.presentation, other.presentation
        if a is not b:
            where = (f"two presentations labelled {a.label!r}" if a.label == b.label
                     else f"{a.label!r} and {b.label!r}")
            raise GeneratorMismatch(f"matrices live over {where}")

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(format_poly(self[i, j], self.presentation)
                      for j in range(self.cols))
            for i in range(self.rows))
        return f"AlgMatrix[{body}]"


def mat_mul(a: AlgMatrix, b: AlgMatrix) -> AlgMatrix:
    """Entrywise noncommutative product, factors kept left-to-right."""
    a._compatible(b)
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    entries = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Poly.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            entries.append(acc)
    return AlgMatrix(a.rows, b.cols, entries, a.presentation)


def identity_matrix(pres: Presentation, n: int) -> AlgMatrix:
    entries = [Poly.unit() if i == j else Poly.zero()
               for i in range(n) for j in range(n)]
    return AlgMatrix(n, n, entries, pres, reduce=False)


def matrix_power(a: AlgMatrix, n: int) -> AlgMatrix:
    """a^n by repeated squaring; powers of one matrix commute, so the
    factors may be combined in any order."""
    if n < 1:
        raise ValueError("exponent must be positive")
    out = None
    while True:
        if n & 1:
            out = a if out is None else mat_mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mat_mul(a, a)


def generic_matrix(kind: str, pres: Presentation) -> AlgMatrix:
    """The 2x2 matrix [[A, B], [C, D]] of the generators that
    ENTRY_LAYOUTS[kind] names."""
    return AlgMatrix(2, 2, [Poly.gen(name) for name, _ in ENTRY_LAYOUTS[kind]], pres)


def generic_gr2(pres: Presentation) -> AlgMatrix:
    return generic_matrix("all_odd", pres)


def generic_gr11(pres: Presentation) -> AlgMatrix:
    return generic_matrix("diag_odd", pres)


def generic_gr11_localized(pres: Presentation) -> AlgMatrix:
    return generic_matrix("diag_odd", pres)


# ---------------------------------------------------------------------------
# tensor embeddings (4x4 index (ij),(kl) labeling, row = 2(i-1)+(j-1))
# ---------------------------------------------------------------------------


def _check_2x2(a: AlgMatrix) -> None:
    if (a.rows, a.cols) != (2, 2):
        raise ShapeMismatch("tensor embeddings take a 2x2 matrix")


def tensor_ungraded(a: AlgMatrix, slot: int) -> AlgMatrix:
    """A (x) I (slot 1) or I (x) A (slot 2) with no sign factors."""
    _check_2x2(a)
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    entries = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if slot == 1:
                        e = a[i, k] if j == l else Poly.zero()
                    else:
                        e = a[j, l] if i == k else Poly.zero()
                    entries.append(e)
    return AlgMatrix(4, 4, entries, a.presentation, reduce=False)


def _slot2_sign(i: int, j: int, l: int) -> int:
    """The sign of the (ij),(il) entry of the graded slot-2 embedding:
    -(-1)^(par(i)*(par(j)+par(l))).  Tensor leg 1 is even and leg 2 odd,
    so a 0-based index is its own parity."""
    return 1 if i * (j + l) % 2 else -1


def tensor_graded(a: AlgMatrix, slot: int) -> AlgMatrix:
    """Graded tensor embedding of a dual supermatrix: the ungraded one with
    sign factors.

    Slot 1 carries no surviving signs.  Slot 2 multiplies the (ij),(kl)
    entry by `_slot2_sign(i, j, l)`.  Its overall minus is fixed by the
    explicit 4x4 form of the graded embedding; the slot-2 factor appears
    once on each side of the RTT relation, so the minus flips the sign of
    the whole residual and never decides whether it vanishes.
    """
    ungraded = tensor_ungraded(a, slot)
    if slot == 1:
        return ungraded
    indices = itertools.product(range(2), repeat=4)  # i, j, k, l in entry order
    entries = [e if _slot2_sign(i, j, l) > 0 else -e
               for (i, j, _, l), e in zip(indices, ungraded.entries)]
    return AlgMatrix(4, 4, entries, a.presentation, reduce=False)


# ---------------------------------------------------------------------------
# the numeric R-matrix
# ---------------------------------------------------------------------------


def rhat(x: RatFunc) -> tuple[tuple[RatFunc, ...], ...]:
    """The rows of the 4x4 deformation R-matrix in the (ij),(kl) labeling:
    (p + q^-1) on the diagonal sectors (11),(11) and (22),(22),
    2x(pq^-1)^(i-1) on the mixed diagonal (ij),(ij) with i != j, and
    -+(p - q^-1) at (12),(21) and (21),(12)."""
    zero, two_x = RatFunc.zero(), RatFunc.const(2) * x
    outer, inner = P + Q**-1, P - Q**-1
    return ((outer, zero, zero, zero),
            (zero, two_x, -inner, zero),
            (zero, inner, two_x * (P * Q**-1), zero),
            (zero, zero, zero, outer))


def rtt_residual(x: RatFunc, a: AlgMatrix, graded: bool) -> AlgMatrix:
    """R(x)*A1*A2 + A2*A1*R(x) with the tensor legs built graded or
    ungraded; the zero matrix iff the sign-twisted RTT relation holds.

    (A (x) 1)(1 (x) A) = A (x) A, so no matrix product is formed: with s
    the slot-2 sign (1 when ungraded),
        (A1*A2)[(ij),(kl)] = s(k, j, l) a_ik a_jl,
        (A2*A1)[(ij),(kl)] = s(i, j, l) a_jl a_ik,
    and each residual entry combines a few of these products with the
    sparse rows of R(x) and is reduced once."""
    _check_2x2(a)
    sign = _slot2_sign if graded else lambda i, j, l: 1
    # prods[(ij), (kl)] = a_ik a_jl, so a_jl a_ik = prods[(ji), (lk)]
    prods = {(2 * i + j, 2 * k + l): product_terms(a[i, k].terms, a[j, l].terms)
             for i, j, k, l in itertools.product(range(2), repeat=4)}
    r = rhat(x)
    pairs = tuple(itertools.product(range(2), repeat=2))
    entries = []
    for i, j, k, l in itertools.product(range(2), repeat=4):
        row, col = 2 * i + j, 2 * k + l
        # R[row, (mn)] (A1*A2)[(mn), col], then (A2*A1)[row, (mn)] R[(mn), col]
        left = ((r[row][2 * m + n], sign(k, n, l), prods[2 * m + n, col])
                for m, n in pairs)
        right = ((r[2 * m + n][col], sign(i, j, n), prods[2 * j + i, 2 * n + m])
                 for m, n in pairs)
        acc: dict[Word, RatFunc] = {}
        for c, s, terms in itertools.chain(left, right):
            if c:
                add_scaled(acc, terms, c if s > 0 else -c)
        entries.append(Poly(acc))
    return AlgMatrix(4, 4, entries, a.presentation)


# ---------------------------------------------------------------------------
# span comparison over the degree-2 word basis
# ---------------------------------------------------------------------------


def _echelon(rows, basis=()):
    """Row-reduce sparse rows (word -> nonzero RatFunc) onto a copy of the
    echelon basis `basis` (pivot word -> row monic there, with no smaller
    word) and return the grown copy; its length is the exact rank."""
    pivots = dict(basis)
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                c = row[col]
                pivots[col] = {w: v / c for w, v in row.items()}
                break
            f = row[col]
            for w, v in pivot.items():
                fv = f * v
                s = row[w] - fv if w in row else -fv
                if s:
                    row[w] = s
                else:
                    row.pop(w, None)
    return pivots


def _primitive(row: dict) -> dict:
    """The nonzero entries of an integer row, divided by their gcd."""
    g = gcd(*row.values()) or 1
    return {w: v // g for w, v in row.items() if v}


def _integer_rows(rows, point):
    """The rows at (p0, q0), each scaled by the lcm of its denominators to a
    primitive integer row (word -> nonzero int) with the same span over Q.
    Raises SingularEvaluation where a denominator vanishes."""
    value = pair_evaluator(*point)
    out = []
    for row in rows:
        pairs = [value(c) for c in row.values()]
        scale = lcm(*(d for _, d in pairs))
        out.append(_primitive({w: n * (scale // d) for w, (n, d) in zip(row, pairs)}))
    return out


def _integer_echelon(rows, basis=()):
    """`_echelon` over primitive integer rows, fraction-free: a row meeting
    a pivot row at its leading word becomes a*row - f*pivot, a and f their
    entries there, made primitive.  The length is the rank over Q."""
    pivots = dict(basis)
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, f = pivot[col], row[col]
            row = _primitive({w: a * row.get(w, 0) - f * pivot.get(w, 0)
                              for w in row.keys() | pivot.keys()})
    return pivots


def _admissible_points(rng: random.Random):
    """Endless random points (p0, q0) with p0 q0 != +-1 and p0 != q0 (p = q
    is the family's one-parameter point)."""
    while True:
        p0 = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        q0 = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        if p0 * q0 not in (1, -1) and p0 != q0:
            yield p0, q0


MAX_POINTS = 64  # entries of a span's per-point map; a fill that finds it full empties it


class Span:
    """The span of a set of degree-2 polynomials: its rows over the word
    basis (word -> nonzero RatFunc), their exact echelon, and, for each
    sample point asked for, its integer rows and echelon there (`at`).  An
    entry depends on its point alone and a reader keeps the entry it got,
    so a racing fill or emptying changes no result and threads may share a
    span."""

    __slots__ = ("rows", "echelon", "_points")

    def __init__(self, polys: Sequence[Poly]):
        for poly in polys:
            if not (poly.is_zero or poly.is_homogeneous(2)):
                raise NotHomogeneous(f"{poly!r} is not homogeneous of degree 2")
        self.rows = [dict(poly.terms) for poly in polys if not poly.is_zero]
        self.echelon = _echelon(self.rows)
        self._points: dict = {}

    def at(self, point):
        """The primitive integer rows at (p0, q0) and their echelon, or ()
        if a denominator vanishes there."""
        entry = self._points.get(point)
        if entry is None:
            try:
                rows = _integer_rows(self.rows, point)
                entry = rows, _integer_echelon(rows)
            except SingularEvaluation:
                entry = ()
            if len(self._points) >= MAX_POINTS:
                self._points.clear()
            self._points[point] = entry
        return entry


def span_equal(s1: Span | Sequence[Poly], s2: Span | Sequence[Poly], *,
               seed: int = 0, label: str = "span") -> Report:
    """Do two sets of degree-2 polynomials span the same subspace over the
    coefficient field?  Both memberships are read off three exact ranks:
    of the first set, of the second, and of the second reduced onto the
    first's echelon (their sum).  The same ranks at five random admissible
    rational points, taken in integers, cross-check them in another field;
    a point where either set has a vanishing denominator is passed over.
    Each set is a `Span` or a sequence, wrapped in a fresh one; a `Span`
    passed again answers its echelons from what it already holds."""
    report = Report(suite=f"span:{label}", seed=seed)
    one, two = (s if isinstance(s, Span) else Span(s) for s in (s1, s2))
    r1, r2 = len(one.echelon), len(two.echelon)
    rb = len(_echelon(two.rows, one.echelon))
    # dim(S1 + S2) equals dim S1 iff S2 lies in S1, and dim S2 iff S1 lies in S2
    report.expect("membership_second_in_first", rb == r1,
                  "every element of the second set lies in the first span")
    report.expect("membership_first_in_second", rb == r2,
                  "every element of the first set lies in the second span")
    ok_rank = r1 == r2
    points, checked = _admissible_points(random.Random(seed)), 0
    while ok_rank and checked < 5:
        point = next(points)
        at1, at2 = one.at(point), two.at(point)
        if not (at1 and at2):
            continue
        (_, e1), (rows2, e2) = at1, at2
        ranks = len(e1), len(e2), len(_integer_echelon(rows2, e1))
        ok_rank, checked = ranks == (r1, r1, r1), checked + 1
    report.expect("numeric_rank_crosscheck", ok_rank,
                  "ranks agree at random admissible (p, q) values")
    return report.finish()


def quadratic_pairing(rels: Sequence[Poly], dual: Sequence[Poly], letters: Mapping[str, str],
                      parities: Mapping[str, int]) -> str | None:
    """Pair two sets of degree-2 polynomials by <x y, X Y> = (-1)^|x| when
    X = letters[x] and Y = letters[y], and 0 otherwise, with |x| from
    `parities`.  `dual` spans the quadratic dual of `rels`, the
    annihilator of their span (Manin 1988), iff no pair (relation, dual
    relation) pairs to nonzero and the exact ranks of the two sets add to
    the number of words, len(letters)^2.  Returns None then, and
    otherwise the count of nonzero pairs and the two ranks."""
    one, two = Span(rels), Span(dual)
    nonzero = 0
    for row in one.rows:
        signed = {(letters[x], letters[y]): -c if parities[x] else c for (x, y), c in row.items()}
        for other in two.rows:
            nonzero += bool(sum((c * other[w] for w, c in signed.items() if w in other),
                                RatFunc.zero()))
    rank, dual_rank = len(one.echelon), len(two.echelon)
    if nonzero or rank + dual_rank != len(letters) ** 2:
        return f"{nonzero} nonzero pairings, ranks {rank} + {dual_rank}"
    return None


# ---------------------------------------------------------------------------
# dual determinants and inverses
# ---------------------------------------------------------------------------


def delta_left(a: AlgMatrix) -> Poly:
    """beta*gamma + q^-1 delta*alpha, in normal form."""
    return normal_form(a[0, 1] * a[1, 0] + (a[1, 1] * a[0, 0]).scale(Q**-1),
                       a.presentation)


def delta_right(a: AlgMatrix) -> Poly:
    """gamma*beta - p^-1 alpha*delta, in normal form."""
    return normal_form(a[1, 0] * a[0, 1] - (a[0, 0] * a[1, 1]).scale(P**-1),
                       a.presentation)


def left_inverse(a: AlgMatrix) -> AlgMatrix:
    """[[q^-1 delta, beta], [-p q^-1 gamma, -p alpha]]."""
    return AlgMatrix(2, 2, [
        a[1, 1].scale(Q**-1), a[0, 1],
        a[1, 0].scale(-(P * Q**-1)), a[0, 0].scale(-P),
    ], a.presentation)


def right_inverse(a: AlgMatrix) -> AlgMatrix:
    """[[-q delta, beta], [-q p^-1 gamma, p^-1 alpha]]."""
    return AlgMatrix(2, 2, [
        a[1, 1].scale(-Q), a[0, 1],
        a[1, 0].scale(-(Q * P**-1)), a[0, 0].scale(P**-1),
    ], a.presentation)


def _require_localized(pres: Presentation):
    if "b" not in pres.inverses or "c" not in pres.inverses:
        raise NotLocalized(
            f"presentation {pres.label!r} has no declared inverses for b, c")
    return pres.inverses["b"], pres.inverses["c"]


def inverse11(a: AlgMatrix) -> AlgMatrix:
    """Two-sided inverse of the generic dual supermatrix, built from the
    localized entries:
        [[-cinv delta binv, cinv + cinv delta binv alpha cinv],
         [binv + binv alpha cinv delta binv, -binv alpha cinv]].
    """
    binv, cinv = _require_localized(a.presentation)
    w = Poly.word
    entries = [
        -w(cinv, "delta", binv),
        w(cinv) + w(cinv, "delta", binv, "alpha", cinv),
        w(binv) + w(binv, "alpha", cinv, "delta", binv),
        -w(binv, "alpha", cinv),
    ]
    return AlgMatrix(2, 2, entries, a.presentation)


def sdet(a: AlgMatrix, form: str = "left") -> Poly:
    """The quantum dual superdeterminant: cinv*b - cinv*alpha*cinv*delta,
    equal to p q^-1 (b*cinv - alpha*cinv*delta*cinv)."""
    binv, cinv = _require_localized(a.presentation)
    w = Poly.word
    if form == "left":
        expr = w(cinv, "b") - w(cinv, "alpha", cinv, "delta")
    elif form == "right":
        expr = (w("b", cinv) - w("alpha", cinv, "delta", cinv)).scale(P * Q**-1)
    else:
        raise ValueError("form must be 'left' or 'right'")
    return normal_form(expr, a.presentation)


# ---------------------------------------------------------------------------
# closed-form powers
# ---------------------------------------------------------------------------


def _word_power(letters: Word, n: int) -> Poly:
    return Poly({letters * n: ONE})


def check_power_cap(exponent: int, pres: Presentation) -> None:
    """The exponent-th power of the generic matrix has a word of length
    exponent; refuse it before any product is built if that is over the cap."""
    cap = pres.max_word_length
    if exponent > cap:
        raise DegreeCapExceeded(f"power {exponent} of {pres.label!r} is over the cap {cap}")


def closed_power(exponent: int) -> AlgMatrix:
    """The exponent-th power of the generic supermatrix over gr11, built
    from the closed formulas for its entries [[A, B], [C, D]].

    Odd exponent 2n-1:
        A = (<n> alpha + p <n-1> delta) (bc)^(n-1)
        B = (bc + p <n-1>' alpha delta) (bc)^(n-2) b
        C = (cb + q <n-1>' delta alpha) (cb)^(n-2) c
        D = (<n> delta + q <n-1> alpha) (cb)^(n-1)
    with <k> the pq-deformed integer and <k>' its (pq)^2 analogue; the
    exponent-1 case is the matrix itself (the closed B, C involve a formal
    (bc)^-1 there, which collapses in the localized algebra).

    Even exponent 2n:
        A = (bc + p (1-pq)/(1+pq) <n><n-1> alpha delta) (bc)^(n-1)
        B = <n> (alpha + p delta) (bc)^(n-1) b
        C = <n> (delta + q alpha) (cb)^(n-1) c
        D = (cb + q (1-pq)/(1+pq) <n><n-1> delta alpha) (cb)^(n-1)
    """
    if exponent < 1:
        raise ValueError("exponent must be positive")
    pres = preset("gr11")
    check_power_cap(exponent, pres)
    w = Poly.word
    t = P * Q
    t2 = t * t
    if exponent % 2:
        n = (exponent + 1) // 2
        if n == 1:
            return generic_matrix("diag_odd", pres)
        a_head = Poly.gen("alpha", qnum(n, t)) + Poly.gen("delta", P * qnum(n - 1, t))
        b_head = w("b", "c") + w("alpha", "delta", coeff=P * qnum(n - 1, t2))
        c_head = w("c", "b") + w("delta", "alpha", coeff=Q * qnum(n - 1, t2))
        d_head = Poly.gen("delta", qnum(n, t)) + Poly.gen("alpha", Q * qnum(n - 1, t))
        return AlgMatrix(2, 2, [
            a_head * _word_power(("b", "c"), n - 1),
            b_head * _word_power(("b", "c"), n - 2) * w("b"),
            c_head * _word_power(("c", "b"), n - 2) * w("c"),
            d_head * _word_power(("c", "b"), n - 1)], pres)
    n = exponent // 2
    ratio = (ONE - t) / (ONE + t) * qnum(n, t) * qnum(n - 1, t)
    a_head = w("b", "c") + w("alpha", "delta", coeff=P * ratio)
    b_head = (Poly.gen("alpha") + Poly.gen("delta", P)).scale(qnum(n, t))
    c_head = (Poly.gen("delta") + Poly.gen("alpha", Q)).scale(qnum(n, t))
    d_head = w("c", "b") + w("delta", "alpha", coeff=Q * ratio)
    return AlgMatrix(2, 2, [
        a_head * _word_power(("b", "c"), n - 1),
        b_head * _word_power(("b", "c"), n - 1) * w("b"),
        c_head * _word_power(("c", "b"), n - 1) * w("c"),
        d_head * _word_power(("c", "b"), n - 1)], pres)


def power_relations_check(exponent: int, power: AlgMatrix) -> Report:
    """The entries of `power`, given as the exponent-th power of the generic
    gr11 supermatrix, satisfy the deformed relations at the effective
    parameters (p^e, q^e): the full supermatrix family for odd e, the
    even-diagonal family for even e."""
    if exponent < 1:
        raise ValueError("exponent must be positive")
    pres = preset("gr11")
    if exponent % 2:
        kind, ref = "diag_odd", "odd power lies in the deformed dual supermatrix family"
    else:
        kind, ref = ("diag_even", "even power is an even-diagonal supermatrix "
                     "at the squared parameters")
    report = Report(suite=f"power_relations:{exponent}")
    for label, expr in family(kind, power.entries, P**exponent, Q**exponent):
        report.add(residual_check(f"e{exponent}:{label}", normal_form(expr, pres), pres, ref))
    return report.finish()

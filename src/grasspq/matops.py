"""Matrices over a presented algebra: products, tensor embeddings, the
numeric R-matrix and RTT residuals, dual determinants and inverses, the
noncentral superdeterminant, and closed-form matrix powers."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coeff import ONE, P, Q, RatFunc, qnum
from .errors import (
    DegreeCapExceeded,
    GeneratorMismatch,
    NotHomogeneous,
    NotLocalized,
    ShapeMismatch,
)
from .freealg import (
    ENTRY_LAYOUTS,
    Poly,
    Presentation,
    Word,
    family,
    format_poly,
    normal_form,
    preset,
    residual_check,
)
from .reporting import Check, Report


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

    def scale(self, c: RatFunc) -> AlgMatrix:
        return AlgMatrix(self.rows, self.cols,
                         [e.scale(c) for e in self.entries], self.presentation)

    def _compatible(self, other: AlgMatrix) -> None:
        if self.presentation.label != other.presentation.label:
            raise GeneratorMismatch(
                f"matrices live over {self.presentation.label!r} and "
                f"{other.presentation.label!r}")

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


def generic_gr2(pres: Presentation | None = None) -> AlgMatrix:
    return generic_matrix("all_odd", pres or preset("gr2"))


def generic_gr11(pres: Presentation | None = None) -> AlgMatrix:
    return generic_matrix("diag_odd", pres or preset("gr11"))


def generic_gr11_localized(pres: Presentation | None = None) -> AlgMatrix:
    return generic_matrix("diag_odd", pres or preset("gr11_localized"))


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


# Tensor-leg parity: index 1 even, index 2 odd.
_IDX_PARITY = (0, 1)


def tensor_graded(a: AlgMatrix, slot: int) -> AlgMatrix:
    """Graded tensor embedding of a dual supermatrix: the ungraded one with
    sign factors.

    Slot 1 carries no surviving signs.  Slot 2 multiplies the (ij),(kl)
    entry by -(-1)^(par(i)*(par(j)+par(l))); the overall minus is fixed by
    the explicit 4x4 form of the graded embedding (it cancels in the RTT
    relation, where the slot-2 factor appears once on each side).
    """
    ungraded = tensor_ungraded(a, slot)
    if slot == 1:
        return ungraded
    indices = itertools.product(range(2), repeat=4)  # i, j, k, l in entry order
    entries = [e if _IDX_PARITY[i] * (_IDX_PARITY[j] + _IDX_PARITY[l]) % 2 else -e
               for (i, j, _, l), e in zip(indices, ungraded.entries)]
    return AlgMatrix(4, 4, entries, a.presentation, reduce=False)


# ---------------------------------------------------------------------------
# the numeric R-matrix
# ---------------------------------------------------------------------------


class RMatrix:
    """4x4 matrix of RatFunc scalars in the (ij),(kl) labeling."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[RatFunc]]):
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise ShapeMismatch("RMatrix is 4x4")
        self.entries = tuple(tuple(r) for r in entries)

    def __getitem__(self, idx: tuple[int, int]) -> RatFunc:
        return self.entries[idx[0]][idx[1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return all(self[i, j] == other[i, j] for i in range(4) for j in range(4))

    __hash__ = None

    def to_alg(self, pres: Presentation) -> AlgMatrix:
        entries = [Poly.unit(self[i, j]) if self[i, j] else Poly.zero()
                   for i in range(4) for j in range(4)]
        return AlgMatrix(4, 4, entries, pres, reduce=False)

    def pretty(self) -> str:
        cells = [[str(self[i, j]) for j in range(4)] for i in range(4)]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[ " + "  ".join(c.ljust(width) for c in row) + " ]"
                         for row in cells)


def rhat(x: RatFunc) -> RMatrix:
    """The deformation R-matrix, assembled from its rank-one building
    blocks: (p + q^-1) on the diagonal sectors, 2x(pq^-1)^(i-1) on the
    mixed diagonal, +-(p - q^-1) on the middle antidiagonal."""
    zero = RatFunc.zero()
    entries = [[zero for _ in range(4)] for _ in range(4)]

    def add(r, c, val):
        entries[r][c] = entries[r][c] + val

    # e^k1_l1 (x) e^k2_l2 occupies row (k1 k2), col (l1 l2)
    two_x = RatFunc.const(2) * x
    for i in range(2):
        add(3 * i, 3 * i, P + Q**-1)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            add(2 * i + j, 2 * i + j, two_x * (P * Q**-1) ** i)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            sign = ONE if i > j else -ONE
            # e^i_j (x) e^j_i occupies row (ij), col (ji)
            r = 2 * i + j
            c = 2 * j + i
            add(r, c, (P - Q**-1) * sign)
    return RMatrix(entries)


def rtt_residual(x: RatFunc, a: AlgMatrix, graded: bool) -> AlgMatrix:
    """R(x)*A1*A2 + A2*A1*R(x) with the tensor legs built graded or
    ungraded; the zero matrix iff the sign-twisted RTT relation holds."""
    _check_2x2(a)
    embed = tensor_graded if graded else tensor_ungraded
    a1 = embed(a, 1)
    a2 = embed(a, 2)
    r = rhat(x).to_alg(a.presentation)
    left = mat_mul(mat_mul(r, a1), a2)
    right = mat_mul(mat_mul(a2, a1), r)
    return left + right


# ---------------------------------------------------------------------------
# span comparison over the degree-2 word basis
# ---------------------------------------------------------------------------


def _rows_over_basis(polys: Sequence[Poly]):
    rows = []
    for poly in polys:
        if poly.is_zero:
            continue
        if not poly.is_homogeneous(2):
            raise NotHomogeneous(f"{poly!r} is not homogeneous of degree 2")
        rows.append(dict(poly.terms))
    return rows


def _echelon(rows, basis=()):
    """Row-reduce sparse rows (word -> nonzero field element) onto a copy of
    the echelon basis `basis` (pivot word -> row monic there, with no
    smaller word) and return the grown copy; its length is the rank.  Only
    field operations and truth tests are used, so the same code runs over
    RatFunc (exact) and over Fraction (at a sample point)."""
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


def _evaluate_rows(rows, point):
    """The rows at (p0, q0), as sparse maps word -> nonzero Fraction."""
    p0, q0 = point
    out = []
    for row in rows:
        values = ((w, c.evaluate(p0, q0)) for w, c in row.items())
        out.append({w: v for w, v in values if v})
    return out


def _random_admissible_points(rng: random.Random, count: int):
    points = []
    while len(points) < count:
        p0 = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        q0 = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        if p0 * q0 in (1, -1) or p0 == 0 or q0 == 0:
            continue
        points.append((p0, q0))
    return points


def span_equal(s1: Sequence[Poly], s2: Sequence[Poly], *, seed: int = 0,
               label: str = "span") -> Report:
    """Do two sets of degree-2 polynomials span the same subspace over the
    coefficient field?  Both memberships are read off three exact ranks:
    of the first set, of the second, and of the second reduced onto the
    first's echelon (their sum).  The same ranks at random admissible
    rational points cross-check them in another field."""
    report = Report(suite=f"span:{label}", seed=seed)
    rows1 = _rows_over_basis(s1)
    rows2 = _rows_over_basis(s2)

    def ranks(at1, at2):
        e1 = _echelon(at1)
        return len(e1), len(_echelon(at2)), len(_echelon(at2, e1))

    r1, r2, rb = ranks(rows1, rows2)
    # dim(S1 + S2) equals dim S1 iff S2 lies in S1, and dim S2 iff S1 lies in S2
    report.add(Check(name="membership_second_in_first",
                     status="pass" if rb == r1 else "fail",
                     paper_ref="every element of the second set lies in the first span"))
    report.add(Check(name="membership_first_in_second",
                     status="pass" if rb == r2 else "fail",
                     paper_ref="every element of the first set lies in the second span"))
    ok_rank = r1 == r2 and all(
        ranks(_evaluate_rows(rows1, point), _evaluate_rows(rows2, point)) == (r1, r1, r1)
        for point in _random_admissible_points(random.Random(seed), 5))
    report.add(Check(name="numeric_rank_crosscheck",
                     status="pass" if ok_rank else "fail",
                     paper_ref="ranks agree at random admissible (p, q) values"))
    report.finish()
    return report


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


@dataclass(frozen=True)
class ClosedPowerEntries:
    """Entries of the generic supermatrix raised to `exponent`, by the
    closed formulas; `parameters` is the effective deformation pair
    (p^exponent, q^exponent)."""

    A: Poly
    B: Poly
    C: Poly
    D: Poly
    exponent: int
    parameters: tuple[RatFunc, RatFunc]

    def as_matrix(self, pres: Presentation) -> AlgMatrix:
        return AlgMatrix(2, 2, [self.A, self.B, self.C, self.D], pres)


def _word_power(letters: Word, n: int) -> Poly:
    return Poly({letters * n: ONE})


def check_power_cap(exponent: int, pres: Presentation) -> None:
    """The exponent-th power of the generic matrix has a word of length
    exponent; refuse it before any product is built if that is over the cap."""
    cap = pres.limits.max_word_length
    if exponent > cap:
        raise DegreeCapExceeded(f"power {exponent} of {pres.label!r} is over the cap {cap}")


def closed_power(exponent: int) -> ClosedPowerEntries:
    """Closed form for the exponent-th power of the generic supermatrix.

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
    nf = lambda x: normal_form(x, pres)
    t = P * Q
    t2 = t * t
    params = (P**exponent, Q**exponent)
    if exponent % 2:
        n = (exponent + 1) // 2
        if n == 1:
            return ClosedPowerEntries(*generic_matrix("diag_odd", pres).entries, 1, params)
        a_head = Poly.gen("alpha", qnum(n, t)) + Poly.gen("delta", P * qnum(n - 1, t))
        b_head = w("b", "c") + w("alpha", "delta", coeff=P * qnum(n - 1, t2))
        c_head = w("c", "b") + w("delta", "alpha", coeff=Q * qnum(n - 1, t2))
        d_head = Poly.gen("delta", qnum(n, t)) + Poly.gen("alpha", Q * qnum(n - 1, t))
        return ClosedPowerEntries(
            A=nf(a_head * _word_power(("b", "c"), n - 1)),
            B=nf(b_head * _word_power(("b", "c"), n - 2) * w("b")),
            C=nf(c_head * _word_power(("c", "b"), n - 2) * w("c")),
            D=nf(d_head * _word_power(("c", "b"), n - 1)),
            exponent=exponent, parameters=params)
    n = exponent // 2
    ratio = (ONE - t) / (ONE + t) * qnum(n, t) * qnum(n - 1, t)
    a_head = w("b", "c") + w("alpha", "delta", coeff=P * ratio)
    b_head = (Poly.gen("alpha") + Poly.gen("delta", P)).scale(qnum(n, t))
    c_head = (Poly.gen("delta") + Poly.gen("alpha", Q)).scale(qnum(n, t))
    d_head = w("c", "b") + w("delta", "alpha", coeff=Q * ratio)
    return ClosedPowerEntries(
        A=nf(a_head * _word_power(("b", "c"), n - 1)),
        B=nf(b_head * _word_power(("b", "c"), n - 1) * w("b")),
        C=nf(c_head * _word_power(("c", "b"), n - 1) * w("c")),
        D=nf(d_head * _word_power(("c", "b"), n - 1)),
        exponent=exponent, parameters=params)


def power_relations_check(exponent: int) -> Report:
    """The entries of the exponent-th power satisfy the deformed relations
    at the effective parameters (p^e, q^e): the full supermatrix family for
    odd e, the even-diagonal family for even e."""
    if exponent < 1:
        raise ValueError("exponent must be positive")
    pres = preset("gr11")
    cp = closed_power(exponent)
    if exponent % 2:
        kind, ref = "diag_odd", "odd power lies in the deformed dual supermatrix family"
    else:
        kind, ref = ("diag_even", "even power is an even-diagonal supermatrix "
                     "at the squared parameters")
    report = Report(suite=f"power_relations:{exponent}")
    for label, expr in family(kind, (cp.A, cp.B, cp.C, cp.D), *cp.parameters):
        report.add(residual_check(f"e{exponent}:{label}", normal_form(expr, pres), pres, ref))
    report.finish()
    return report

"""Free associative Z2-graded algebra over RatFunc coefficients, with
oriented rewrite systems and normal forms.

Words are tuples of generator names; a polynomial maps words to nonzero
coefficients.  A presentation fixes a generator order and a confluent set
of oriented rules.  normal_form builds the normal form of a word one letter
at a time, NF(x1...xn) = NF(NF(x1...xn-1)*xn): since the prefix is
normal, every redex ends at the junction.  A presentation keeps, for its
lifetime, one map word -> normal form of at most MAX_CACHED entries: the
junctions and input words met.  Any reduction order of a confluent system
gives the same normal form (Bergman's diamond lemma), so an entry depends
on the rules alone and is the leftmost normal form.  Local
confluence is checked by resolving every overlap ambiguity of rule
left-hand sides, once per presentation: build_presentation's last round
does it for what it returns.  The localized presentation is finished by
bounded completion.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

from .coeff import ONE, P, Q, RatFunc
from .errors import (
    CompletionOverflow,
    DegreeCapExceeded,
    GeneratorMismatch,
    InconsistentConvention,
    NonOrientable,
    SingularSpecialization,
    ZeroRelation,
)
from .reporting import Check, Report, truncate_poly_text, verdict

Word = tuple[str, ...]
NormalForms = dict[Word, dict[Word, RatFunc]]  # word u -> NF(u)

EVEN, ODD = 0, 1


# a generator's place in the monomial order is its position in the
# presentation
Generator = namedtuple("Generator", "name parity")  # parity 0 even, 1 odd

MAX_WORD_LENGTH = 64  # default cap on the length of a word rewriting makes
MAX_STEPS = 2_000_000  # one normal_form call raises DegreeCapExceeded past this
MAX_RULES = 64  # completion raises CompletionOverflow past this many rules
MAX_CACHED = 1 << 15  # entries a presentation's normal-form map holds at most


class Poly:
    """Finite RatFunc-linear combination of words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, RatFunc] | None = None):
        clean: dict[Word, RatFunc] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def unit(cls, coeff: RatFunc = ONE) -> Poly:
        return cls({(): coeff})

    @classmethod
    def gen(cls, name: str, coeff: RatFunc = ONE) -> Poly:
        return cls({(name,): coeff})

    @classmethod
    def word(cls, *names: str, coeff: RatFunc = ONE) -> Poly:
        return cls({tuple(names): coeff})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[w] == other.terms[w] for w in self.terms)

    __hash__ = None

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        add_scaled(out, other.terms, ONE)
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def __neg__(self) -> Poly:
        res = Poly.__new__(Poly)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def scale(self, c: RatFunc) -> Poly:
        if not c:
            return Poly.zero()
        res = Poly.__new__(Poly)
        res.terms = {w: v * c for w, v in self.terms.items()}
        return res

    def __mul__(self, other: Poly) -> Poly:
        res = Poly.__new__(Poly)
        res.terms = product_terms(self.terms, other.terms)
        return res

    def is_homogeneous(self, degree: int) -> bool:
        return all(len(w) == degree for w in self.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        bits = [f"({c})*{'*'.join(w) if w else '1'}" for w, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(bits) + ")"


def product_terms(left: Mapping[Word, RatFunc],
                  right: Mapping[Word, RatFunc]) -> dict[Word, RatFunc]:
    """Free product of two term maps: bilinear word concatenation, no
    rewriting and no sign bookkeeping (Koszul signs live in the
    relations)."""
    out: dict[Word, RatFunc] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = w1 + w2
            c = c1 * c2
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


class RewriteRule:
    """Oriented relation lhs -> rhs; every rhs word is strictly below lhs
    in the presentation's monomial order.  Rules compare and hash by
    identity."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: Poly):
        self.lhs = lhs
        self.rhs = rhs

    def as_relation(self) -> Poly:
        return Poly({self.lhs: ONE}) - self.rhs


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------
#
# "deglex": word length first, then the generator-index sequence.
#
# "invweight": net even weight first (letters listed in a presentation's
# `negative_weight` set count -1, other even letters +1, odd letters 0),
# then length, then the index sequence.  This is what lets the localized
# relation b*cinv -> cinv*b + (...)*alpha*delta*cinv^2 point downhill even
# though the trailing word is longer.


class Presentation:
    """Ordered graded generators plus an oriented, inter-reduced rule set.

    `generators` are (name, parity) pairs, in increasing monomial order;
    no word that rewriting makes may be longer than `max_word_length`.
    For its lifetime it keeps the map word -> normal form that
    `normal_form` fills, of at most MAX_CACHED entries, and the checks of
    its first `overlap_check`."""

    def __init__(self, label: str, generators: Iterable[tuple[str, int]],
                 rules: Sequence[RewriteRule], *, order: str = "deglex",
                 negative_weight: frozenset[str] = frozenset(),
                 inverses: Mapping[str, str] | None = None,
                 max_word_length: int = MAX_WORD_LENGTH):
        self.label = label
        self.generators = tuple(map(Generator._make, generators))
        self.rules = tuple(rules)
        self.order = order
        self.negative_weight = frozenset(negative_weight)
        self.inverses = dict(inverses or {})
        self.max_word_length = max_word_length
        self.parities = dict(self.generators)  # name -> parity
        if len(self.parities) != len(self.generators):
            raise ValueError("duplicate generator names")
        self._index = {name: i for i, (name, _) in enumerate(self.generators)}
        self._by_first: dict[str, list[RewriteRule]] = {}
        for r in self.rules:
            self._by_first.setdefault(r.lhs[0], []).append(r)
        self._longest_lhs = max((len(r.lhs) for r in self.rules), default=0)
        self._normal_forms: NormalForms = {}  # entries never change once published
        self._publishing = threading.Lock()  # held while a call checks the bound and publishes
        # set by build_presentation: its last round resolved every
        # ambiguity of these rules to zero, and completion added
        # completion_added of them
        self._proved = False
        self.completion_added = 0
        self._overlaps: tuple[Check, ...] | None = None  # made by the first overlap_check

    # -- order -------------------------------------------------------------

    def word_key(self, w: Word):
        idx = self._index
        if self.order == "deglex":
            return (len(w), tuple(idx[g] for g in w))
        weight = 0
        for g in w:
            if self.parities[g] == EVEN:
                weight += -1 if g in self.negative_weight else 1
        return (weight, len(w), tuple(idx[g] for g in w))

    def word_parity(self, w: Word) -> int:
        return sum(self.parities[g] for g in w) & 1

    def poly_parity(self, poly: Poly) -> int | None:
        """Common parity of all words, or None if mixed / zero."""
        parities = {self.word_parity(w) for w in poly.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def validate(self, poly: Poly) -> None:
        unknown = {g for w in poly.terms for g in w} - self.parities.keys()
        if unknown:
            raise GeneratorMismatch(
                f"{sorted(unknown)} not declared in presentation {self.label!r}")

    # -- reduction ----------------------------------------------------------

    def find_reduction(self, w: Word, start: int = 0):
        """The leftmost redex (position, rule) of w at or after `start`, or
        None."""
        for i in range(start, len(w)):
            for rule in self._by_first.get(w[i], ()):
                n = len(rule.lhs)
                if w[i:i + n] == rule.lhs:
                    return i, rule
        return None

    def sort_terms(self, poly: Poly):
        return sorted(poly.terms.items(), key=lambda item: self.word_key(item[0]), reverse=True)

    def relation_polys(self) -> list[Poly]:
        return [r.as_relation() for r in self.rules]

    def with_rules(self, rules: Sequence[RewriteRule], *,
                   label: str | None = None) -> Presentation:
        """The same generators, order, weights, inverses and word cap with
        another rule set, and an empty normal-form map."""
        return Presentation(self.label if label is None else label,
                            self.generators, rules, order=self.order,
                            negative_weight=self.negative_weight,
                            inverses=self.inverses,
                            max_word_length=self.max_word_length)

    def __repr__(self) -> str:
        return f"Presentation({self.label!r}, {len(self.generators)} gens, {len(self.rules)} rules)"


def normal_form(poly: Poly, pres: Presentation) -> Poly:
    """Reduce until no rule lhs occurs as a subword.  The result is the
    canonical representative modulo the two-sided ideal of relations.

    Each word is folded letter by letter onto normal words (see the module
    docstring) through the presentation's map word -> normal form, so a
    repeated word costs one lookup."""
    pres.validate(poly)
    cache = pres._normal_forms
    fresh: NormalForms = {}
    result: dict[Word, RatFunc] = {}
    for w, c in poly.terms.items():
        nf = cache.get(w)
        if nf is None:
            # the letters before the leftmost redex are a normal word
            hit = pres.find_reduction(w)
            if hit is None:
                nf = {w: ONE}
            else:
                nf = _drive(_fold({w[:hit[0]]: ONE}, w[hit[0]:], pres, fresh), pres, fresh)
            fresh[w] = nf
        add_scaled(result, nf, c)
    # publish only after the whole call succeeded, so a raise leaves no
    # trace; a call that would overfill the map empties it first, and one
    # with more new entries than the bound publishes none
    if len(fresh) <= MAX_CACHED:
        with pres._publishing:
            if len(cache) + len(fresh) > MAX_CACHED:
                cache.clear()
            cache.update(fresh)
    return Poly(result)


def _drive(root, pres: Presentation, fresh: NormalForms) -> dict[Word, RatFunc]:
    """Run a fold, computing each word it misses into `fresh` on one
    explicit stack of generators, so there is no recursion.  The call's
    new entries so far, in `fresh` or pending, count against `MAX_STEPS`;
    a word missed again while pending raises, since the `invweight` order
    is not well-founded."""
    stack = [root]
    pending: dict[Word, None] = {}  # the words of the frames above the root
    value = None
    while True:
        try:
            u = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            fresh[pending.popitem()[0]] = value = done.value
            continue
        if u in pending:
            raise DegreeCapExceeded(
                f"word {_word_str(u)} recurs on its own reduction path in {pres.label!r}")
        if len(fresh) + len(pending) >= MAX_STEPS:
            raise DegreeCapExceeded(
                f"reduction in {pres.label!r} exceeded {MAX_STEPS} steps")
        stack.append(_junction(u, pres, fresh))
        pending[u] = None
        value = None


def add_scaled(acc: dict[Word, RatFunc], terms: Mapping[Word, RatFunc],
               c: RatFunc) -> None:
    """acc += c * terms, dropping words whose coefficients cancel; c and
    the coefficients of terms are nonzero."""
    for w, v in terms.items():
        t = v if c is ONE else c * v
        s = acc.get(w)
        if s is not None:
            t = s + t
            if not t:
                del acc[w]
                continue
        acc[w] = t


def _rewrite_at(w: Word, pos: int, rule: RewriteRule,
                pres: Presentation) -> list[tuple[Word, RatFunc]]:
    """One rewrite step: the words and coefficients that replace the redex
    of `rule` at position `pos` of w, each held to the length cap."""
    prefix, suffix = w[:pos], w[pos + len(rule.lhs):]
    cap = pres.max_word_length
    out = []
    for rw, rc in rule.rhs.terms.items():
        nw = prefix + rw + suffix
        if len(nw) > cap:
            raise DegreeCapExceeded(
                f"word of length {len(nw)} in {pres.label!r} exceeds the cap {cap}")
        out.append((nw, rc))
    return out


def _fold(state: dict[Word, RatFunc], letters: Word, pres: Presentation, fresh: NormalForms):
    """Fold letters one at a time onto a combination of normal words;
    yields each junction v*x (v normal) whose normal form is neither in
    the map nor in `fresh`, and returns the folded combination."""
    cache = pres._normal_forms
    for x in letters:
        folded: dict[Word, RatFunc] = {}
        for v, c in state.items():
            u = v + (x,)
            nf = cache.get(u)
            if nf is None:
                nf = fresh.get(u)
                if nf is None:
                    nf = yield u
            add_scaled(folded, nf, c)
        state = folded
    return state


def _junction(u: Word, pres: Presentation, fresh: NormalForms):
    """The normal form of a word u whose prefix u[:-1] is normal: every
    redex ends at its last letter, so only the last (longest lhs) letters
    are scanned, and each rewritten word is folded back onto the normal
    prefix before the redex."""
    hit = pres.find_reduction(u, start=max(0, len(u) - pres._longest_lhs))
    if hit is None:
        return {u: ONE}
    pos, rule = hit
    nf: dict[Word, RatFunc] = {}
    for nw, rc in _rewrite_at(u, pos, rule, pres):
        add_scaled(nf, (yield from _fold({nw[:pos]: ONE}, nw[pos:], pres, fresh)), rc)
    return nf


def orient(relation: Poly, pres: Presentation) -> RewriteRule:
    """Turn relation = 0 into the rule (maximal word) -> (rest / leading
    coefficient)."""
    pres.validate(relation)
    if relation.is_zero:
        raise ZeroRelation("cannot orient the zero relation")
    ranked = pres.sort_terms(relation)
    lhs, lead = ranked[0]
    if len(ranked) > 1 and pres.word_key(ranked[1][0]) == pres.word_key(lhs):
        raise NonOrientable(f"maximal words tie in {relation!r}")
    if not lhs:
        raise NonOrientable("relation forces a scalar to vanish")
    rest = Poly({w: c for w, c in relation.terms.items() if w != lhs})
    rhs = rest.scale(-(lead.inv()))
    return RewriteRule(lhs, rhs)


# ---------------------------------------------------------------------------
# confluence: overlap ambiguities and bounded completion
# ---------------------------------------------------------------------------


def _ambiguities(rules: Sequence[RewriteRule]):
    """All overlap and inclusion ambiguities, each once, by rule1 and then
    rule2 in rule order; yields the key (word, pos1, rule1, pos2, rule2).
    Only a rule2 whose lhs starts with a letter of rule1's lhs can meet it."""
    by_first: dict[str, list[tuple[int, RewriteRule]]] = {}
    for i2, r2 in enumerate(rules):
        by_first.setdefault(r2.lhs[0], []).append((i2, r2))
    for i1, r1 in enumerate(rules):
        for i2, r2 in sorted(pair for x in set(r1.lhs) for pair in by_first.get(x, ())):
            l1, l2 = r1.lhs, r2.lhs
            # proper overlap: a suffix of l1 is a prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k]:
                    yield l1 + l2[k:], 0, r1, len(l1) - k, r2
            # inclusion: l2 occurs strictly inside l1, or two rules share an lhs
            if len(l2) < len(l1) or l2 == l1 and i1 < i2:
                for i in range(len(l1) - len(l2) + 1):
                    if l1[i:i + len(l2)] == l2:
                        yield l1, 0, r1, i, r2


def _difference(key, pres: Presentation) -> Poly:
    """The normal form of the first one-step rewrite of an ambiguity's word
    minus that of the second: zero iff the ambiguity resolves."""
    word, i1, r1, i2, r2 = key
    first = Poly(dict(_rewrite_at(word, i1, r1, pres)))
    second = Poly(dict(_rewrite_at(word, i2, r2, pres)))
    return normal_form(first - second, pres)


def residual_check(name: str, residual: Poly, pres: Presentation, ref: str) -> Check:
    """Pass iff the residual is zero; a failure carries the residual,
    printed in pres and clipped to 32 terms."""
    ok = residual.is_zero
    return verdict(name, ok, ref, None if ok else truncate_poly_text(format_poly(residual, pres)))


def overlap_check(pres: Presentation) -> Report:
    """Diamond-lemma local confluence: both reductions of every ambiguity
    must share a normal form.  The checks are made once per presentation
    (racing first calls may make them twice, alike) and each call reports
    them afresh; on a presentation that build_presentation proved, each
    ambiguity passes without being resolved again."""
    if pres._overlaps is None:
        checks = [residual_check(f"overlap:{'*'.join(key[0])}@{key[3]}",
                                 Poly() if pres._proved else _difference(key, pres), pres,
                                 "both reductions of a shared subword must agree")
                  for key in _ambiguities(pres.rules)]
        if not pres.rules:
            checks.append(verdict("overlap:none", True, "empty rule set is vacuously confluent"))
        pres._overlaps = tuple(checks)
    report = Report(suite=f"confluence:{pres.label}")
    report.checks.extend(pres._overlaps)
    return report.finish()


def _occurs(part: Word, word: Word) -> bool:
    n = len(part)
    return any(word[i:i + n] == part for i in range(len(word) - n + 1))


def _interreduce(rules: list[RewriteRule], skeleton: Presentation) -> None:
    """Inter-reduce `rules` in place.  A rule whose lhs contains another
    rule's (shorter) lhs is reduced, as a relation, against the others:
    deleted if that gives zero, re-oriented at its position otherwise.
    Then every lhs is irreducible, so one pass reducing each rhs with the
    full system, the rule itself included, leaves every rhs irreducible; a
    self-embedded rhs (its own lhs as a subword, possible under the
    weighted orders) would otherwise let one reduction strategy expand
    forever.  A rule whose rhs is already irreducible stays the same
    object."""
    while True:
        i = next((i for i, rule in enumerate(rules)
                  if any(len(other.lhs) < len(rule.lhs) and _occurs(other.lhs, rule.lhs)
                         for other in rules)), None)
        if i is None:
            break
        others = skeleton.with_rules(rules[:i] + rules[i + 1:])
        rel = normal_form(rules[i].as_relation(), others)
        if rel.is_zero:
            del rules[i]
        else:
            rules[i] = orient(rel, skeleton)
    full = skeleton.with_rules(rules)
    for i, rule in enumerate(rules):
        if any(full.find_reduction(w) for w in rule.rhs.terms):
            rules[i] = RewriteRule(rule.lhs, normal_form(rule.rhs, full))


def build_presentation(label: str, gens: Sequence[tuple[str, int]],
                       relations: Iterable[Poly], *, order: str = "deglex",
                       negative_weight: Iterable[str] = (),
                       inverses: Mapping[str, str] | None = None,
                       max_word_length: int = MAX_WORD_LENGTH) -> Presentation:
    """Orient, inter-reduce and (boundedly) complete a relation set.  Each
    input relation is reduced against the rules so far and oriented; then
    each round inter-reduces the rules and orients the smallest unresolved
    ambiguity, which is already a normal form under them, as a new rule.

    An ambiguity that resolved to zero is not resolved again in later
    rounds while both of its rules stand unchanged.  When a round finds
    nothing unresolved but skipped some ambiguity, one full round resolves
    every ambiguity of the final rules before the result is returned, so
    the returned system passes the diamond-lemma check and is marked
    proved; if that round finds anything, completion goes on."""
    skeleton = Presentation(label, gens, (), order=order,
                            negative_weight=frozenset(negative_weight),
                            inverses=inverses, max_word_length=max_word_length)
    rules: list[RewriteRule] = []
    for rel in relations:
        nf = normal_form(rel, skeleton.with_rules(rules))
        if not nf.is_zero:
            rules.append(orient(nf, skeleton))
    added = 0
    resolved = set()  # keys of the ambiguities that resolved to zero

    def priority(d: Poly):
        lead = skeleton.sort_terms(d)[0][0]
        return (len(lead), skeleton.word_key(lead))

    def smallest_unresolved(keys, pres: Presentation) -> Poly | None:
        # fair strategy: of all the unresolved ambiguities of this round,
        # install the first with the smallest leading word, so short rules
        # form before their longer consequences can cascade
        unresolved = []
        for key in keys:
            diff = _difference(key, pres)
            if diff:
                resolved.discard(key)
                unresolved.append(diff)
            else:
                resolved.add(key)
        return min(unresolved, key=priority, default=None)

    while True:
        _interreduce(rules, skeleton)
        pres = skeleton.with_rules(rules)
        keys = list(_ambiguities(rules))
        new = [key for key in keys if key not in resolved]
        best = smallest_unresolved(new, pres)
        if best is None and len(new) < len(keys):
            best = smallest_unresolved(keys, pres)
        if best is None:
            # a copy with an empty normal-form map, so the words met
            # resolving ambiguities do not live as long as the result
            proved = skeleton.with_rules(rules)
            proved._proved = True
            proved.completion_added = added
            return proved
        if len(rules) >= MAX_RULES:
            raise CompletionOverflow(
                f"completion of {label!r} exceeded {MAX_RULES} rules")
        rules.append(orient(best, skeleton))
        added += 1


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# The 2x2 matrix layouts [[A, B], [C, D]]: entry names and parities in the
# order A, B, C, D.  Greek letters are odd, Latin letters even.
ENTRY_LAYOUTS = {
    "all_odd": (("alpha", ODD), ("beta", ODD), ("gamma", ODD), ("delta", ODD)),
    "diag_odd": (("alpha", ODD), ("b", EVEN), ("c", EVEN), ("delta", ODD)),
    "diag_even": (("a", EVEN), ("beta", ODD), ("gamma", ODD), ("d", EVEN)),
    "all_even": (("a", EVEN), ("b", EVEN), ("c", EVEN), ("d", EVEN)),
}


def family(kind: str, entries: Sequence[Poly], pp: RatFunc,
           qq: RatFunc) -> list[tuple[str, Poly]]:
    """The quadratic relations (label, polynomial = 0) of a relation family
    for the matrix [[A, B], [C, D]] = entries at parameters (pp, qq).  The
    labels are written in the family's own A..D, p and q.

    "all_odd": the Grassmann matrix family (gr2).
    "diag_odd": the dual supermatrix family (gr11); the inverse lies in it
    at (p^-1, q^-1) and the odd powers at (p^e, q^e).
    "diag_even": the even-diagonal family, which the even powers obey.
    "all_even": the even partner of "all_odd"; at (q, p) it is gr2's dual."""
    A, B, C, D = entries
    if kind == "all_odd":
        return [
            ("A*B = -p^-1 B*A", A * B + (B * A).scale(pp ** -1)),
            ("A*C = -q^-1 C*A", A * C + (C * A).scale(qq ** -1)),
            ("C*D = -p^-1 D*C", C * D + (D * C).scale(pp ** -1)),
            ("B*D = -q^-1 D*B", B * D + (D * B).scale(qq ** -1)),
            ("A*D + D*A = 0", A * D + D * A),
            ("A^2 = 0", A * A),
            ("B^2 = 0", B * B),
            ("C^2 = 0", C * C),
            ("D^2 = 0", D * D),
            ("B*C = -p q^-1 C*B + (p - q^-1) D*A",
             B * C + (C * B).scale(pp * qq ** -1) - (D * A).scale(pp - qq ** -1)),
        ]
    if kind == "diag_odd":
        return [
            ("A*B = p^-1 B*A", A * B - (B * A).scale(pp ** -1)),
            ("A*C = q^-1 C*A", A * C - (C * A).scale(qq ** -1)),
            ("D*B = p^-1 B*D", D * B - (B * D).scale(pp ** -1)),
            ("D*C = q^-1 C*D", D * C - (C * D).scale(qq ** -1)),
            ("A*D + D*A = 0", A * D + D * A),
            ("A^2 = 0", A * A),
            ("D^2 = 0", D * D),
            ("B*C = p q^-1 C*B + (p - q^-1) D*A",
             B * C - (C * B).scale(pp * qq ** -1) - (D * A).scale(pp - qq ** -1)),
        ]
    if kind == "diag_even":
        return [
            ("A*B = q B*A", A * B - (B * A).scale(qq)),
            ("A*C = p C*A", A * C - (C * A).scale(pp)),
            ("D*B = q B*D", D * B - (B * D).scale(qq)),
            ("D*C = p C*D", D * C - (C * D).scale(pp)),
            ("B*C + p q^-1 C*B = 0", B * C + (C * B).scale(pp * qq ** -1)),
            ("B^2 = 0", B * B),
            ("C^2 = 0", C * C),
            ("A*D - D*A = (p - q^-1) C*B",
             A * D - D * A - (C * B).scale(pp - qq ** -1)),
        ]
    if kind == "all_even":
        return [
            ("A*B = q B*A", A * B - (B * A).scale(qq)),
            ("A*C = p C*A", A * C - (C * A).scale(pp)),
            ("B*D = p D*B", B * D - (D * B).scale(pp)),
            ("C*D = q D*C", C * D - (D * C).scale(qq)),
            ("B*C = p q^-1 C*B", B * C - (C * B).scale(pp * qq ** -1)),
            ("A*D - D*A = (q - p^-1) B*C", A * D - D * A - (B * C).scale(qq - pp ** -1)),
        ]
    raise ValueError(f"unknown relation family {kind!r}; choose from {', '.join(ENTRY_LAYOUTS)}")


def generic_family(kind: str, pp: RatFunc, qq: RatFunc) -> list[Poly]:
    """The family's relations on the generic matrix of its layout."""
    entries = [Poly.gen(name) for name, _ in ENTRY_LAYOUTS[kind]]
    return [rel for _, rel in family(kind, entries, pp, qq)]


# In every matrix preset the diagonal entries come first in the generator
# order: A < D < B < C.

def build_family(kind: str, pp: RatFunc, qq: RatFunc, label: str) -> Presentation:
    """The presentation of relation family `kind` at (pp, qq)."""
    a, b, c, d = ENTRY_LAYOUTS[kind]
    return build_presentation(label, [a, d, b, c], generic_family(kind, pp, qq))


def build_gr11_localized(pp: RatFunc, qq: RatFunc) -> Presentation:
    a, b, c, d = ENTRY_LAYOUTS["diag_odd"]
    # each inverse sits right next to its partner in the order, so that
    # b*binv / c*cinv pairs become adjacent in normal words and cancel
    # locally; separating them (binv < cinv < b < c) provably needs an
    # infinite rule family in the alpha*delta corner
    gens = [a, d, ("binv", EVEN), b, ("cinv", EVEN), c]
    w = Poly.word
    unit = Poly.unit()
    rels = generic_family("diag_odd", pp, qq) + [
        w("b", "binv") - unit,
        w("binv", "b") - unit,
        w("c", "cinv") - unit,
        w("cinv", "c") - unit,
    ]
    # commutation of the adjoined inverses with the odd generators, obtained
    # by conjugating the base relations; the even-even rules fall out of
    # completion.
    rels += [
        w("binv", "alpha") - w("alpha", "binv", coeff=pp ** -1),
        w("cinv", "alpha") - w("alpha", "cinv", coeff=qq ** -1),
        w("binv", "delta") - w("delta", "binv", coeff=pp ** -1),
        w("cinv", "delta") - w("delta", "cinv", coeff=qq ** -1),
    ]
    # inverse-cluster words balloon transiently before the nilpotent odd
    # pairs kill them, so this preset gets extra headroom over the default
    return build_presentation("gr11_localized", gens, rels,
                              order="invweight",
                              negative_weight=("binv", "cinv"),
                              inverses={"b": "binv", "c": "cinv"},
                              max_word_length=256)


_PRESETS = {
    "gr2": lambda: build_family("all_odd", P, Q, "gr2"),
    "gr11": lambda: build_family("diag_odd", P, Q, "gr11"),
    "gr11_localized": lambda: build_gr11_localized(P, Q),
    "gr11_inverse": lambda: build_family("diag_odd", P ** -1, Q ** -1, "gr11_inverse"),
    "plane_p20": lambda: build_presentation(
        "plane_p20", [("x", EVEN), ("y", EVEN)],
        [Poly.word("x", "y") - Poly.word("y", "x", coeff=P)]),
    "plane_q02": lambda: build_presentation(
        "plane_q02", [("xi", ODD), ("eta", ODD)],
        [Poly.word("xi", "xi"), Poly.word("eta", "eta"),
         Poly.word("eta", "xi") + Poly.word("xi", "eta", coeff=Q)]),
    "plane_p11": lambda: build_presentation(
        "plane_p11", [("x", EVEN), ("xi", ODD)],
        [Poly.word("x", "xi") - Poly.word("xi", "x", coeff=P), Poly.word("xi", "xi")]),
    "plane_q11_dual": lambda: build_presentation(
        "plane_q11_dual", [("eta", ODD), ("y", EVEN)],
        [Poly.word("eta", "eta"), Poly.word("eta", "y") - Poly.word("y", "eta", coeff=Q ** -1)]),
}
PRESET_NAMES = tuple(_PRESETS)


@lru_cache(maxsize=None)
def preset(name: str) -> Presentation:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return _PRESETS[name]()


def free_algebra_on(pres: Presentation) -> Presentation:
    """Same generators, no relations: the ambient free algebra."""
    return Presentation(f"free({pres.label})", pres.generators, ())


# ---------------------------------------------------------------------------
# irreducible words
# ---------------------------------------------------------------------------


def irreducible_words(pres: Presentation, max_length: int) -> list[Word]:
    """The normal words of length at most max_length, shortest first, each
    length in generator order.  A word is normal iff its prefix is and no
    left-hand side ends at its last letter, so only normal words extend."""
    names = [g.name for g in pres.generators]
    level, words = [()], []
    for n in range(max_length + 1):
        if n:
            start = max(0, n - pres._longest_lhs)
            level = [word for prefix in level for word in (prefix + (x,) for x in names)
                     if pres.find_reduction(word, start=start) is None]
        words += level
    return words


# ---------------------------------------------------------------------------
# endomorphism-derived relations
# ---------------------------------------------------------------------------

def derive_relations(source_plane: Presentation, target_plane: Presentation,
                     entry_parity: str) -> list[Poly]:
    """Quadratic relations a 2x2 matrix of fresh entries t_ij must satisfy
    for the transformed source coordinates x_i -> t_i1 x_1 + t_i2 x_2 to
    obey the target plane's relations.

    The image of each target relation is expanded with one (entry,
    coordinate) pair per letter.  Each coordinate x moves right of the later
    entries t with the Koszul sign (-1)^(|x||t|) per entry, and the
    coordinate word is reduced in the source plane.  The entry polynomials,
    grouped by normal coordinate word, are the relations.  No presentation
    is built: this is the normal form in the entries' free algebra tensor
    the source plane (Bergman's diamond lemma) when the plane is confluent
    and each of its relations has one parity, so that an entry moves past
    it with one sign.  InconsistentConvention is raised otherwise.
    """
    if len(source_plane.generators) != 2 or len(target_plane.generators) != 2:
        raise ValueError("planes must be two-dimensional")
    entries = ENTRY_LAYOUTS[entry_parity]
    if {name for name, _ in entries} & source_plane.parities.keys():
        raise GeneratorMismatch("matrix entries must be fresh generators")
    if not overlap_check(source_plane).passed:
        raise InconsistentConvention(f"source plane {source_plane.label!r} is not confluent")
    if any(source_plane.poly_parity(rel) is None for rel in source_plane.relation_polys()):
        raise InconsistentConvention(
            f"a relation of {source_plane.label!r} mixes parities, so no Koszul "
            "sign moves an entry past it")

    # target coordinate i -> row i of the matrix, as (entry, source
    # coordinate) pairs
    rows = {target.name: tuple(zip(entries[2 * i:2 * i + 2], source_plane.generators))
            for i, target in enumerate(target_plane.generators)}
    derived: list[Poly] = []
    for rule in target_plane.rules:
        # coordinate word -> entry word -> coefficient, before and after the
        # coordinate words are reduced
        image: dict[Word, dict[Word, RatFunc]] = {}
        for word, coeff in rule.as_relation().terms.items():
            for picks in itertools.product(*(rows[letter] for letter in word)):
                # move each coordinate right of the entries picked after it
                c, odd_after = coeff, 0
                for (_, t_parity), (_, x_parity) in reversed(picks):
                    if x_parity and odd_after:
                        c = -c
                    odd_after ^= t_parity
                heads = image.setdefault(tuple(x for _, (x, _) in picks), {})
                add_scaled(heads, {tuple(t for (t, _), _ in picks): c}, ONE)
        by_coord: dict[Word, dict[Word, RatFunc]] = {}
        for tail, heads in image.items():
            for normal, coeff in normal_form(Poly.word(*tail), source_plane).terms.items():
                add_scaled(by_coord.setdefault(normal, {}), heads, coeff)
        for tail, entry_terms in sorted(by_coord.items()):
            poly = Poly(entry_terms)
            if poly.is_zero:
                continue
            if () in poly.terms:
                raise InconsistentConvention("constraints force 1 = 0")
            if not any((poly - seen).is_zero for seen in derived):
                derived.append(poly)
    return derived


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def specialize(poly: Poly, assignment: Mapping[str, RatFunc]) -> Poly:
    """Substitute rational functions for p and/or q in every coefficient."""
    unknown = set(assignment) - {"p", "q"}
    if unknown:
        raise ValueError(f"can only assign p and q, got {sorted(unknown)}")
    pv = assignment.get("p")
    qv = assignment.get("q")
    out: dict[Word, RatFunc] = {}
    for w, c in poly.terms.items():
        s = c.substitute(pv, qv)
        if s:
            out[w] = s
    return Poly(out)


def specialize_presentation(pres: Presentation,
                            assignment: Mapping[str, RatFunc]) -> Presentation:
    """Specialize every rule; leading coefficients are monic so only a
    vanishing rhs denominator can fail."""
    rules = []
    for rule in pres.rules:
        rel = specialize(rule.as_relation(), assignment)
        if rule.lhs not in rel.terms:
            raise SingularSpecialization(
                f"specialization kills the leading term of {rule.lhs}")
        rules.append(orient(rel, pres))
    return pres.with_rules(rules, label=pres.label + "|specialized")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _word_str(word: Word) -> str:
    if not word:
        return "1"
    pieces = []
    for name, run in itertools.groupby(word):
        k = len(tuple(run))
        pieces.append(name if k == 1 else f"{name}^{k}")
    return "*".join(pieces)


def format_poly(poly: Poly, pres: Presentation) -> str:
    """Single-line canonical form: terms in descending monomial order,
    coefficients in canonical fraction form.  The CLI parser reads it back
    when every coefficient is within its input bounds: a coefficient of
    several terms reads as a sum, so one whose p- or q-degree span passes
    64 or whose integers pass 2^8192 does not."""
    if poly.is_zero:
        return "0"
    out = []
    for word, coeff in pres.sort_terms(poly):
        try:
            text = str(coeff)
        except ValueError:  # an integer past the interpreter's int-to-str limit
            raise DegreeCapExceeded(
                f"a coefficient in {pres.label!r} has an integer past the "
                f"{sys.get_int_max_str_digits()}-digit printing limit") from None
        # a bare monomial's leading minus can be pulled out as the sign
        if coeff.den.terms == {(0, 0): 1} and len(coeff.num.terms) == 1:
            negative = text.startswith("-")
            mag = text[1:] if negative else text
            if word and mag == "1":
                body = _word_str(word)
            elif word:
                body = f"{mag}*{_word_str(word)}"
            else:
                body = mag
            if not out:
                out.append("-" + body if negative else body)
            else:
                out.append((" - " if negative else " + ") + body)
        else:
            body = f"({text})"
            if word:
                body += f"*{_word_str(word)}"
            out.append(body if not out else " + " + body)
    return "".join(out)

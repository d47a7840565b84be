"""Per-layer measurement from outside the program.

`SpanTracer` wraps the public functions of each grasspq module and records
one span (name, layer, start, end, parent) per call.  Calls into `coeff`
are too many to keep one span each: their time is summed into the span
that made them.  Only the outermost call into `coeff` is timed, so the
`fractions` work under it counts as `coeff`.  Poly arithmetic is the
public face of `freealg`; it gets a span only when another layer calls it.

Modules bind names such as `normal_form` at import, so every grasspq
module's reference to a wrapped function is replaced, and put back by
`uninstall`.  A listed name that the program lacks raises, so a rename
breaks the traced run instead of reading 0.

`CountPass` is the counting pass: exact call counts that the span pass cannot
give without distorting its times.  `Fraction` and `RatFunc` constructions
come from a deterministic profiler; redexes and word lengths from a
wrapper around `Presentation.find_reduction`.
"""

from __future__ import annotations

import cProfile
import sys
from fractions import Fraction
from time import perf_counter

LAYER_FUNCTIONS = {
    "freealg": ("normal_form", "build_presentation", "overlap_check",
                "format_poly", "orient", "derive_relations", "specialize",
                "specialize_presentation", "irreducible_words",
                "free_algebra_on"),
    "matops": ("mat_mul", "closed_power", "power_relations_check",
               "rtt_residual", "span_equal", "generic_gr2", "generic_gr11",
               "generic_gr11_localized", "identity_matrix", "matrix_power",
               "inverse11", "sdet", "delta_left", "delta_right",
               "left_inverse", "right_inverse", "tensor_graded",
               "tensor_ungraded", "rhat"),
    "verify": ("suite_gr2", "suite_gr11", "suite_powers", "suite_all",
               "fault_injection_report", "mutate_preset", "mutation_witness"),
    "cli": ("parse", "eval_expr", "parse_poly", "parse_coeff",
            "load_presentation", "dump_presentation", "builtin_preset_text"),
}
POLY_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "scale")
RATFUNC_METHODS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__",
                   "__truediv__", "__pow__", "__eq__", "__bool__", "inv",
                   "evaluate", "substitute", "__str__")
RATFUNC_CLASSMETHODS = ("zero", "one", "const", "monomial", "p", "q")
COEFF_FUNCTIONS = ("qnum",)

# Span record fields.
NAME, LAYER, START, END, PARENT, COEFF_S = range(6)


def _grasspq_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "grasspq" or name.startswith("grasspq."))]


class _Patches:
    """Replaces attributes and module-level references, and restores them."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        """Wrap module.name and every other grasspq module's reference to it."""
        original = getattr(module, name, None)
        if original is None:
            raise AttributeError(f"{module.__name__} has no {name} to wrap")
        wrapper = make(original)
        for mod in _grasspq_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def method(self, cls, name, make, kind=None):
        original = cls.__dict__.get(name)
        if original is None:
            raise AttributeError(f"{cls.__name__} has no {name} to wrap")
        if kind is classmethod:
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._undo.append((cls, name, original))
        setattr(cls, name, wrapped)

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


class SpanTracer:
    def __init__(self, gp):
        self.gp = gp
        self.spans = []  # [name, layer, start, end, parent index, coeff seconds]
        self.root_coeff_s = 0.0  # coeff time outside any span
        self._patches = _Patches()

    def install(self):
        spans = self.spans
        stack = []
        in_coeff = False

        def span(name, layer, fn, outer_only=False):
            def wrapper(*args, **kwargs):
                if outer_only and stack and spans[stack[-1]][LAYER] == layer:
                    return fn(*args, **kwargs)
                rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                rec[START] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[END] = perf_counter()
                    stack.pop()
            return wrapper

        def coeff(fn):
            def wrapper(*args, **kwargs):
                nonlocal in_coeff
                if in_coeff:
                    return fn(*args, **kwargs)
                in_coeff = True
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    in_coeff = False
                    if stack:
                        spans[stack[-1]][COEFF_S] += dt
                    else:
                        self.root_coeff_s += dt
            return wrapper

        gp, p = self.gp, self._patches
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(gp, layer)
            for name in names:
                p.function(module, name, lambda fn, n=name, l=layer: span(n, l, fn))
        for name in POLY_OPS:
            p.method(gp.freealg.Poly, name,
                     lambda fn, n=name: span(f"Poly.{n}", "freealg", fn, outer_only=True))
        for name in RATFUNC_METHODS:
            p.method(gp.coeff.RatFunc, name, coeff)
        for name in RATFUNC_CLASSMETHODS:
            p.method(gp.coeff.RatFunc, name, coeff, kind=classmethod)
        for name in COEFF_FUNCTIONS:
            p.function(gp.coeff, name, coeff)

    def uninstall(self):
        self._patches.restore()

    def summary(self) -> dict:
        """Per-layer seconds and call counts of the recorded spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        out = {"coeff.s": self.root_coeff_s + sum(r[COEFF_S] for r in spans)}
        for layer in LAYER_FUNCTIONS:
            out[f"{layer}.self_s"] = 0.0
        calls, outer_s = {}, {}
        for i, rec in enumerate(spans):
            name, layer, dur = rec[NAME], rec[LAYER], rec[END] - rec[START]
            out[f"{layer}.self_s"] += dur - child_s[i] - rec[COEFF_S]
            calls[name] = calls.get(name, 0) + 1
            # a function's time counts once, at its outermost span
            parent = rec[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                outer_s[name] = outer_s.get(name, 0.0) + dur
        out["calls"] = calls
        out["seconds"] = outer_s
        return out

    def dump(self):
        """The spans as plain lists, for writing out."""
        return [list(r) for r in self.spans]


class CountPass:
    """Exact counts for one round; slow, so never timed."""

    def __init__(self, gp):
        self.gp = gp
        self.find_calls = 0
        self.redexes = 0
        self.max_word_len = 0
        self.max_terms = 0
        self._profile = cProfile.Profile()
        self._patches = _Patches()

    def install(self):
        profile = self._profile

        def find_reduction(fn):
            def wrapper(pres, w, *args, **kwargs):
                hit = fn(pres, w, *args, **kwargs)
                self.find_calls += 1
                self.redexes += hit is not None
                if len(w) > self.max_word_len:
                    self.max_word_len = len(w)
                return hit
            return wrapper

        def normal_form(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                profile.disable()
                for c in result.terms.values():
                    n = len(c.num.terms) + len(c.den.terms)
                    if n > self.max_terms:
                        self.max_terms = n
                profile.enable()
                return result
            return wrapper

        gp = self.gp
        self._patches.method(gp.freealg.Presentation, "find_reduction", find_reduction)
        self._patches.function(gp.freealg, "normal_form", normal_form)
        profile.enable()

    def uninstall(self):
        self._profile.disable()
        self._patches.restore()

    def summary(self) -> dict:
        RatFunc = self.gp.coeff.RatFunc
        # __neg__ builds its result without __init__
        ratfunc_codes = {RatFunc.__init__.__code__, RatFunc.__neg__.__code__}
        fractions = ratfuncs = 0
        for entry in self._profile.getstats():
            if entry.code == Fraction.__new__.__code__:
                fractions += entry.callcount
            elif entry.code in ratfunc_codes:
                ratfuncs += entry.callcount
        return {
            "coeff.fraction_new": fractions,
            "coeff.ratfunc_new": ratfuncs,
            "coeff.max_terms": self.max_terms,
            "freealg.rewrite_steps": self.redexes,
            "freealg.redex_hit_ratio": self.redexes / self.find_calls if self.find_calls else 0.0,
            "freealg.max_word_len": self.max_word_len,
        }

"""Seeded inputs, tasks and known-answer checks of the workloads.

Inputs are plain data (strings, integers) made from the seed alone, before
any timed work; the program under test sees only these inputs.  Every call
into grasspq goes through a module attribute looked up at call time, so
the tracer's wrappers are seen when they are installed.

A workload is a fixed task list (one "round").  Each round runs in a fresh
process, so every round starts with cold program state, as a user running
`grasspq` once does.
"""

from __future__ import annotations

import hashlib
import random

# The shipped presets; both workloads build all of them during set-up.
PRESET_NAMES = ("gr2", "gr11", "gr11_localized", "gr11_inverse",
                "plane_p20", "plane_q02", "plane_p11", "plane_q11_dual")

SUITE_REPORTS = ("gr2", "gr11", "powers", "fault_injection")

# Round sizes.  A full round takes a few seconds on one core; the smoke
# size is for the benchmark's own tests.
#   suite_passes: passes over SUITE_REPORTS, each pass in a seeded order
#   loads_per_preset, reduces, rational_reduces, checks: the request mix,
#     fixed so that every seed gives the same mix; the seed picks the
#     expressions and the order
SIZES = {
    "full": {"suite_passes": 6, "loads_per_preset": 8, "reduces": 2250, "rational_reduces": 24,
             "checks": 686},
    "smoke": {"suite_passes": 1, "loads_per_preset": 1, "reduces": 40, "rational_reduces": 8,
              "checks": 16},
}

# Known answers that do not come from the code under test: the number of
# checks in each report, the catalogued faults, the rule count of each
# shipped presentation.
SUITE_CHECK_COUNTS = {"gr2": 9, "gr11": 19, "powers": 14, "fault_injection": 10}
CAUGHT_MUTATIONS = (
    "gr2_flip_beta_alpha", "gr2_scale_gamma_alpha", "gr2_scale_gamma_delta",
    "gr2_flip_delta_alpha", "gr2_drop_sign_source_term", "gr11_scale_b_alpha",
    "gr11_swap_cb_coeff", "gr11_warp_source_term", "gr11_scale_c_delta",
    "gr11_flip_delta_alpha",
)
PRESET_RULE_COUNTS = {"gr2": 10, "gr11": 8, "gr11_localized": 19,
                      "gr11_inverse": 8, "plane_p20": 1, "plane_q02": 3,
                      "plane_p11": 2, "plane_q11_dual": 2}

# Letters of each preset, and its defining relations (expression = 0) as
# the paper states them; u*rel*v lies in the ideal for any words u, v.
LETTERS = {
    "gr2": ("alpha", "beta", "gamma", "delta"),
    "gr11": ("alpha", "b", "c", "delta"),
    "gr11_localized": ("alpha", "delta", "b", "c", "binv", "cinv"),
    "gr11_inverse": ("alpha", "b", "c", "delta"),
    "plane_p20": ("x", "y"),
    "plane_q02": ("xi", "eta"),
    "plane_p11": ("x", "xi"),
    "plane_q11_dual": ("eta", "y"),
}
_GR11 = ("alpha*b - p^-1*b*alpha", "alpha*c - q^-1*c*alpha",
         "delta*b - p^-1*b*delta", "delta*c - q^-1*c*delta",
         "alpha*delta + delta*alpha", "alpha*alpha", "delta*delta",
         "b*c - p*q^-1*c*b - (p - q^-1)*delta*alpha")
RELATIONS = {
    "gr2": ("alpha*beta + p^-1*beta*alpha", "alpha*gamma + q^-1*gamma*alpha",
            "gamma*delta + p^-1*delta*gamma", "beta*delta + q^-1*delta*beta",
            "alpha*delta + delta*alpha", "alpha*alpha", "beta*beta",
            "gamma*gamma", "delta*delta",
            "beta*gamma + p*q^-1*gamma*beta - (p - q^-1)*delta*alpha"),
    "gr11": _GR11,
    "gr11_localized": _GR11 + (
        "b*binv - 1", "binv*b - 1", "c*cinv - 1", "cinv*c - 1",
        "binv*alpha - p^-1*alpha*binv", "cinv*alpha - q^-1*alpha*cinv",
        "binv*delta - p^-1*delta*binv", "cinv*delta - q^-1*delta*cinv"),
    "gr11_inverse": ("alpha*b - p*b*alpha", "alpha*c - q*c*alpha",
                     "delta*b - p*b*delta", "delta*c - q*c*delta",
                     "alpha*delta + delta*alpha", "alpha*alpha", "delta*delta",
                     "b*c - p^-1*q*c*b - (p^-1 - q)*delta*alpha"),
    "plane_p20": ("x*y - p*y*x",),
    "plane_q02": ("xi*xi", "eta*eta", "eta*xi + q*xi*eta"),
    "plane_p11": ("x*xi - p*xi*x", "xi*xi"),
    "plane_q11_dual": ("eta*eta", "eta*y - q^-1*y*eta"),
}
# Coefficients: Laurent polynomials, and in a fixed number of reduce
# requests one quotient whose denominator is no monomial.  Such requests
# cost ten times more, so a varying number of them would make the work of
# a round depend on the seed.
COEFFS = ("1", "-1", "2", "-3", "1/2", "p", "q", "p^-1", "-q^-2", "p*q",
          "(p - q)", "(1 + p*q)", "(p - q^-1)", "(2*p^2 - 3*q)")
RATIONAL_COEFFS = ("1/(1 + p*q)", "(p + q)/(1 - p*q)", "q/(p - q)")


def _word(rng: random.Random, letters, lo: int, hi: int) -> str:
    return "*".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _reduce_text(rng: random.Random, letters, rational: bool) -> str:
    coeffs = [rng.choice(COEFFS) for _ in range(rng.randint(1, 4))]
    if rational:
        coeffs[rng.randrange(len(coeffs))] = rng.choice(RATIONAL_COEFFS)
    return " + ".join(f"{c}*{_word(rng, letters, 1, 4)}" for c in coeffs)


def _check_text(rng: random.Random, preset: str) -> str:
    letters = LETTERS[preset]
    parts = [rng.choice(COEFFS), _word(rng, letters, 0, 2),
             f"({rng.choice(RELATIONS[preset])})", _word(rng, letters, 0, 2)]
    return "*".join(p for p in parts if p)


def make_inputs(workload: str, seed: int, preset_texts=None, size: str = "full"):
    """The task list of one round.  `preset_texts` maps preset names to the
    shipped .preset file contents; only `requests` reads them."""
    n = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suites":
        tasks = []
        for _ in range(n["suite_passes"]):
            one_pass = list(SUITE_REPORTS)
            rng.shuffle(one_pass)
            tasks += [("report", name, seed) for name in one_pass]
        return tasks
    if workload == "requests":
        tasks = [("load", name, preset_texts[name])
                 for name in PRESET_NAMES for _ in range(n["loads_per_preset"])]
        for i in range(n["reduces"]):
            name = PRESET_NAMES[i % len(PRESET_NAMES)]
            text = _reduce_text(rng, LETTERS[name], i < n["rational_reduces"])
            tasks.append(("reduce", name, text))
        for i in range(n["checks"]):
            name = PRESET_NAMES[i % len(PRESET_NAMES)]
            tasks.append(("check", name, _check_text(rng, name)))
        rng.shuffle(tasks)
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Executes tasks against the imported grasspq modules and judges each
    output.  `run` is timed; `judge` and `canonical` are not."""

    def __init__(self, gp):
        self.gp = gp  # namespace with the grasspq submodules

    def run(self, task):
        kind, arg, extra = task
        gp = self.gp
        if kind == "report":
            if arg == "fault_injection":
                return gp.verify.fault_injection_report(extra)
            if arg == "powers":
                return gp.verify.suite_powers(3, extra)
            return getattr(gp.verify, f"suite_{arg}")(extra)
        if kind == "load":
            return gp.cli.load_presentation(extra, label=arg)
        pres = gp.freealg.preset(arg)
        poly = gp.cli.eval_expr(gp.cli.parse(extra, pres), pres)
        if kind == "reduce":
            return poly, gp.freealg.format_poly(poly, pres)
        return poly

    def judge(self, task, out) -> bool:
        """True when the output matches the known answer."""
        kind, arg, _ = task
        gp = self.gp
        if kind == "report":
            names = [c.name for c in out.checks]
            ok = out.passed and len(names) == SUITE_CHECK_COUNTS[arg]
            if arg == "fault_injection":
                ok = ok and sorted(names) == sorted(f"caught:{m}" for m in CAUGHT_MUTATIONS)
            return ok
        if kind == "load":
            builtin = gp.freealg.preset(arg)
            return (len(out.rules) == PRESET_RULE_COUNTS[arg] == len(builtin.rules)
                    and all(a.lhs == b.lhs and (a.rhs - b.rhs).is_zero
                            for a, b in zip(out.rules, builtin.rules)))
        if kind == "check":
            return out.is_zero
        # reduce: the printed normal form parses back to the same polynomial
        # and prints identically
        poly, text = out
        pres = gp.freealg.preset(arg)
        again = gp.cli.parse_poly(text, pres)
        return (again - poly).is_zero and gp.freealg.format_poly(again, pres) == text

    def canonical(self, task, out) -> str | None:
        """Text that enters the golden digest, or None."""
        kind = task[0]
        if kind == "report":
            return repr(out.signature())
        if kind == "reduce":
            return out[1]
        return None


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()

"""Structured pass/fail reports for identity checks and suites."""

from __future__ import annotations

import time
from typing import NamedTuple

MAX_RESIDUAL = 512  # characters of a residual that to_text prints
MAX_TERMS = 32  # terms of a polynomial that truncate_poly_text keeps


class Check(NamedTuple):
    name: str
    status: str  # pass | fail
    residual: str | None = None
    paper_ref: str | None = None  # the identity being checked, spelled out


def verdict(name: str, ok: bool, paper_ref: str | None, residual: str | None = None) -> Check:
    """The one place a bool becomes a pass or a fail."""
    return Check(name, "pass" if ok else "fail", residual, paper_ref)


class Report:
    def __init__(self, suite: str, seed: int | None = None):
        self.suite = suite
        self.checks: list[Check] = []
        self.seed = seed
        self.elapsed_ms = 0.0
        self._started = time.perf_counter()

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def expect(self, name: str, ok: bool, paper_ref: str | None,
               residual: str | None = None) -> None:
        self.add(verdict(name, ok, paper_ref, residual))

    def absorb(self, name: str, sub: Report) -> None:
        """One check standing for the whole of sub; a failure names sub's
        first failing check and its residual."""
        first = next(iter(sub.failures()), None)
        self.expect(name, first is None, sub.suite,
                    None if first is None else f"{first.name}: {first.residual or 'failed'}")

    def finish(self) -> Report:
        self.checks.sort(key=lambda c: c.name)
        self.elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        return self

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def signature(self):
        """Everything except timing; two runs with the same seed must agree."""
        return (self.suite, self.seed, tuple(tuple(c) for c in self.checks))

    def to_json(self) -> str:
        import json

        doc = {
            "suite": self.suite,
            "checks": [c._asdict() for c in self.checks],
            "seed": self.seed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"
                 f" ({len(self.checks)} checks, {self.elapsed_ms:.1f} ms"
                 + (f", seed={self.seed}" if self.seed is not None else "") + ")"]
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL"}[c.status]
            line = f"  [{mark}] {c.name}"
            if c.paper_ref:
                line += f"  -- {c.paper_ref}"
            lines.append(line)
            if c.residual:
                shown = c.residual
                if len(shown) > MAX_RESIDUAL:
                    shown = shown[:MAX_RESIDUAL] + " ... [truncated]"
                lines.append(f"         residual: {shown}")
        return "\n".join(lines)


def truncate_poly_text(text: str) -> str:
    """Clip very long polynomial printouts, keeping an explicit marker."""
    parts = text.split(" + ")
    if len(parts) <= MAX_TERMS:
        return text
    return " + ".join(parts[:MAX_TERMS]) + f" + ... [{len(parts) - MAX_TERMS} more terms]"

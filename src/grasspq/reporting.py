"""Structured pass/fail reports for identity checks and suites."""

from __future__ import annotations

import time

MAX_RESIDUAL = 512  # characters of a residual that to_text prints
MAX_TERMS = 32  # terms of a polynomial that truncate_poly_text keeps


class Check:
    __slots__ = ("name", "status", "residual", "paper_ref")

    def __init__(self, name: str, status: str, residual: str | None = None,
                 paper_ref: str | None = None):
        self.name = name
        self.status = status  # pass | fail
        self.residual = residual
        self.paper_ref = paper_ref  # the identity being checked, spelled out

    def _fields(self):
        return (self.name, self.status, self.residual, self.paper_ref)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Check):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "Check" + repr(self._fields())


class Report:
    def __init__(self, suite: str, seed: int | None = None):
        self.suite = suite
        self.checks: list[Check] = []
        self.seed = seed
        self.elapsed_ms = 0.0
        self._started = time.perf_counter()

    def add(self, check: Check) -> None:
        self.checks.append(check)

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
        return (self.suite, self.seed,
                tuple(c._fields() for c in self.checks))

    def to_json(self) -> str:
        import json

        doc = {
            "suite": self.suite,
            "checks": [
                {"name": c.name, "status": c.status, "residual": c.residual,
                 "paper_ref": c.paper_ref}
                for c in self.checks
            ],
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

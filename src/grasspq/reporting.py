"""Structured pass/fail reports for identity checks and suites."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    status: str  # pass | fail
    residual: str | None = None
    paper_ref: str | None = None  # the identity being checked, spelled out


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)
    seed: int | None = None
    elapsed_ms: float = 0.0
    _started: float = field(default_factory=time.perf_counter, repr=False)

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
                tuple((c.name, c.status, c.residual, c.paper_ref) for c in self.checks))

    def to_json(self) -> str:
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

    def to_text(self, max_residual: int = 512) -> str:
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
                if len(shown) > max_residual:
                    shown = shown[:max_residual] + " ... [truncated]"
                lines.append(f"         residual: {shown}")
        return "\n".join(lines)


def truncate_poly_text(text: str, max_terms: int = 32) -> str:
    """Clip very long polynomial printouts, keeping an explicit marker."""
    parts = text.split(" + ")
    if len(parts) <= max_terms:
        return text
    return " + ".join(parts[:max_terms]) + f" + ... [{len(parts) - max_terms} more terms]"

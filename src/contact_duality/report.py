"""Violation reports produced by the axiom and certificate checkers.

Checkers never raise on a failed axiom; they return a Report listing each
violated axiom id together with the lexicographically least witness found.
Reports are plain data so the CLI can render them as text or JSON and CI can
diff them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple = ()

    def to_json(self):
        return {"axiom": self.axiom, "witness": [_jsonable(w) for w in self.witness]}

    def render(self) -> str:
        if not self.witness:
            return self.axiom
        parts = ", ".join(_render(w) for w in self.witness)
        return f"{self.axiom} at ({parts})"


@dataclass(frozen=True)
class Report:
    subject: str
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        head = f"{self.subject}: {'pass' if self.ok else 'fail'}"
        lines = [head]
        lines.extend("  violated " + v.render() for v in self.violations)
        lines.extend("  note: " + n for n in self.notes)
        return "\n".join(lines)


def first_mismatch(left, right) -> int | None:
    """The least index at which two equal-length sequences differ, or None.
    Iterators are read pairwise, left first, and not past the first difference."""
    return next(compress(count(), map(ne, left, right)), None)


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _render(value) -> str:
    if isinstance(value, tuple):
        return "{" + ",".join(str(v) for v in value) + "}"
    return str(value)

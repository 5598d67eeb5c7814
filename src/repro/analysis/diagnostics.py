"""Structured findings for the static plan verifier.

Every check in :mod:`repro.analysis.verifier` (and the dynamic
byte-bounds cross-check in :mod:`repro.analysis.shadow`) reports
through one record type: a :class:`Diagnostic` names the violated
invariant (``code``), where it was observed (schedule step, buffer id,
byte range) and how bad it is (``severity``). Consumers — the CLI's
``verify-plan`` subcommand, :meth:`CompiledModel.load`, the
``compile-batch`` verdict — only ever look at the structured fields,
so a new check integrates by emitting a new code, never by teaching
callers a new exception type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["Diagnostic", "AnalysisReport", "ERROR", "WARNING"]

#: severity levels, in increasing order of badness
WARNING = "warning"
ERROR = "error"
_SEVERITIES = (WARNING, ERROR)


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding against a compiled plan.

    ``code`` is a stable machine-readable invariant name (e.g.
    ``ARENA_OVERLAP``, ``PREFETCH_RACE``); ``message`` is the human
    explanation. ``step`` is a full-schedule step index, ``buffer`` a
    buffer id and ``byte_range`` a half-open ``[lo, hi)`` span in the
    region the invariant concerns — all optional, filled when the check
    can localise the violation.
    """

    code: str
    severity: str
    message: str
    #: full-schedule step index the finding anchors to
    step: int | None = None
    #: node name at that step, when known
    node: str | None = None
    buffer: int | None = None
    byte_range: tuple[int, int] | None = None
    #: which plan artifact the invariant belongs to
    plan: str = "arena"

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"pick one of {_SEVERITIES}"
            )

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def format(self) -> str:
        """One human-readable line: ``CODE [locus]: message``."""
        locus = []
        if self.step is not None:
            locus.append(f"step {self.step}")
        if self.node is not None:
            locus.append(f"node {self.node!r}")
        if self.buffer is not None:
            locus.append(f"buffer {self.buffer}")
        if self.byte_range is not None:
            lo, hi = self.byte_range
            locus.append(f"bytes [{lo}, {hi})")
        where = f" ({', '.join(locus)})" if locus else ""
        return f"{self.severity.upper()} {self.code}{where}: {self.message}"

    def to_doc(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "step": self.step,
            "node": self.node,
            "buffer": self.buffer,
            "byte_range": list(self.byte_range) if self.byte_range else None,
            "plan": self.plan,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """All findings of one verification pass over one plan/artifact."""

    target: str
    diagnostics: tuple[Diagnostic, ...]
    #: names of the check families that actually ran (a skipped check —
    #: e.g. spill analysis on an artifact without spill plans — is
    #: absent, so "no findings" is never confused with "not checked")
    checks: tuple[str, ...] = field(default_factory=tuple)
    level: str = "full"

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding exists."""
        return not self.errors

    def codes(self) -> frozenset[str]:
        return frozenset(d.code for d in self.diagnostics)

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def summary(self) -> str:
        """Multi-line human report (the ``verify-plan`` output body)."""
        errs, warns = self.errors, self.warnings
        verdict = (
            "PASS"
            if self.ok and not warns
            else ("PASS (with warnings)" if self.ok else "FAIL")
        )
        lines = [
            f"{self.target}: {verdict} — {len(errs)} error(s), "
            f"{len(warns)} warning(s); checks: "
            f"{', '.join(self.checks) if self.checks else 'none'}"
        ]
        for d in self.diagnostics:
            lines.append(f"  {d.format()}")
        return "\n".join(lines)

    def to_doc(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "ok": self.ok,
            "level": self.level,
            "checks": list(self.checks),
            "diagnostics": [d.to_doc() for d in self.diagnostics],
        }

    @classmethod
    def merged(cls, target: str, reports: Iterable["AnalysisReport"]) -> "AnalysisReport":
        """Concatenate several partial reports into one."""
        reports = list(reports)
        seen: dict[str, None] = {}
        for r in reports:
            for c in r.checks:
                seen.setdefault(c, None)
        return cls(
            target=target,
            diagnostics=tuple(d for r in reports for d in r.diagnostics),
            checks=tuple(seen),
            level=reports[0].level if reports else "full",
        )

"""Claim outcome records and report rendering (text and JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "REFUTED",
    "SKIPPED",
    "VERIFIED",
    "ClaimOutcome",
    "ClaimReport",
    "parse_report_json",
    "render_report",
]

VERIFIED = "verified"
REFUTED = "refuted"
SKIPPED = "skipped"
_STATUSES = (VERIFIED, REFUTED, SKIPPED)


def _check_status(status: str, witness, reason) -> None:
    if status not in _STATUSES:
        raise ValueError(f"unknown status {status!r}")
    if status == REFUTED and not witness:
        raise ValueError("refuted outcomes must carry a witness")
    if status == SKIPPED and not reason:
        raise ValueError("skipped outcomes must carry a reason")


@dataclass(frozen=True)
class ClaimOutcome:
    """Per-ring result of one claim checker."""

    status: str
    witness: Optional[str] = None
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __post_init__(self):
        _check_status(self.status, self.witness, self.reason)


@dataclass(frozen=True)
class ClaimReport:
    """One (claim, ring) audit row; refuted rows carry a witness."""

    claim: str
    ring: str
    status: str
    witness: Optional[str] = None
    reason: Optional[str] = None
    detail: Optional[str] = None
    elapsed_ms: float = 0.0

    def __post_init__(self):
        _check_status(self.status, self.witness, self.reason)


def _render_text(reports) -> str:
    lines = []
    for r in reports:
        line = f"{r.claim} {r.ring} {r.status}"
        if r.witness:
            line += f" {r.witness}"
        lines.append(line)
    return "\n".join(lines)


def _render_json(reports) -> str:
    rows = [
        {
            "claim": r.claim,
            "ring": r.ring,
            "status": r.status,
            "witness": r.witness,
            "reason": r.reason,
            "detail": r.detail,
            "elapsed_ms": r.elapsed_ms,
        }
        for r in reports
    ]
    return json.dumps(rows, indent=2, ensure_ascii=False)


def render_report(reports, format: str = "text") -> str:
    """Render reports as "CLAIM ring status [witness]" lines or a JSON array."""
    if format == "text":
        return _render_text(reports)
    if format == "json":
        return _render_json(reports)
    raise ValueError(f"unknown report format {format!r}")


def parse_report_json(text: str) -> list[ClaimReport]:
    """Inverse of render_report(..., "json")."""
    rows = json.loads(text)
    return [
        ClaimReport(
            claim=row["claim"],
            ring=row["ring"],
            status=row["status"],
            witness=row.get("witness"),
            reason=row.get("reason"),
            detail=row.get("detail"),
            elapsed_ms=row.get("elapsed_ms", 0.0),
        )
        for row in rows
    ]

"""Claim outcome records and report rendering (text and JSON)."""

from __future__ import annotations

import json
import math
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


def _json_list(items: list[str], indent: int) -> str:
    """A list of encoded items as json.dumps writes it at indent 2, its
    closing bracket indent columns in."""
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]" if items else "[]"


def _json_number(value) -> str:
    """An int or a float as json.dumps spells it."""
    if not isinstance(value, float):
        return int.__repr__(value)
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _render_json(reports) -> str:
    """json.dumps(rows, indent=2, ensure_ascii=False), byte for byte, of one
    dict per report with the schema's keys in field order, each row filled
    into that fixed shape at C speed: indent selects json's pure-Python
    encoder, which took three times as long on the corpus report."""
    quote = json.encoder.encode_basestring  # json's C string encoder, ensure_ascii=False
    rows = []
    for r in reports:
        witness, reason, detail = ["null" if text is None else quote(text) for text in (r.witness, r.reason, r.detail)]
        rows.append(
            f'{{\n    "claim": {quote(r.claim)},\n    "ring": {quote(r.ring)},\n    "status": {quote(r.status)},'
            f'\n    "witness": {witness},\n    "reason": {reason},\n    "detail": {detail},'
            f'\n    "elapsed_ms": {_json_number(r.elapsed_ms)}\n  }}'
        )
    return _json_list(rows, 0)


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

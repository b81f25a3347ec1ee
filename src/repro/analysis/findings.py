"""Findings: what a rule reports, anchored to one file and line."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""
    #: waiver tag that silences this finding (set by the emitting rule)
    waiver: str = ""

    def to_doc(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

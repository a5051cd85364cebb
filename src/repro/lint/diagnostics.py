"""Diagnostic records and the rule-code catalogue.

Every finding the analyzer produces is a :class:`Diagnostic` — one rule
violation at one source location.  Rule codes are stable identifiers
(``RL001``…): they appear in output and in inline suppressions
(``# repro-lint: disable=RL001``), so renaming a code is a breaking
change.  :data:`RULE_CATALOGUE` maps each code to its one-line summary;
``docs/lint.md`` carries the full rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Stable rule codes, one per built-in checker.  The catalogue is the
#: single source of truth for which codes exist; ``docs/lint.md``
#: documents each one.
RULE_CATALOGUE: Dict[str, str] = {
    "RL001": "layering: a package imported a package it is not declared to depend on",
    "RL002": "determinism: nondeterministic RNG use (unseeded random/np.random)",
    "RL003": "determinism: wall-clock reads inside result-affecting code",
    "RL004": "determinism: iteration over an unordered set in result-affecting code",
    "RL005": "reference isolation: optimised and reference implementations must not entangle",
    "RL006": "picklability: process-boundary types must pickle structurally",
    "RL007": "observer purity: observers must not mutate engine-owned state",
    "RL008": "docstrings: public names in gated modules must be documented",
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str

    def format_text(self) -> str:
        """``path:line:col: CODE message`` — the text output form."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        """The JSON output form (see ``docs/lint.md`` for the schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
        }

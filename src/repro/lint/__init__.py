"""``repro.lint`` — AST-based invariant analysis for this repository.

The architecture, determinism and reference-equivalence rules this
codebase depends on (one-way layering, seeded-RNG threading, reference
modules isolated from their optimised counterparts, picklable
process-boundary types, pure observers, documented public APIs) used to
live only in prose — ``docs/ARCHITECTURE.md`` — and in reviewer
discipline.  This package turns them into machine-checked rules:

- :class:`~repro.lint.core.Checker` subclasses walk each file's AST and
  emit :class:`~repro.lint.diagnostics.Diagnostic` records with stable
  rule codes (``RL001``…); the built-in checkers live in
  :mod:`repro.lint.checkers` and the rule catalogue in
  ``docs/lint.md``;
- intentional exceptions are annotated inline
  (``# repro-lint: disable=RL001``) next to the code they excuse;
- the ``coserve-lint`` console script (:mod:`repro.lint.cli`) runs the
  analysis with ``--format text|json`` and exits non-zero on any
  finding no inline pragma covers — CI and ``tests/test_lint.py`` both
  gate on it.

The package imports nothing from the rest of ``repro`` (it is a tool
*about* the codebase, not part of it) and is itself subject to every
rule it enforces.
"""

from repro.lint.core import (
    Checker,
    FileContext,
    LintReport,
    LintRunner,
    default_checkers,
    register,
    registered_checkers,
)
from repro.lint.diagnostics import Diagnostic

__all__ = [
    "Checker",
    "Diagnostic",
    "FileContext",
    "LintReport",
    "LintRunner",
    "default_checkers",
    "register",
    "registered_checkers",
]

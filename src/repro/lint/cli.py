"""The ``coserve-lint`` command line.

Usage::

    coserve-lint [PATHS ...] [--format text|json] [--rules CODE[,CODE...]]
                 [--list-rules]

Paths default to ``src``.  Exit status: 0 clean, 1 findings no inline
``# repro-lint: disable=`` pragma covers (or analysis errors), 2 usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.lint.core import LintReport, LintRunner, default_checkers
from repro.lint.diagnostics import RULE_CATALOGUE


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for ``--help`` documentation tests)."""
    parser = argparse.ArgumentParser(
        prog="coserve-lint",
        description="AST-based invariant analysis for the CoServe reproduction "
        "(rule catalogue: docs/lint.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="CODES",
        help="comma-separated rule codes or names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _print_text(report: LintReport) -> None:
    for diagnostic in report.diagnostics:
        print(diagnostic.format_text())
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    summary = (
        f"{len(report.diagnostics)} finding(s), "
        f"{report.suppressed} suppressed across {report.files_checked} file(s)"
    )
    print(summary if report.diagnostics else f"lint OK: {summary}")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``coserve-lint`` console script."""
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for code, summary in sorted(RULE_CATALOGUE.items()):
            print(f"{code}  {summary}")
        return 0

    try:
        rules = options.rules.split(",") if options.rules else None
        checkers = default_checkers(rules)
    except ValueError as exc:
        parser.error(str(exc))

    report = LintRunner(checkers=checkers).run(options.paths)
    if options.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

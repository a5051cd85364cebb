"""RL008 — the public-docstring gate, as a lint rule.

The rules are deliberately small — this is a documentation gate, not a
style linter:

- every module needs a module docstring;
- every public (non-underscore) module-level class and function needs
  a docstring;
- every public method of a public class needs a docstring, except
  dunders (``__init__`` semantics belong in the class docstring, which
  is where this codebase documents parameters).

Names starting with ``_`` are implementation detail and exempt (so are
the methods of a private class).  The rule scopes itself to
:data:`GATED_PREFIXES` — the surfaces ``docs/`` leans on most.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.core import Checker, FileContext, register
from repro.lint.diagnostics import Diagnostic

#: Module-name prefixes gated when running under the full analyzer:
#: the documented sweep/surrogate/session surfaces, plus this package
#: (the analyzer holds itself to its own gate).
GATED_PREFIXES: Tuple[str, ...] = (
    "repro.sweeps",
    "repro.surrogate",
    "repro.simulation.session",
    "repro.lint",
)


@register
class DocstringChecker(Checker):
    """Public names in the gated modules must carry docstrings."""

    code = "RL008"
    name = "docstrings"

    def applies_to(self, ctx: FileContext) -> bool:
        """Gate the documented surfaces (see :data:`GATED_PREFIXES`)."""
        if ctx.module is None:
            return False
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in GATED_PREFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield a diagnostic per undocumented public name."""
        if ast.get_docstring(ctx.tree) is None:
            yield Diagnostic(
                path=ctx.rel_path, line=1, column=0, rule="RL008",
                message="missing docstring on module",
            )
        yield from _check_body(ctx, ctx.tree.body, prefix="")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_body(
    ctx: FileContext, body: List[ast.stmt], prefix: str
) -> Iterator[Diagnostic]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_public(node.name):
                continue
            if ast.get_docstring(node) is None:
                kind = "method" if prefix else "function"
                yield ctx.diagnostic(
                    node, "RL008",
                    f"missing docstring on {kind} {prefix}{node.name}",
                )
        elif isinstance(node, ast.ClassDef):
            if not _is_public(node.name):
                continue
            if ast.get_docstring(node) is None:
                yield ctx.diagnostic(
                    node, "RL008", f"missing docstring on class {prefix}{node.name}"
                )
            yield from _check_body(ctx, node.body, prefix=f"{prefix}{node.name}.")

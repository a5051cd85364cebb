"""RL001 — the one-way layer map, enforced.

``docs/ARCHITECTURE.md`` draws the layer diagram; this checker enforces
its machine-readable form (:mod:`repro.lint.layers`).  A module-level
runtime import from package *A* to package *B* is rejected unless *B*
appears in *A*'s declared allowance — so ``hardware`` can never import
``simulation``, nothing below the top layer can import ``experiments``,
and a brand-new package fails until the layer map places it.

``if TYPE_CHECKING:`` imports and function-local imports are exempt:
they are the codebase's sanctioned escape hatches for typing cycles and
deliberate laziness, and they cannot create import-time dependency.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Checker, FileContext, register
from repro.lint.diagnostics import Diagnostic
from repro.lint.layers import allowed_for
from repro.lint.checkers.util import iter_module_level_imports, resolve_import_targets


@register
class LayeringChecker(Checker):
    """Reject module-level imports that leave the declared layer map."""

    code = "RL001"
    name = "layering"

    def applies_to(self, ctx: FileContext) -> bool:
        """Only modules inside the ``repro`` tree have a layer."""
        return ctx.module is not None and ctx.package is not None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag imports whose target package is not in the allowance."""
        assert ctx.package is not None
        allowed = allowed_for(ctx.package)
        is_package = ctx.rel_path.endswith("__init__.py")
        for node in iter_module_level_imports(ctx.tree):
            for target in resolve_import_targets(node, ctx.module, is_package):
                parts = target.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                target_package = parts[1]
                if target_package == ctx.package or target_package not in _known_packages():
                    # ``from repro import MB`` style root-attribute
                    # imports have no package component to judge.
                    continue
                if target_package not in allowed:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"package 'repro.{ctx.package or ''}' may not import "
                        f"'repro.{target_package}' at module level "
                        f"(layer map: repro/lint/layers.py)",
                    )
                    break  # one diagnostic per import statement


def _known_packages() -> frozenset:
    from repro.lint.layers import ALLOWED_IMPORTS

    return frozenset(ALLOWED_IMPORTS)

"""The machine-readable layer map of ``src/repro``.

This is the declaration the :mod:`repro.lint.checkers.layering` checker
enforces — the ``docs/ARCHITECTURE.md`` layer diagram as data.  For
every package directly under ``repro``, :data:`ALLOWED_IMPORTS` lists
the packages it may import **at module level at runtime**.  Imports
inside ``if TYPE_CHECKING:`` blocks and inside function bodies are
exempt by design: they are the sanctioned escape hatches for typing
cycles and deliberate laziness (e.g. ``repro.sweeps.runner`` importing
the experiments layer only when it builds a context), and both patterns
are already idiomatic in this codebase.  ``sweeps`` → ``surrogate`` is
also a sanctioned *module-level* edge: the sweep planner
(``repro.sweeps.halving``) is built around the surrogate, and the
surrogate package never imports ``sweeps`` at runtime, so the edge is
acyclic.

The map is intentionally an *allowlist*, not a rank order: the two
declared exception pairs (``core`` ↔ ``simulation``, whose §4 technique
classes wrap the executor data model, and ``simulation`` → ``metrics``,
the collector every session fills through its built-in observer) would
be unexpressible as a total order.
Widening an entry is an architectural decision — do it in a PR that
says so, not by sprinkling suppressions.

``tests/test_lint.py`` asserts this declaration stays in sync with the
actual package list under ``src/repro``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Package → packages it may import at module level.  ``experiments``
#: is the top layer and may reach everything below it; ``hardware`` is
#: the bottom and may reach nothing; ``lint`` (this package) and
#: ``metrics`` (which attaches through the structural observer
#: protocol, never by importing the simulator) stand alone.
ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "analysis": frozenset({"simulation"}),
    "coe": frozenset({"experts", "hardware"}),
    "core": frozenset({"coe", "hardware", "policies", "simulation"}),
    "experiments": frozenset(
        {
            "analysis",
            "coe",
            "core",
            "experts",
            "hardware",
            "metrics",
            "policies",
            "scheduling",
            "serving",
            "simulation",
            "surrogate",
            "sweeps",
            "workload",
        }
    ),
    "experts": frozenset({"hardware"}),
    "hardware": frozenset(),
    "lint": frozenset(),
    "metrics": frozenset(),
    "policies": frozenset({"hardware"}),
    "scheduling": frozenset({"hardware", "simulation"}),
    "serving": frozenset(
        {"coe", "core", "hardware", "policies", "scheduling", "simulation", "workload"}
    ),
    "simulation": frozenset(
        {"coe", "core", "hardware", "metrics", "policies", "scheduling", "workload"}
    ),
    "surrogate": frozenset(
        {"coe", "core", "hardware", "serving", "simulation", "workload"}
    ),
    "sweeps": frozenset(
        {
            "coe",
            "core",
            "hardware",
            "metrics",
            "serving",
            "simulation",
            "surrogate",
            "workload",
        }
    ),
    "workload": frozenset({"coe", "experts", "hardware"}),
}


def allowed_for(package: str) -> FrozenSet[str]:
    """Packages ``package`` may import at module level.

    The root package itself (``repro/__init__.py`` and any future
    top-level module) is unconstrained: it is the public façade and
    re-exports from every layer.  Unknown packages get an empty
    allowance, so a new package fails the layering check until it is
    added to :data:`ALLOWED_IMPORTS` — which is exactly when its place
    in the architecture should be decided.
    """
    if package == "":
        return frozenset(ALLOWED_IMPORTS)
    return ALLOWED_IMPORTS.get(package, frozenset())

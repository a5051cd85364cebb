"""Every third-party module the package imports is declared in setup.py.

An import that only works because the test machine happens to have the
module installed breaks ``pip install`` users and CI alike, so this
walks every module under ``src/repro`` — function-local and
``TYPE_CHECKING`` imports included — and checks each absolute import
against the standard library and ``install_requires``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _requirement_name(spec):
    """``"numpy>=1.22"`` -> ``"numpy"`` (normalised like an import name)."""
    return re.split(r"[<>=!~;\[\s]", spec, maxsplit=1)[0].lower().replace("-", "_")


def _install_requires():
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return {_requirement_name(spec) for spec in ast.literal_eval(keyword.value)}
    return set()


def _imported_top_level_names(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_every_third_party_import_is_declared():
    declared = _install_requires()
    assert "numpy" in declared
    undeclared = sorted(
        f"{path.relative_to(ROOT).as_posix()}: {name}"
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in set(_imported_top_level_names(path))
        if name != "repro" and name not in sys.stdlib_module_names and name.lower() not in declared
    )
    assert undeclared == []

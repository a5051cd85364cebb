"""The package's imports: every third-party one is declared, none is unused.

An import that only works because the test machine happens to have the
module installed breaks ``pip install`` users and CI alike, so this
walks every module under ``src/repro`` — function-local and
``TYPE_CHECKING`` imports included — and checks each absolute import
against the standard library and ``install_requires``.  The same walk
flags names a module imports and never uses, and annotation names it
never binds.
"""

import ast
import builtins
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


def _imported_bindings(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotation_names(tree):
    """``(name, line)`` for every name an annotation reads, string
    annotations parsed (a name inside one gets the annotation's line)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append((node.annotation, node.annotation.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append((node.returns, node.returns.lineno))
    while annotations:
        annotation, line = annotations.pop()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                yield node.id, line
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:  # a string annotation, e.g. "Optional[ServingSimulation]"
                    annotations.append((ast.parse(node.value, mode="eval").body, line))
                except SyntaxError:  # a plain string, e.g. inside Literal[...]
                    pass


def _used_names(tree):
    """Every name the module reads, string annotations and ``__all__`` included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield from ast.literal_eval(node.value)
    yield from (name for name, _ in _annotation_names(tree))


def _bound_names(tree):
    """Every name the module imports, defines or assigns, at any depth."""
    yield from (name for name, _ in _imported_bindings(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_no_unused_imports():
    """``__init__.py`` re-exports and lines marked ``# noqa: F401`` (a
    deliberate re-export or side-effect import) are exempt."""
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = set(_used_names(tree))
        unused.extend(
            f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
            for name, line in _imported_bindings(tree)
            if name not in used and "# noqa: F401" not in lines[line - 1]
        )
    assert unused == []


def test_annotation_names_are_bound():
    """Every name an annotation reads is imported, defined or assigned in
    its module, or is a builtin.  Annotations are not evaluated
    (``from __future__ import annotations``), so nothing else notices a
    type name the module never imports."""
    builtin_names = set(dir(builtins))
    unbound = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = set(_bound_names(tree)) | builtin_names
        unbound.extend(
            f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
            for name, line in _annotation_names(tree)
            if name not in bound
        )
    assert unbound == []

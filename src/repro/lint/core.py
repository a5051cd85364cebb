"""The analyzer core: file contexts, the checker registry, the runner.

A :class:`LintRunner` expands its input paths into Python files, parses
each one once into a :class:`FileContext` (AST + module identity +
inline suppressions), hands the context to every registered
:class:`Checker` whose :meth:`Checker.applies_to` accepts it, and folds
the resulting diagnostics against the inline suppressions into a
:class:`LintReport`.

Checkers self-register via the :func:`register` decorator; importing
:mod:`repro.lint.checkers` pulls in the built-in set
(:func:`default_checkers`).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

from repro.lint.diagnostics import RULE_CATALOGUE, Diagnostic

#: Inline suppression pragmas.  ``disable`` acts on its own line;
#: ``disable-file`` anywhere in a file exempts the whole file.  A
#: justification comment should accompany every use (the rule catalogue
#: in ``docs/lint.md`` shows the idiom).
_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_DISABLE_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


def _parse_codes(raw: str) -> Set[str]:
    return {code.strip() for code in raw.split(",") if code.strip()}


class FileContext:
    """One parsed source file plus everything checkers ask about it.

    Parameters
    ----------
    path:
        Path the file was read from (used in diagnostics, made relative
        to the current directory when possible).
    source:
        The file's text.  The AST is parsed once here and shared by
        every checker.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.rel_path = _relativize(path)
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.module = _module_name(self.rel_path)
        self.package = _package_name(self.module)
        self._line_suppressions: Dict[int, Set[str]] = {}
        self._file_suppressions: Set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _DISABLE_RE.search(line)
            if match:
                self._line_suppressions[lineno] = _parse_codes(match.group(1))
            match = _DISABLE_FILE_RE.search(line)
            if match:
                self._file_suppressions |= _parse_codes(match.group(1))

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        """True when an inline pragma covers this diagnostic."""
        if diagnostic.rule in self._file_suppressions:
            return True
        codes = self._line_suppressions.get(diagnostic.line)
        return codes is not None and diagnostic.rule in codes

    def diagnostic(self, node: ast.AST, rule: str, message: str) -> Diagnostic:
        """Build a diagnostic anchored at ``node`` in this file."""
        return Diagnostic(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


def _relativize(path: str) -> str:
    """A forward-slash path relative to the working directory if possible."""
    candidate = os.path.relpath(path)
    if candidate.startswith(".."):
        candidate = path
    return candidate.replace(os.sep, "/")


def _module_name(rel_path: str) -> Optional[str]:
    """Dotted module name for a path containing a ``repro`` component.

    ``src/repro/sweeps/spec.py`` → ``repro.sweeps.spec``;
    ``src/repro/__init__.py`` → ``repro``.  Files outside a ``repro``
    tree (fixtures, scratch scripts) get ``None`` and are still checked
    by every checker that does not need a module identity.
    """
    parts = rel_path.split("/")
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[index:]
    last = dotted[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        dotted = dotted[:-1]
    else:
        dotted = dotted[:-1] + [last]
    return ".".join(dotted)


def _package_name(module: Optional[str]) -> Optional[str]:
    """First package component under ``repro`` (``""`` for the root)."""
    if module is None:
        return None
    parts = module.split(".")
    if len(parts) == 1:
        return ""
    return parts[1]


class Checker:
    """Base class of every rule.  Subclass, set the class attributes,
    implement :meth:`check`, and decorate with :func:`register`.

    ``code`` is the stable rule identifier (must exist in
    :data:`~repro.lint.diagnostics.RULE_CATALOGUE`), ``name`` a short
    slug used by ``--rules`` filtering.
    """

    code: str = ""
    name: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this checker wants to see ``ctx`` at all.

        Overriding this is how rules scope themselves (the determinism
        rules to the result-affecting packages, the docstring rule to
        the documented surfaces) without every checker re-filtering.
        """
        return True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError


#: Registered checker classes, keyed by rule code.
_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.code or cls.code not in RULE_CATALOGUE:
        raise ValueError(f"checker {cls.__name__} must declare a catalogued rule code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate checker for rule {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def registered_checkers() -> Dict[str, Type[Checker]]:
    """A snapshot of the registry (code → checker class)."""
    import repro.lint.checkers  # noqa: F401  (self-registration side effect)

    return dict(_REGISTRY)


def default_checkers(rules: Optional[Iterable[str]] = None) -> List[Checker]:
    """Instances of every registered checker, optionally filtered.

    ``rules`` accepts rule codes (``RL001``) or checker names
    (``layering``); unknown selectors raise so typos fail loudly.
    """
    registry = registered_checkers()
    if rules is None:
        return [cls() for _, cls in sorted(registry.items())]
    by_selector = {code: cls for code, cls in registry.items()}
    by_selector.update({cls.name: cls for cls in registry.values()})
    selected = []
    for selector in rules:
        if selector not in by_selector:
            raise ValueError(f"unknown rule selector '{selector}'")
        selected.append(by_selector[selector])
    return [cls() for cls in dict.fromkeys(selected)]


@dataclass(slots=True)
class LintReport:
    """Outcome of one analyzer run.

    ``diagnostics`` are the findings no inline pragma covers — the run
    fails iff this list is non-empty — and ``suppressed`` counts the
    inline-pragma hits.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run produced no live findings and no errors."""
        return not self.diagnostics and not self.errors

    def to_json(self) -> Dict[str, object]:
        """The machine-readable report (schema documented in docs/lint.md)."""
        return {
            "version": 2,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "errors": list(self.errors),
        }


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in sorted(os.walk(path)):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(root, filename)
        else:
            yield path


class LintRunner:
    """Run a set of checkers over a set of paths.

    Parameters
    ----------
    checkers:
        Checker instances; defaults to every registered rule.
    """

    def __init__(self, checkers: Optional[Sequence[Checker]] = None) -> None:
        self.checkers = list(checkers) if checkers is not None else default_checkers()

    def run(self, paths: Sequence[str]) -> LintReport:
        """Analyze every Python file under ``paths`` into a report."""
        report = LintReport()
        for path in iter_python_files(paths):
            report.files_checked += 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    ctx = FileContext(path, handle.read())
            except (OSError, SyntaxError, ValueError) as exc:
                report.errors.append(f"{path}: {exc}")
                continue
            for checker in self.checkers:
                if not checker.applies_to(ctx):
                    continue
                for diagnostic in checker.check(ctx):
                    if ctx.is_suppressed(diagnostic):
                        report.suppressed += 1
                    else:
                        report.diagnostics.append(diagnostic)
        report.diagnostics.sort(key=lambda d: (d.path, d.line, d.rule))
        return report

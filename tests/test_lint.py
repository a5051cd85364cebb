"""Tests for the ``repro.lint`` invariant analyzer.

Three layers of coverage:

- **Registry and repo health** — every catalogued rule has a live
  checker (removing one fails here), the declared layer map matches the
  actual package list, the observer-hook list matches ``SimObserver``,
  and the tree itself lints clean.
- **Per-rule fixtures** — for each rule a seeded positive snippet that
  must be detected, a negative snippet that must not be, and scoping
  checks.  If a checker stops seeing its seeded violation, these fail.
- **Machinery** — inline suppressions, and the CLI's JSON schema and
  exit codes.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    FileContext,
    LintRunner,
    default_checkers,
    registered_checkers,
)
from repro.lint.checkers.determinism import DETERMINISM_PACKAGES
from repro.lint.checkers.docstrings import GATED_PREFIXES
from repro.lint.checkers.observers import OBSERVER_HOOKS
from repro.lint.cli import main as lint_main
from repro.lint.diagnostics import RULE_CATALOGUE
from repro.lint.layers import ALLOWED_IMPORTS, allowed_for

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def run_rule(code, path, source):
    """Diagnostics one rule produces for a fixture, or None if out of scope."""
    (checker,) = default_checkers([code])
    ctx = FileContext(path, textwrap.dedent(source))
    if not checker.applies_to(ctx):
        return None
    return list(checker.check(ctx))


class TestRegistry:
    def test_every_catalogued_rule_has_a_checker(self):
        # Removing any checker module (or its @register) fails here.
        assert set(registered_checkers()) == set(RULE_CATALOGUE)

    def test_catalogue_is_the_eight_documented_rules(self):
        assert sorted(RULE_CATALOGUE) == [f"RL00{i}" for i in range(1, 9)]

    def test_default_checkers_instantiates_every_rule(self):
        checkers = default_checkers()
        assert sorted(c.code for c in checkers) == sorted(RULE_CATALOGUE)

    def test_selection_by_code_and_name(self):
        by_code = default_checkers(["RL001"])
        by_name = default_checkers(["layering"])
        assert len(by_code) == len(by_name) == 1
        assert type(by_code[0]) is type(by_name[0])

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError):
            default_checkers(["RL999"])


class TestDeclarationSync:
    def test_layer_map_matches_package_directories(self):
        packages = {
            entry
            for entry in os.listdir(os.path.join(SRC, "repro"))
            if os.path.isfile(os.path.join(SRC, "repro", entry, "__init__.py"))
        }
        assert set(ALLOWED_IMPORTS) == packages

    def test_layer_allowances_name_only_known_packages(self):
        for package, allowance in ALLOWED_IMPORTS.items():
            unknown = allowance - set(ALLOWED_IMPORTS)
            assert not unknown, f"{package} allows unknown packages {unknown}"
            assert package not in allowance, f"{package} need not allow itself"

    def test_root_package_is_unconstrained(self):
        assert allowed_for("") == frozenset(ALLOWED_IMPORTS)

    def test_unknown_package_gets_empty_allowance(self):
        assert allowed_for("brand_new_package") == frozenset()

    def test_observer_hooks_match_simobserver(self):
        from repro.simulation.session import SimObserver

        actual = {
            name for name in vars(SimObserver) if name.startswith("on_")
        }
        assert OBSERVER_HOOKS == actual

    def test_determinism_scope_and_docstring_gate_name_real_packages(self):
        assert DETERMINISM_PACKAGES <= set(ALLOWED_IMPORTS)
        for prefix in GATED_PREFIXES:
            top = prefix.split(".")[1]
            assert top in ALLOWED_IMPORTS


class TestRepoIsClean:
    def test_src_lints_clean(self):
        report = LintRunner().run([SRC])
        formatted = "\n".join(d.format_text() for d in report.diagnostics)
        assert report.ok, f"live lint findings:\n{formatted}"
        assert report.files_checked > 100


class TestLayeringRule:
    def test_disallowed_upward_import_is_flagged(self):
        found = run_rule(
            "RL001",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            from repro.simulation.engine import ServingSimulation
            ''',
        )
        assert len(found) == 1 and found[0].rule == "RL001"

    def test_declared_dependency_is_allowed(self):
        found = run_rule(
            "RL001",
            "src/repro/policies/fixture.py",
            '''
            """Fixture."""
            from repro.hardware.devices import DEVICES
            ''',
        )
        assert found == []

    def test_type_checking_imports_are_exempt(self):
        found = run_rule(
            "RL001",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.simulation.engine import ServingSimulation
            ''',
        )
        assert found == []

    def test_function_local_imports_are_exempt(self):
        found = run_rule(
            "RL001",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            def attach():
                """Deliberately lazy."""
                from repro.simulation.engine import ServingSimulation
                return ServingSimulation
            ''',
        )
        assert found == []


class TestDeterminismRules:
    def test_global_rng_call_is_flagged(self):
        found = run_rule(
            "RL002",
            "src/repro/workload/fixture.py",
            '''
            """Fixture."""
            import random
            JITTER = random.random()
            ''',
        )
        assert len(found) == 1 and found[0].rule == "RL002"

    def test_global_rng_import_is_flagged(self):
        found = run_rule(
            "RL002",
            "src/repro/workload/fixture.py",
            '''
            """Fixture."""
            from random import shuffle
            ''',
        )
        assert len(found) == 1

    def test_seeded_generators_are_allowed(self):
        found = run_rule(
            "RL002",
            "src/repro/workload/fixture.py",
            '''
            """Fixture."""
            import random
            import numpy as np
            RNG = np.random.default_rng(7)
            FALLBACK = random.Random(7)
            ''',
        )
        assert found == []

    def test_rng_rule_only_covers_result_affecting_packages(self):
        out_of_scope = run_rule(
            "RL002",
            "src/repro/analysis/fixture.py",
            '''
            """Fixture."""
            import random
            JITTER = random.random()
            ''',
        )
        assert out_of_scope is None

    def test_wall_clock_read_is_flagged(self):
        found = run_rule(
            "RL003",
            "src/repro/simulation/fixture.py",
            '''
            """Fixture."""
            import time
            STARTED = time.perf_counter()
            ''',
        )
        assert len(found) == 1 and found[0].rule == "RL003"

    def test_non_clock_time_functions_are_allowed(self):
        found = run_rule(
            "RL003",
            "src/repro/simulation/fixture.py",
            '''
            """Fixture."""
            import time
            def wait():
                """Not a clock read."""
                time.sleep(0.1)
            ''',
        )
        assert found == []

    def test_set_iteration_is_flagged(self):
        found = run_rule(
            "RL004",
            "src/repro/scheduling/fixture.py",
            '''
            """Fixture."""
            def order(queued, resident):
                """Iterates sets two ways."""
                for expert in set(queued) - resident:
                    yield expert
                return [x for x in {e.name for e in queued}]
            ''',
        )
        assert len(found) == 2 and {d.rule for d in found} == {"RL004"}

    def test_sorted_set_iteration_is_allowed(self):
        found = run_rule(
            "RL004",
            "src/repro/scheduling/fixture.py",
            '''
            """Fixture."""
            def order(queued, resident):
                """Sorts before iterating."""
                for expert in sorted(queued - resident):
                    yield expert
            ''',
        )
        assert found == []


class TestReferenceIsolationRule:
    def test_production_import_of_reference_is_flagged(self):
        found = run_rule(
            "RL005",
            "src/repro/simulation/engine.py",
            '''
            """Fixture."""
            from repro.simulation.reference import ReferenceSimulation
            ''',
        )
        assert len(found) == 1 and found[0].rule == "RL005"

    def test_reference_import_outside_shared_surface_is_flagged(self):
        found = run_rule(
            "RL005",
            "src/repro/simulation/reference.py",
            '''
            """Fixture."""
            from repro.simulation.engine import _hot_loop
            ''',
        )
        assert len(found) == 1 and "_hot_loop" in found[0].message

    def test_reference_import_of_declared_surface_is_allowed(self):
        found = run_rule(
            "RL005",
            "src/repro/simulation/reference.py",
            '''
            """Fixture."""
            from repro.simulation.request import SimRequest, StageJob
            from repro.simulation.results import SimulationResult
            ''',
        )
        assert found == []

    def test_wholesale_shared_module_is_allowed(self):
        found = run_rule(
            "RL005",
            "src/repro/workload/generator_reference.py",
            '''
            """Fixture."""
            from repro.workload.circuit_board import CircuitBoard
            ''',
        )
        assert found == []


class TestPicklabilityRule:
    def test_plain_class_in_boundary_module_is_flagged(self):
        found = run_rule(
            "RL006",
            "src/repro/simulation/request.py",
            '''
            """Fixture."""
            class Payload:
                """Not structural."""
                def __init__(self):
                    self.x = 1
            ''',
        )
        assert len(found) == 1 and "Payload" in found[0].message

    def test_structural_classes_are_allowed(self):
        found = run_rule(
            "RL006",
            "src/repro/simulation/request.py",
            '''
            """Fixture."""
            from collections import namedtuple
            from dataclasses import dataclass

            Point = namedtuple("Point", "x y")

            @dataclass(frozen=True, slots=True)
            class Cell:
                """Slotted dataclass."""
                x: int

            class Slotted:
                """Explicit slots."""
                __slots__ = ("x",)

            class CustomPickle:
                """Defines its own protocol."""
                def __getstate__(self):
                    return {}
            ''',
        )
        assert found == []

    def test_module_scope_lambda_is_flagged(self):
        found = run_rule(
            "RL006",
            "src/repro/sweeps/spec.py",
            '''
            """Fixture."""
            DEFAULT_FACTORY = lambda: 3
            ''',
        )
        assert len(found) == 1 and "lambda" in found[0].message

    def test_partial_over_lambda_is_flagged(self):
        found = run_rule(
            "RL006",
            "src/repro/workload/generator.py",
            '''
            """Fixture."""
            import functools

            def build(scale):
                """Builds a factory the wrong way."""
                return functools.partial(lambda s: s * 2, scale)
            ''',
        )
        assert len(found) == 1 and "functools.partial" in found[0].message

    def test_rule_only_audits_declared_boundary_modules(self):
        out_of_scope = run_rule(
            "RL006",
            "src/repro/simulation/engine.py",
            '''
            """Fixture."""
            class Transient:
                """Never pickled."""
            ''',
        )
        assert out_of_scope is None


class TestObserverPurityRule:
    def test_mutating_engine_state_is_flagged(self):
        found = run_rule(
            "RL007",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            class Meddler:
                """Observer that steers."""
                def on_batch_start(self, event):
                    """Two violations."""
                    event.jobs.append(None)
                    event.queue_depth = 0
            ''',
        )
        assert len(found) == 2 and {d.rule for d in found} == {"RL007"}

    def test_alias_mutation_is_flagged(self):
        found = run_rule(
            "RL007",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            class Meddler:
                """Observer that steers through an alias."""
                def on_request_completion(self, event):
                    """Aliased write."""
                    request = event.request
                    request.finish_ms = 0.0
            ''',
        )
        assert len(found) == 1

    def test_observer_own_state_and_abort_are_allowed(self):
        found = run_rule(
            "RL007",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            class Monitor:
                """Well-behaved observer."""
                def __init__(self):
                    self.count = 0
                    self._session = None
                def on_attach(self, session):
                    """Keeps a handle, reads freely."""
                    self._session = session
                def on_request_completion(self, event):
                    """Reads and sanctioned abort only."""
                    self.count += 1
                    if event.latency_ms > 1e9:
                        self._session.abort("slo blown")
            ''',
        )
        assert found == []

    def test_structural_detection_without_simobserver_base(self):
        # metrics attaches via the structural protocol: the checker must
        # find observers that never name SimObserver.
        found = run_rule(
            "RL007",
            "src/repro/metrics/fixture.py",
            '''
            """Fixture."""
            class Structural:
                """No base class at all."""
                def on_finish(self, event):
                    """Still audited."""
                    event.results.clear()
            ''',
        )
        assert len(found) == 1


class TestDocstringRule:
    def test_missing_docstrings_are_flagged(self):
        found = run_rule(
            "RL008",
            "src/repro/sweeps/fixture.py",
            '''
            def helper():
                return 1
            ''',
        )
        messages = sorted(d.message for d in found)
        assert messages == [
            "missing docstring on function helper",
            "missing docstring on module",
        ]

    def test_documented_and_private_names_pass(self):
        found = run_rule(
            "RL008",
            "src/repro/sweeps/fixture.py",
            '''
            """Fixture."""
            def helper():
                """Documented."""
            def _private():
                return 1
            class _Internal:
                def method(self):
                    return 1
            ''',
        )
        assert found == []

    def test_rule_scopes_to_gated_prefixes(self):
        out_of_scope = run_rule(
            "RL008",
            "src/repro/serving/fixture.py",
            '''
            def helper():
                return 1
            ''',
        )
        assert out_of_scope is None


VIOLATION = textwrap.dedent(
    '''
    """Fixture with one seeded RL002 violation."""
    import random
    JITTER = random.random()
    '''
)


def write_fixture(tmp_path, source):
    """Materialise a fixture inside a ``repro/workload`` tree on disk."""
    package = tmp_path / "repro" / "workload"
    package.mkdir(parents=True)
    target = package / "fixture.py"
    target.write_text(source)
    return target


class TestSuppression:
    def test_inline_suppression_silences_the_line(self, tmp_path):
        target = write_fixture(
            tmp_path,
            '"""Fixture."""\n'
            "import random\n"
            "# Seeding strategy documented in docs/lint.md.\n"
            "JITTER = random.random()  # repro-lint: disable=RL002\n",
        )
        report = LintRunner().run([str(target)])
        assert report.ok and report.suppressed == 1

    def test_file_level_suppression(self, tmp_path):
        target = write_fixture(
            tmp_path,
            '"""Fixture."""\n'
            "# repro-lint: disable-file=RL002\n"
            "import random\n"
            "JITTER = random.random()\n"
            "MORE = random.random()\n",
        )
        report = LintRunner().run([str(target)])
        assert report.ok and report.suppressed == 2

    def test_syntax_error_is_an_error_not_a_crash(self, tmp_path):
        target = write_fixture(tmp_path, "def broken(:\n")
        report = LintRunner().run([str(target)])
        assert not report.ok and len(report.errors) == 1


class TestCli:
    def test_json_report_schema(self, tmp_path, capsys):
        target = write_fixture(tmp_path, VIOLATION)
        status = lint_main([str(target), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert status == 1
        assert set(document) == {
            "version", "ok", "files_checked", "suppressed", "diagnostics", "errors",
        }
        assert document["version"] == 2 and document["ok"] is False
        (diagnostic,) = document["diagnostics"]
        assert set(diagnostic) == {"path", "line", "column", "rule", "message"}
        assert diagnostic["rule"] == "RL002"

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        target = write_fixture(tmp_path, '"""Fixture."""\n')
        status = lint_main([str(target)])
        assert status == 0
        assert "lint OK" in capsys.readouterr().out

    def test_rules_filter(self, tmp_path, capsys):
        target = write_fixture(tmp_path, VIOLATION)
        status = lint_main([str(target), "--rules", "RL003"])
        capsys.readouterr()
        assert status == 0  # the RL002 violation is invisible to RL003

    def test_list_rules_prints_the_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CATALOGUE:
            assert code in out

    def test_console_entry_point_runs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.lint.cli", SRC],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "lint OK" in completed.stdout

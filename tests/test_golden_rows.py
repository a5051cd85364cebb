"""Golden rows: every experiment's rows stay byte-identical unless declared.

``golden_rows.json`` holds a sha256 per experiment of its ``--format
json`` payload at the row-preserving A/B's 150-request scale (both
devices, tasks A1 and A2, seed 7), made under the recorded
``CACHE_FORMAT_VERSION``.  A change that alters rows on purpose bumps
that version, so stale sweep-cache entries miss, and rewrites the file
with ``tools/update_golden_rows.py``, which refuses to change a digest
without the bump.
"""

import importlib.util
import json
from pathlib import Path

from repro.sweeps.cache import CACHE_FORMAT_VERSION

ROOT = Path(__file__).resolve().parent.parent


def _update_tool():
    spec = importlib.util.spec_from_file_location(
        "update_golden_rows", ROOT / "tools" / "update_golden_rows.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _update_tool()
GOLDEN = json.loads(TOOL.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_rows_were_made_under_the_current_cache_format():
    assert GOLDEN["cache_format_version"] == CACHE_FORMAT_VERSION, (
        "CACHE_FORMAT_VERSION changed: rerun tools/update_golden_rows.py"
    )


def test_every_experiment_reproduces_its_golden_rows():
    recorded = GOLDEN["digests"]
    actual = TOOL.row_digests()
    changed = sorted(
        name for name in recorded.keys() | actual.keys() if recorded.get(name) != actual.get(name)
    )
    assert changed == [], (
        f"rows differ from tests/golden_rows.json for {changed}. If the change "
        "is meant, bump CACHE_FORMAT_VERSION and rerun tools/update_golden_rows.py"
    )


def _update_with(monkeypatch, tmp_path, cache_format_version, digests):
    """Point the update tool at a copy of the golden file, with stubbed
    digests and cache format version; return the copy's path."""
    golden = tmp_path / "golden_rows.json"
    golden.write_text(json.dumps(GOLDEN, indent=2) + "\n", encoding="utf-8")
    monkeypatch.setattr(TOOL, "GOLDEN_PATH", golden)
    monkeypatch.setattr(TOOL, "CACHE_FORMAT_VERSION", cache_format_version)
    monkeypatch.setattr(TOOL, "row_digests", lambda: digests)
    return golden


def _one_digest_changed():
    name = sorted(GOLDEN["digests"])[0]
    return name, dict(GOLDEN["digests"], **{name: "0" * 64})


def test_update_refuses_a_digest_change_without_a_version_bump(monkeypatch, tmp_path, capsys):
    name, digests = _one_digest_changed()
    golden = _update_with(monkeypatch, tmp_path, GOLDEN["cache_format_version"], digests)
    before = golden.read_text(encoding="utf-8")
    assert TOOL.main() == 1
    assert golden.read_text(encoding="utf-8") == before
    assert name in capsys.readouterr().err


def test_update_rewrites_the_digests_after_a_version_bump(monkeypatch, tmp_path):
    _, digests = _one_digest_changed()
    bumped = GOLDEN["cache_format_version"] + 1
    golden = _update_with(monkeypatch, tmp_path, bumped, digests)
    assert TOOL.main() == 0
    assert json.loads(golden.read_text(encoding="utf-8")) == {
        "cache_format_version": bumped,
        "digests": digests,
    }

"""Tests for ``repro analyze``: fixture-driven rule checks, the
suppression mechanism, the runtime registry cross-check, and the CLI.

Each rule has a pair of checked-in fixtures under
``tests/fixtures/analysis/``: a ``*_fire.py`` that must produce exactly
one finding (on the line carrying the ``analyzer: fires here`` marker)
and a ``*_near.py`` near-miss that must produce none.  The fixtures
carry a ``# repro: fixture as=...`` pragma, so directory walks skip
them — the full-tree baseline stays at zero findings — while naming one
explicitly scans it under its virtual path.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_CATALOG,
    analyze_main,
    analyze_paths,
    discover_files,
    extract_registry_view,
    read_source_file,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "analysis"
SRC = REPO / "src"

#: Waivers currently shipped in src/ — burn this down, never up.  Every
#: new suppression is a reviewed decision, not a reflex; if this number
#: must rise, the PR review owns the justification.
SUPPRESSION_CEILING = 26

FIRE_RULES = [
    "D001",
    "D002",
    "D003",
    "R003",
    "C001",
    "C002",
    "C003",
    "B001",
    "SUP001",
]


def _expected_line(path: Path) -> int:
    """The 1-based line carrying the fire marker (or, for the SUP001
    fixture, the malformed waiver itself)."""
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if "analyzer: fires here" in line or "repro: ignore[" in line:
            return i
    raise AssertionError(f"no fire marker in {path}")


@pytest.mark.parametrize("rule_id", FIRE_RULES)
def test_fire_fixture_produces_exactly_its_finding(rule_id: str) -> None:
    path = FIXTURES / f"{rule_id.lower()}_fire.py"
    report = analyze_paths([str(path)])
    assert len(report.findings) == 1, [
        (f.rule_id, f.line, f.message) for f in report.findings
    ]
    finding = report.findings[0]
    assert finding.rule_id == rule_id
    assert finding.path.endswith(f"{rule_id.lower()}_fire.py")
    assert finding.line == _expected_line(path)


@pytest.mark.parametrize("rule_id", FIRE_RULES)
def test_near_miss_fixture_is_clean(rule_id: str) -> None:
    path = FIXTURES / f"{rule_id.lower()}_near.py"
    report = analyze_paths([str(path)])
    assert report.findings == []


def test_pr7_fire_fixture_is_the_as_completed_fold() -> None:
    """The D001 fixture must stay the literal PR 7 bug shape."""
    text = (FIXTURES / "d001_fire.py").read_text()
    assert "as_completed(futures)" in text
    assert "merge" in text
    near = (FIXTURES / "d001_near.py").read_text()
    assert "as_completed" not in near
    assert "for future in futures" in near


def test_full_tree_baseline_is_zero() -> None:
    """The shipped tree analyzes clean; fixtures are walked over."""
    report = analyze_paths(
        [str(REPO / "src"), str(REPO / "tests"), str(REPO / "benchmarks")]
    )
    assert report.findings == [], [
        (f.path, f.line, f.rule_id) for f in report.findings
    ]
    scanned = {sf.path for sf in report.files}
    assert not any("fixtures/analysis" in path for path in scanned)


def test_suppression_count_can_only_shrink() -> None:
    known = set(RULE_CATALOG)
    total = 0
    for path in discover_files([str(SRC)]):
        sf = read_source_file(path, known)
        if not sf.is_fixture:
            total += len(sf.suppressions)
    assert total <= SUPPRESSION_CEILING, (
        f"src/ now carries {total} waivers (ceiling "
        f"{SUPPRESSION_CEILING}); fix the finding instead of waiving it, "
        "or make the case in review and raise the ceiling explicitly"
    )


def test_registry_view_matches_live_registries() -> None:
    """The analyzer's static spec extraction agrees with the live specs
    module, so R003 cannot drift from what it models."""
    import repro.sketches.specs as specs

    known = set(RULE_CATALOG)
    files = [
        read_source_file(p, known) for p in discover_files([str(SRC)])
    ]
    view = extract_registry_view([sf for sf in files if sf.tree is not None])

    live_spec_names = sorted(spec.name for spec in specs.SKETCH_SPECS)
    assert sorted(view.spec_names) == live_spec_names

    # Every statically-discovered vectorized sketch the rules would
    # police is a real class the live specs module can see.
    assert view.specs_file is not None
    for name in sorted(view.spec_referenced_classes):
        assert name.endswith("Sketch")


def _write(tmp_path: Path, rel: str, text: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_stale_waiver_is_a_finding(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        "src/repro/engine/mod.py",
        "value = 1  # repro: ignore[D001] — stale: nothing folds here\n",
    )
    report = analyze_paths([str(path)])
    assert [f.rule_id for f in report.findings] == ["SUP002"]


def test_unknown_rule_id_is_malformed(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        "src/repro/engine/mod.py",
        "value = 1  # repro: ignore[Z999] — no such rule\n",
    )
    report = analyze_paths([str(path)])
    assert [f.rule_id for f in report.findings] == ["SUP001"]


def test_syntax_error_is_a_finding(tmp_path: Path) -> None:
    path = _write(tmp_path, "src/repro/engine/mod.py", "def broken(:\n")
    report = analyze_paths([str(path)])
    assert [f.rule_id for f in report.findings] == ["SUP001"]


def test_standalone_waiver_covers_next_line(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        "src/repro/engine/mod.py",
        "def probe(worker):\n"
        "    try:\n"
        "        return worker.ping()\n"
        "    # repro: ignore[B001] — best-effort probe; caller treats "
        "None as down\n"
        "    except Exception:\n"
        "        return None\n",
    )
    report = analyze_paths([str(path)])
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["B001"]


def test_consecutive_trailing_waivers_pair_one_to_one(
    tmp_path: Path,
) -> None:
    """A waiver reaches its own line and the next; two stacked trailing
    waivers must each claim their own finding instead of the first
    swallowing both and the second going stale."""
    path = _write(
        tmp_path,
        "src/repro/engine/mod.py",
        "import threading\n"
        "\n"
        "\n"
        "class Gauge:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.a = 0\n"
        "        self.b = 0\n"
        "\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.a += 1\n"
        "            self.b += 1\n"
        "\n"
        "    def reset(self):\n"
        "        self.a = 0  # repro: ignore[C001] — test: single writer\n"
        "        self.b = 0  # repro: ignore[C001] — test: single writer\n",
    )
    report = analyze_paths([str(path)])
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["C001", "C001"]


def test_cli_exit_codes_and_github_format() -> None:
    out = io.StringIO()
    assert analyze_main([str(REPO / "src")], out) == 0
    assert "ok: no findings" in out.getvalue()

    out = io.StringIO()
    fire = str(FIXTURES / "c003_fire.py")
    assert analyze_main(["--format=github", fire], out) == 1
    text = out.getvalue()
    assert "::error file=" in text
    assert "c003_fire.py" in text
    assert "line=9" in text

    assert analyze_main([str(REPO / "no" / "such" / "path")], io.StringIO()) == 2

    out = io.StringIO()
    assert analyze_main(["--list-rules"], out) == 0
    for rule_id in RULE_CATALOG:
        assert rule_id in out.getvalue()

"""The analysis driver: discovery, rule execution, suppression, CLI.

``repro analyze [paths...]`` walks the given files/directories (default:
``src tests benchmarks``), runs every registered rule, subtracts
justified ``# repro: ignore[RULE] — reason`` waivers, and exits non-zero
on anything left — CI runs it with ``--format=github`` as a hard gate.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import TextIO

from repro.analysis.findings import RULE_CATALOG, Finding
from repro.analysis.output import (
    render_github,
    render_rule_catalog,
    render_text,
)
from repro.analysis.rules import iter_file_rules, iter_project_rules
from repro.analysis.source import SourceFile, read_source_file

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class AnalysisReport:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: list[SourceFile] = field(default_factory=list)


def discover_files(paths: list[str]) -> list[str]:
    """Python files under ``paths``; explicit file arguments are always
    taken (fixtures included), directory walks are pruned and sorted."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            raise FileNotFoundError(path)
    # De-duplicate while keeping a deterministic order.
    seen: set[str] = set()
    unique = []
    for path in out:
        normalized = os.path.normpath(path).replace("\\", "/")
        if normalized not in seen:
            seen.add(normalized)
            unique.append(normalized)
    return unique


def analyze_paths(paths: list[str]) -> AnalysisReport:
    known_rules = set(RULE_CATALOG)
    report = AnalysisReport()
    explicit_files = {
        os.path.normpath(p).replace("\\", "/")
        for p in paths
        if os.path.isfile(p)
    }
    for path in discover_files(paths):
        sf = read_source_file(path, known_rules)
        if sf.is_fixture and path not in explicit_files:
            continue  # fixtures are scanned only when named explicitly
        report.files.append(sf)

    raw: list[Finding] = []
    for sf in report.files:
        if sf.syntax_error:
            # A file the analyzer cannot parse cannot be vouched for;
            # surface it through the same finding pipeline.
            raw.append(
                Finding(
                    "SUP001",
                    sf.path,
                    1,
                    f"file does not parse ({sf.syntax_error}); the "
                    "analyzer cannot check it",
                )
            )
            continue
        for rule in iter_file_rules():
            raw.extend(rule.check(sf))
    parsed = [sf for sf in report.files if sf.tree is not None]
    for project_rule in iter_project_rules():
        raw.extend(project_rule.check_project(parsed))

    by_path = {sf.path: sf for sf in report.files}
    for finding in raw:
        sf = by_path.get(finding.path)
        suppression = None
        if sf is not None and finding.rule_id not in ("SUP001", "SUP002"):
            candidates = [
                c
                for c in sf.suppressions
                if c.matches(finding.rule_id, finding.line)
            ]
            # Same-line waivers beat previous-line ones, and unused beat
            # used, so consecutive trailing waivers pair 1:1 with their
            # own lines instead of one swallowing its neighbour's finding.
            candidates.sort(
                key=lambda c: (c.line != finding.line, c.used)
            )
            suppression = candidates[0] if candidates else None
        if suppression is not None:
            suppression.used = True
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    # The suppression mechanism polices itself: malformed waivers and
    # waivers that no longer waive anything are findings too.
    for sf in report.files:
        for malformed in sf.malformed:
            report.findings.append(
                Finding("SUP001", sf.path, malformed.line, malformed.message)
            )
        if sf.is_fixture:
            continue  # fixture suppressions document intent, not state
        for suppression in sf.suppressions:
            if not suppression.used:
                report.findings.append(
                    Finding(
                        "SUP002",
                        sf.path,
                        suppression.line,
                        "suppression "
                        f"[{', '.join(suppression.rule_ids)}] matches no "
                        "finding; delete the stale waiver",
                    )
                )

    report.findings.sort(key=Finding.sort_key)
    report.suppressed.sort(key=Finding.sort_key)
    return report


def analyze_main(
    argv: list[str] | None = None, out: TextIO | None = None
) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Static determinism/registry/concurrency lint for the repro "
            "tree (rule ids D*, R*, C*, B*, SUP*)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to scan (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="github emits ::error workflow-command annotations",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        render_rule_catalog(out)
        return 0
    try:
        report = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"repro analyze: no such path: {exc}", file=sys.stderr)
        return 2
    renderer = render_github if args.format == "github" else render_text
    renderer(
        report.findings,
        len(report.suppressed),
        len(report.files),
        out,
    )
    return 1 if report.findings else 0

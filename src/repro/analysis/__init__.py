"""Static analysis for the repro tree: ``repro analyze``.

An AST-based rule engine (stdlib ``ast`` only) that encodes the
invariants Hillview's architecture rests on — deterministic mergeable
sketch bytes, closed wire registries, disciplined locking and trace
propagation — as CI-gating lint rules.  See the rule catalog in
:mod:`repro.analysis.findings` and the README "Static analysis"
section.
"""

from repro.analysis.engine import (
    AnalysisReport,
    analyze_main,
    analyze_paths,
    discover_files,
)
from repro.analysis.findings import RULE_CATALOG, Finding, RuleInfo
from repro.analysis.rules.registry import RegistryView, extract_registry_view
from repro.analysis.source import SourceFile, read_source_file

__all__ = [
    "AnalysisReport",
    "Finding",
    "RegistryView",
    "RuleInfo",
    "RULE_CATALOG",
    "SourceFile",
    "analyze_main",
    "analyze_paths",
    "discover_files",
    "extract_registry_view",
    "read_source_file",
]

"""R-rules: enrollment of vectorized kernels in the differential harness.

The wire codecs of a sketch are derived from the field table declared
beside it (``core/wire.py``), so JSON/binary parity holds by construction
and needs no lint.  What a table cannot guarantee is that a *vectorized*
kernel keeps its per-row ``summarize_reference`` oracle and a spec in
``sketches/specs.py`` — the differential-harness surface.  R003 checks
that, and :func:`extract_registry_view` exposes the same static
extraction to a runtime cross-check test so the rule cannot drift from
the live specs it models.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import ProjectRule, register
from repro.analysis.source import SourceFile

_SPECS_SUFFIX = "repro/sketches/specs.py"

#: Names from the shared binning kernel: using one marks a sketch class
#: as vectorized even if its author forgot everything else.
_KERNEL_MARKERS = {"bin_rows", "bincount", "count_cells"}


@dataclass
class _SketchClass:
    name: str
    bases: list[str]
    methods: set[str]
    uses_kernel: bool
    line: int
    sf: SourceFile


@dataclass
class RegistryView:
    """Everything R003 (and the runtime cross-check) extracts."""

    spec_names: list[str] = field(default_factory=list)
    spec_referenced_classes: set[str] = field(default_factory=set)
    sketch_classes: dict[str, _SketchClass] = field(default_factory=dict)
    specs_file: SourceFile | None = None


def _collect_sketch_classes(
    sf: SourceFile, view: RegistryView
) -> None:
    assert sf.tree is not None
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Sketch"):
            continue
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        uses_kernel = any(
            (isinstance(sub, ast.Name) and sub.id in _KERNEL_MARKERS)
            or (
                isinstance(sub, ast.Attribute)
                and sub.attr in _KERNEL_MARKERS
            )
            for sub in ast.walk(node)
        )
        view.sketch_classes[node.name] = _SketchClass(
            node.name, bases, methods, uses_kernel, node.lineno, sf
        )


def _collect_specs(sf: SourceFile, view: RegistryView) -> None:
    assert sf.tree is not None
    view.specs_file = sf
    view.spec_referenced_classes = {
        node.id
        for node in ast.walk(sf.tree)
        if isinstance(node, ast.Name) and node.id.endswith("Sketch")
    }
    # Spec names: the first constant argument of SketchSpec(...) calls.
    for node in ast.walk(sf.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SketchSpec"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            view.spec_names.append(node.args[0].value)


def extract_registry_view(files: list[SourceFile]) -> RegistryView:
    """The static truth about the spec registry and the sketch classes.

    ``tests/test_analysis.py`` imports the live specs module and asserts
    it agrees with this extraction, so R003 cannot rot as the real
    registry evolves.
    """
    view = RegistryView()
    for sf in files:
        if sf.tree is None:
            continue
        path = sf.scope_path
        if path.endswith(_SPECS_SUFFIX):
            _collect_specs(sf, view)
        elif "repro/sketches/" in path:
            _collect_sketch_classes(sf, view)
    return view


def _has_oracle(cls: _SketchClass, view: RegistryView) -> bool:
    """summarize_reference defined on the class or an ancestor we can
    see (single inheritance within the sketches package)."""
    seen: set[str] = set()
    stack = [cls.name]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        current = view.sketch_classes.get(name)
        if current is None:
            continue
        if "summarize_reference" in current.methods:
            return True
        stack.extend(current.bases)
    return False


@register
class VectorizedSketchEnrollment(ProjectRule):
    """R003: vectorized sketches keep their oracle and a spec entry."""

    rule_id = "R003"

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        view = extract_registry_view(files)
        for cls in sorted(view.sketch_classes.values(), key=lambda c: c.name):
            vectorized = cls.uses_kernel or "summarize_reference" in cls.methods
            if not vectorized:
                continue
            if not _has_oracle(cls, view):
                yield self.finding(
                    cls.sf,
                    cls.line,
                    f"{cls.name} uses the vectorized binning kernel but "
                    "defines no summarize_reference per-row oracle: the "
                    "differential harness cannot check it",
                )
            if (
                view.specs_file is not None
                and cls.name not in view.spec_referenced_classes
            ):
                yield self.finding(
                    cls.sf,
                    cls.line,
                    f"vectorized sketch {cls.name} is not registered in "
                    "sketches/specs.py: it silently skips the kernel-"
                    "equivalence fuzz and the leaf perf gate",
                )

"""Parsed source files: AST, comments, suppressions, fixture pragmas.

Suppression syntax (one mechanism for every waiver in the tree)::

    x = risky()  # repro: ignore[C001] — guarded by the GIL: single writer

    # repro: ignore[D002, D003] — canonical order proven by test_x
    for item in values:
        ...

A suppression applies to findings on its own line or on the line
immediately below (for the standalone-comment form).  The justification
after the separator is mandatory; ``# repro: ignore[...]`` without one
is itself a finding (SUP001), as is naming an unknown rule id.

Fixture pragma::

    # repro: fixture as=src/repro/sketches/example.py

Files carrying ``# repro: fixture`` in their first ten lines are
deliberate rule violations used by the analyzer's own tests: directory
walks skip them, but passing one explicitly on the command line scans
it, with path-scoped rules seeing the ``as=`` virtual path.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]\s*(.*)$")
_FIXTURE_RE = re.compile(r"^#\s*repro:\s*fixture(?:\s+as=(\S+))?\s*$")
_RULE_ID_RE = re.compile(r"^[A-Z]+\d{3}$")
#: Separators accepted between the rule list and the justification.
_REASON_RE = re.compile(r"^(?:—|--|-|:)\s*(.+)$")


@dataclass
class Suppression:
    """One parsed ``# repro: ignore[...]`` comment."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str
    used: bool = False

    def matches(self, rule_id: str, line: int) -> bool:
        return rule_id in self.rule_ids and line in (self.line, self.line + 1)


@dataclass
class MalformedSuppression:
    line: int
    message: str


@dataclass
class SourceFile:
    """One file the analyzer looks at."""

    path: str  #: real path, as reported in findings
    text: str
    tree: ast.Module | None
    syntax_error: str | None
    suppressions: list[Suppression] = field(default_factory=list)
    malformed: list[MalformedSuppression] = field(default_factory=list)
    is_fixture: bool = False
    virtual_path: str | None = None

    @property
    def scope_path(self) -> str:
        """The path rules scope on (fixtures may declare a virtual one)."""
        return self.virtual_path or self.path


def _parse_comments(text: str) -> list[tuple[int, str]]:
    """All comment tokens as (line, text); regex fallback on tokenize
    failure so a half-broken file still has its pragmas honored."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        out = []
        for i, line in enumerate(text.splitlines(), start=1):
            pos = line.find("#")
            if pos >= 0:
                out.append((i, line[pos:]))
        return out


def parse_suppression_comment(
    comment: str, line: int, known_rules: set[str]
) -> Suppression | MalformedSuppression | None:
    """Parse one comment; None when it is not a suppression at all."""
    match = _SUPPRESS_RE.search(comment)
    if match is None:
        return None
    raw_ids = [part.strip() for part in match.group(1).split(",")]
    bad = [r for r in raw_ids if not _RULE_ID_RE.match(r)]
    if bad or not raw_ids:
        return MalformedSuppression(
            line, f"unparseable rule id(s) {bad or raw_ids} in suppression"
        )
    unknown = [r for r in raw_ids if r not in known_rules]
    if unknown:
        return MalformedSuppression(
            line, f"unknown rule id(s) {unknown} in suppression"
        )
    reason_match = _REASON_RE.match(match.group(2).strip())
    if reason_match is None or not reason_match.group(1).strip():
        return MalformedSuppression(
            line,
            "suppression is missing its mandatory justification "
            "(`# repro: ignore[RULE] — why this is safe`)",
        )
    return Suppression(line, tuple(raw_ids), reason_match.group(1).strip())


def fixture_pragma(text: str) -> tuple[bool, str | None]:
    """(is_fixture, virtual_path) from the first ten lines."""
    for line in text.splitlines()[:10]:
        match = _FIXTURE_RE.match(line.strip())
        if match:
            return True, match.group(1)
    return False, None


def annotate_parents(tree: ast.AST) -> None:
    """Stamp `_repro_parent` on every node so rules can walk outward."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def enclosing_function(node: ast.AST) -> ast.AST | None:
    """The innermost def/async-def containing ``node`` (None: module)."""
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = getattr(current, "_repro_parent", None)
    return None


def enclosing_class(node: ast.AST) -> ast.ClassDef | None:
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current
        current = getattr(current, "_repro_parent", None)
    return None


def read_source_file(path: str, known_rules: set[str]) -> SourceFile:
    """Read + parse one file; syntax errors become a finding later, not
    a crash (the analyzer must survive anything a PR can contain)."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    is_fixture, virtual = fixture_pragma(text)
    tree: ast.Module | None = None
    syntax_error: str | None = None
    try:
        tree = ast.parse(text, filename=path)
        annotate_parents(tree)
    except SyntaxError as exc:
        syntax_error = f"{exc.msg} (line {exc.lineno})"
    sf = SourceFile(
        path=path.replace("\\", "/"),
        text=text,
        tree=tree,
        syntax_error=syntax_error,
        is_fixture=is_fixture,
        virtual_path=virtual,
    )
    for line, comment in _parse_comments(text):
        parsed = parse_suppression_comment(comment, line, known_rules)
        if isinstance(parsed, Suppression):
            sf.suppressions.append(parsed)
        elif isinstance(parsed, MalformedSuppression):
            sf.malformed.append(parsed)
    return sf

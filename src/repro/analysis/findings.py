"""Findings and the rule catalog for ``repro analyze``.

A :class:`Finding` is one violation of one :class:`RuleInfo` at one
source location.  The catalog below is the single source of truth for
rule ids: suppression comments (``# repro: ignore[RULE] — reason``) are
validated against it, ``repro analyze --list-rules`` prints it, and the
README rule table is kept in sync by ``tests/test_analysis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuleInfo:
    """Identity and rationale of one rule."""

    rule_id: str
    title: str
    rationale: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``path`` is always the real on-disk path (what an editor or a GitHub
    annotation needs), even when the file was analyzed under a virtual
    ``# repro: fixture as=...`` path.
    """

    rule_id: str
    path: str
    line: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule_id, self.message)


#: The rule catalog.  Grouped: D = determinism, R = registry
#: completeness, C = concurrency, B = exception hygiene, SUP = the
#: suppression mechanism policing itself.
RULE_CATALOG: dict[str, RuleInfo] = {
    rule.rule_id: rule
    for rule in [
        RuleInfo(
            "D001",
            "completion-order fold over futures",
            "Iterating `as_completed(...)` merges partials in thread-"
            "completion order; only-approximately-commutative merges "
            "(Misra-Gries at capacity) then produce different bytes run "
            "over run, breaking the memo/cache byte-identity invariant "
            "(the PR 7 production bug). Fold futures in submission "
            "(shard/worker) order instead.",
        ),
        RuleInfo(
            "D002",
            "unordered iteration in a serialization/merge path",
            "Iterating a set, or a dict's keys()/values()/items() "
            "without sorted(...), inside encode/merge/*_to_json/"
            "*_payload functions leaks memory-address or insertion "
            "order into bytes that must be canonical.",
        ),
        RuleInfo(
            "D003",
            "nondeterminism source in sketch code",
            "Sketch kernels must be pure functions of (table, seed): "
            "time/random/uuid/os.urandom/np.random outside "
            "core/rand.py breaks replay, the differential oracle "
            "harness, and cross-root cache agreement.",
        ),
        RuleInfo(
            "R003",
            "vectorized sketch outside the differential harness",
            "A vectorized kernel must keep its per-row "
            "summarize_reference oracle and register a spec in "
            "sketches/specs.py; otherwise the kernel-equivalence fuzz "
            "harness never sees it and a numpy rewrite can silently "
            "change bytes.",
        ),
        RuleInfo(
            "C001",
            "attribute mutated both under and outside its class lock",
            "If any method writes an attribute inside `with self._lock:`"
            " then every write outside the lock (past __init__) is a "
            "race: the PR 3 TOCTOU/state-leak bug class.",
        ),
        RuleInfo(
            "C002",
            "thread spawn without trace-context propagation",
            "threading.Thread / executor submit sites in engine/ and "
            "service/ must propagate the trace context (use_context/"
            "serve_span or an explicitly captured ctx), or spans from "
            "the spawned work detach from the query's trace (the PR 6 "
            "hand-audit, now mechanical).",
        ),
        RuleInfo(
            "C003",
            "blocking call inside an async function",
            "time.sleep / future.result() / blocking sockets / "
            "subprocess calls inside `async def` stall the event loop "
            "for every connected client of the service tier.",
        ),
        RuleInfo(
            "B001",
            "broad exception handler without re-raise",
            "`except Exception`/`except BaseException`/bare `except` "
            "that swallows (no re-raise) hides real failures; each "
            "intentional shield must carry a justification.",
        ),
        RuleInfo(
            "SUP001",
            "malformed suppression",
            "`# repro: ignore[RULE]` must name known rule ids and carry "
            "a non-empty justification after a separator "
            "(`— why this is safe`). A waiver nobody can audit is not "
            "a waiver.",
        ),
        RuleInfo(
            "SUP002",
            "unused suppression",
            "A suppression that matches no finding is stale: the "
            "violation was fixed or the code moved. Delete it so the "
            "waiver count only ever shrinks.",
        ),
    ]
}

"""Measuring one stack: set-up, the closed-loop timed phase, and the checks.

A :class:`Run` is one fresh server stack with its connections opened,
cache state prepared and warm-up done (everything ``setup_s`` covers),
then driven for a fixed time.  ``failures`` and ``self_check`` decide
whether its numbers may be reported.
"""

from __future__ import annotations

import statistics
import tempfile
import threading
import time

from stack import Stack
from workloads import Session, expected_rows, settle


#: Memory is read when a stack has completed this many timed units, not
#: when its time is up: ``cold_open`` and ``zoom_filter`` leave something
#: behind per unit, so a reading at the deadline would grow with speed and
#: call a faster program worse.
RSS_AFTER_UNITS = 30


class SelfCheckFailed(Exception):
    """The workload did not exercise what it claims to; its numbers
    would be misleading, so none are printed."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def kind_p50(units: list, seconds) -> float:
    """Median of ``seconds(unit)`` within each unit kind, averaged over
    the kinds.  A workload mixes kinds of different cost (six chart
    families, two sort orders); the plain median of such a mixture sits
    in the gap between two kinds and jumps from one to the other between
    runs (README, "Repeatability")."""
    by_kind: dict[str, list[float]] = {}
    for unit in units:
        by_kind.setdefault(unit.kind, []).append(seconds(unit))
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "n": samples}


# ---------------------------------------------------------------------------
# One stack, set up and driven
# ---------------------------------------------------------------------------
class Run:
    """One fresh stack with its sessions opened, cache state prepared and
    warm-up done: everything ``setup_s`` covers."""

    def __init__(self, workload, dataset, seed: int, traced: bool, tmp: str):
        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        scratch = tempfile.mkdtemp(prefix="run-", dir=tmp)  # this stack's aliases
        started = time.perf_counter()
        self.stack = Stack(traced)
        try:
            self.sessions = [
                Session(self.stack, dataset, seed, traced, scratch)
                for _ in range(workload.connections)
            ]
            #: Untimed units: cache fill, then warm-up on every connection.
            self.preamble = list(workload.prepare(self.sessions[0]))
            for session in self.sessions:
                for index in range(workload.warmup_units):
                    self.preamble.append(workload.unit(session, index))
        except BaseException:
            self.stack.close()
            raise
        self.setup_seconds = time.perf_counter() - started
        for unit in self.preamble:
            self._settle(unit, keep=False)
        self.units: list[list] = [[] for _ in self.sessions]
        self.peak_rss_mb: float | None = None

    def _settle(self, unit, keep: bool) -> None:
        settle(unit, expected_rows(self.dataset, unit.predicate), keep)

    def _drive(self, lane: int, seconds: float) -> None:
        workload, session = self.workload, self.sessions[lane]
        seen: dict[str, int] = {}
        index = workload.warmup_units + lane
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            unit = workload.unit(session, index)
            # The oracle's sample: the first unit of each sketch family
            # on this connection, then every eighth, phase set by seed.
            nth = seen.get(unit.family, 0)
            seen[unit.family] = nth + 1
            self._settle(unit, keep=nth == 0 or (nth + self.seed) % 8 == 0)
            self.units[lane].append(unit)
            if lane == 0 and len(self.units[0]) == RSS_AFTER_UNITS:
                self.peak_rss_mb = self.stack.peak_rss_mb()
            index += len(self.sessions)

    def measure(self, seconds: float) -> None:
        """Closed loop: each connection sends its next unit when the
        previous one has completed, for ``seconds`` seconds."""
        if len(self.sessions) == 1:
            self._drive(0, seconds)
        else:
            self._drive_lanes(seconds)
        if self.peak_rss_mb is None:  # a slow stack: fewer units than that
            self.peak_rss_mb = self.stack.peak_rss_mb()

    def _drive_lanes(self, seconds: float) -> None:
        failures: list[BaseException] = []

        def lane_main(lane: int) -> None:
            try:
                self._drive(lane, seconds)
            except BaseException as exc:  # re-raised on the main thread below
                failures.append(exc)

        threads = [
            threading.Thread(target=lane_main, args=(lane,), name=f"lane-{lane}")
            for lane in range(len(self.sessions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    @property
    def timed(self) -> list:
        return [unit for lane in self.units for unit in lane]

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.stack.close()


def units_per_second(runs: list[Run]) -> float:
    """Completed units over timed wall, summed over connections.  The
    wall is each connection's busy time (the checks the driver does
    between units are off the clock), pooled over the stacks measured."""
    lanes = len(runs[0].units)
    return sum(
        sum(len(run.units[lane]) for run in runs)
        / sum(u.busy_seconds for run in runs for u in run.units[lane])
        for lane in range(lanes)
    )


def failures(run: Run, oracle) -> list[str]:
    """Every timed unit that errored or failed a check, as messages."""
    problems = []
    for unit in run.timed:
        problem = unit.error
        if problem is None and unit.sampled:
            problem = oracle.mismatch(unit)
        if problem is not None:
            problems.append(f"unit {unit.index}: {problem}")
    return problems


def self_check(run: Run, smoke: bool) -> None:
    """Keep the workload honest; see README, "Self-checks"."""
    workload = run.workload
    units = run.timed
    sketches = [u.sketch for u in units if u.error is None]
    if not sketches:
        return  # every unit failed; the failure count says so
    hits = sum(bool(e.terminal.message["cache"]["hit"]) for e in sketches)
    worker_hits = sum(e.terminal.message["cache"]["workerHits"] > 0 for e in sketches)
    if workload.cached and hits != len(sketches):
        raise SelfCheckFailed(
            f"{workload.name}: {len(sketches) - hits} of {len(sketches)} timed units "
            "missed the root computation cache"
        )
    if not workload.cached and hits:
        raise SelfCheckFailed(f"{workload.name}: {hits} timed units were cache hits")
    if worker_hits:
        raise SelfCheckFailed(
            f"{workload.name}: {worker_hits} timed units were served from a worker memo"
        )
    if workload.name == "wide_result":
        smallest = min(e.terminal.wire_bytes for e in sketches)
        if smallest < 300 * 1024 and not smoke:
            raise SelfCheckFailed(f"wide_result: a reply frame was only {smallest} bytes")
    if workload.name == "cold_open":
        pairs = run.sessions[0].state["open_vs_cold"]
        cold = p50([c for c, _ in pairs])
        opened = p50([o for _, o in pairs])
        if cold <= opened and not smoke:
            raise SelfCheckFailed(
                f"cold_open: first sketch {cold * 1e3:.1f} ms is not slower than the "
                f"same sketch on the open handle ({opened * 1e3:.1f} ms)"
            )

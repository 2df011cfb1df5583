"""Admission control and fair-share scheduling of session queries (§5.3).

Hillview's web server runs queries for many simultaneous users against one
shared cluster.  Two policies keep it interactive:

* **fair share** — a bounded pool of query workers picks the next query
  round-robin *across sessions*, so one chatty session cannot starve the
  rest, and admission control bounds each session's backlog;
* **newest query wins** — within a session, submitting a new sketch
  supersedes the in-flight one: a user who drags a new histogram does not
  care about the previous one anymore, so its remaining micropartitions
  are cancelled through the existing :class:`CancellationToken` machinery
  ("the UI cancels the previous version of the query", §5.3).

The scheduler is transport-agnostic: it executes requests against each
session's :class:`~repro.engine.web.WebServer` facade and pushes every
reply envelope into a caller-provided ``sink`` callable, which may block —
that is how transport backpressure propagates into the execution layer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.engine.progress import CancellationToken
from repro.engine.rpc import TERMINAL_REPLY_KINDS, RpcReply, RpcRequest
from repro.errors import EngineError
from repro.obs.logs import log_event, logging_enabled
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TraceContext, record_span, trace_enabled, use_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.sessions import Session

#: Task lifecycle states.
QUEUED, RUNNING, DONE = "queued", "running", "done"


@dataclass
class SchedulerMetrics:
    """Counters over the scheduler's lifetime (feeds the ``stats`` RPC)."""

    admitted: int = 0
    completed: int = 0
    cancelled: int = 0
    preempted: int = 0  # cancellations caused by newest-query-wins
    rejected: int = 0  # admission control: session backlog full
    errors: int = 0
    peak_running: int = 0
    peak_queued: int = 0

    def to_json(self) -> dict:
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "preempted": self.preempted,
            "rejected": self.rejected,
            "errors": self.errors,
            "peakRunning": self.peak_running,
            "peakQueued": self.peak_queued,
        }


class QueryTask:
    """One admitted query: a request bound to a session, a sink and a token."""

    def __init__(
        self,
        session: "Session",
        request: RpcRequest,
        sink: Callable[[RpcReply], None],
    ):
        self.session = session
        self.request = request
        self.sink = sink
        self.token = CancellationToken()
        self.state = QUEUED
        self.superseded = False
        #: Set once the terminal reply has been handed to the sink: the
        #: client may already be submitting its next query, while this
        #: task is still winding down (metrics, logs) in ``_running``.
        self.answered = False
        self.done = threading.Event()
        # Queue-wait accounting: wall clock for the retroactive span,
        # monotonic for the measured duration.
        self.queued_wall = time.time()
        self.queued_monotonic = time.perf_counter()

    @property
    def preemptible(self) -> bool:
        """Only sketch queries participate in newest-query-wins: map and
        metadata operations mutate session state and must not be dropped."""
        return self.request.method == "sketch"

    def __repr__(self) -> str:
        return (
            f"<QueryTask {self.request.method} #{self.request.request_id} "
            f"session={self.session.session_id} {self.state}>"
        )


class FairShareScheduler:
    """Bounded-concurrency, round-robin-across-sessions query executor."""

    def __init__(self, max_concurrent: int = 4, max_queue_per_session: int = 32):
        if max_concurrent < 1:
            raise ValueError("the scheduler needs at least one query worker")
        self.max_concurrent = max_concurrent
        self.max_queue_per_session = max_queue_per_session
        self.metrics = SchedulerMetrics()
        self._cond = threading.Condition()
        self._queues: dict[str, deque[QueryTask]] = {}
        self._order: deque[str] = deque()  # round-robin cursor over sessions
        self._running: set[QueryTask] = set()
        self._shutdown = False
        self._threads = [
            # repro: ignore[C002] — each dequeued task restores its own captured context in _execute
            threading.Thread(
                target=self._worker_loop, name=f"query-worker-{i}", daemon=True
            )
            for i in range(max_concurrent)
        ]
        for thread in self._threads:
            thread.start()
        # Live-depth gauges: the registry reads the scheduler, not a
        # shadow count (a later scheduler in the same process takes over
        # the callback — there is one serving scheduler per daemon).
        REGISTRY.gauge(
            "scheduler.running",
            "queries executing right now",
            callback=lambda: self.running_count,
        )
        REGISTRY.gauge(
            "scheduler.queued",
            "queries waiting for a slot",
            callback=lambda: self.queued_count(),
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        session: "Session",
        request: RpcRequest,
        sink: Callable[[RpcReply], None],
    ) -> QueryTask:
        """Admit one request; replies stream into ``sink`` asynchronously.

        A new sketch supersedes the session's queued and running sketches
        (newest-query-wins).  A session whose backlog is full gets an
        immediate ``overloaded`` error envelope instead of admission.
        """
        task = QueryTask(session, request, sink)
        rejected = False
        with self._cond:
            if self._shutdown:
                raise EngineError("scheduler is shut down")
            queue = self._queues.get(session.session_id)
            backlog = len(queue) if queue is not None else 0
            # Admission control runs BEFORE preemption: a rejected request
            # must leave the session's in-flight query untouched.  It also
            # runs before any bookkeeping: a rejected submit must not
            # leave a queue entry or a round-robin slot behind.
            if backlog >= self.max_queue_per_session:
                self.metrics.rejected += 1
                task.state = DONE
                rejected = True
            else:
                if queue is None:
                    queue = self._queues.setdefault(session.session_id, deque())
                if session.session_id not in self._order:
                    self._order.append(session.session_id)
                if task.preemptible:
                    self._preempt_older(session, queue)
                queue.append(task)
                session.register_task(task)
                self.metrics.admitted += 1
                queued = sum(len(q) for q in self._queues.values())
                self.metrics.peak_queued = max(self.metrics.peak_queued, queued)
                self._cond.notify()
        if rejected:
            self._safe_sink(
                task,
                RpcReply(
                    request.request_id,
                    "error",
                    error=(
                        f"session {session.session_id} has "
                        f"{self.max_queue_per_session} queued queries"
                    ),
                    code="overloaded",
                ),
            )
            task.done.set()
        return task

    def _preempt_older(self, session: "Session", queue: deque[QueryTask]) -> None:
        """Newest-query-wins: cancel the session's older sketches (§5.3).

        A sketch that has already answered is not older work to cancel:
        a closed-loop client's next submit always finds it here.
        """
        victims = [t for t in queue if t.preemptible and not t.token.cancelled]
        victims += [
            t
            for t in self._running
            if t.session is session
            and t.preemptible
            and not t.answered
            and not t.token.cancelled
        ]
        for victim in victims:
            victim.superseded = True
            victim.token.cancel()
            self.metrics.preempted += 1
            session.metrics.preempted += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_task(self) -> QueryTask | None:
        """Pop the next task, visiting sessions round-robin (fair share).

        Sessions whose backlog has drained are purged as they are
        visited — ``_queues`` entries and round-robin slots must not
        accumulate over a long-lived server's lifetime.  A purged session
        re-enters the rotation (at the back) on its next submit.
        """
        while self._order:
            session_id = self._order[0]
            queue = self._queues.get(session_id)
            if queue:
                self._order.rotate(-1)
                return queue.popleft()
            self._order.popleft()
            self._queues.pop(session_id, None)
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                task = self._next_task()
                while task is None and not self._shutdown:
                    self._cond.wait()
                    task = self._next_task()
                if task is None:
                    return  # shutting down with an empty queue
                self._running.add(task)
                self.metrics.peak_running = max(
                    self.metrics.peak_running, len(self._running)
                )
            try:
                self._execute(task)
            finally:
                with self._cond:
                    self._running.discard(task)
                task.state = DONE
                task.session.finish_task(task)
                task.done.set()

    def _execute(self, task: QueryTask) -> None:
        task.state = RUNNING
        session = task.session
        session.touch()
        request = task.request
        # Queue-wait telemetry: always measured (two clock reads), so
        # `profile: true` replies can report it even with tracing off;
        # the retroactive span and the histogram only fire when traced.
        wait = time.perf_counter() - task.queued_monotonic
        request.queue_wait_seconds = wait
        ctx = TraceContext.from_json(request.trace)
        if ctx is None and trace_enabled():
            # An untraced client on a tracing root: originate here so the
            # rest of the fan-out (web facade, cluster, workers) parents
            # into one server-side trace.
            ctx = TraceContext.new_root()
            request.trace = ctx.to_json()
        REGISTRY.histogram(
            "scheduler.queue_wait_seconds",
            "time from admission to execution",
        ).observe(wait)
        if ctx is not None:
            record_span(
                "scheduler.queue",
                ctx,
                task.queued_wall,
                wait,
                session=session.session_id,
                method=request.method,
            )
        if task.token.cancelled:
            # Superseded while still queued: answer without executing.
            self.metrics.cancelled += 1
            session.metrics.cancelled += 1
            self._safe_sink(
                task,
                RpcReply(
                    request.request_id,
                    "cancelled",
                    code="superseded" if task.superseded else "cancelled",
                ),
            )
            return
        started = time.perf_counter()
        last_kind = None
        for reply in session.web.execute(request, token=task.token):
            if reply.kind == "cancelled" and task.superseded and reply.code is None:
                # Qualify on a copy: the envelope object belongs to the
                # execution layer and may be shared (yielded to another
                # consumer, cached); mutating it in place would leak the
                # "superseded" tag into someone else's reply.
                reply = replace(reply, code="superseded")
            session.record_reply(reply)
            last_kind = reply.kind
            if not self._safe_sink(task, reply):
                # The client went away: stop feeding it and cancel the
                # remaining micropartitions.
                task.token.cancel()
        with self._cond:
            if last_kind == "cancelled" or (
                last_kind is None and task.token.cancelled
            ):
                # An empty reply stream is classified by token state: a
                # query cancelled before its first envelope did not
                # "complete".
                self.metrics.cancelled += 1
            elif last_kind == "error":
                self.metrics.errors += 1
            else:
                self.metrics.completed += 1
        elapsed = time.perf_counter() - started
        REGISTRY.histogram(
            "scheduler.query_seconds", "query execution wall-clock"
        ).observe(elapsed)
        if logging_enabled("debug"):
            with use_context(ctx):  # stamps traceId/spanId when traced
                log_event(
                    "query.done",
                    level="debug",
                    session=session.session_id,
                    method=request.method,
                    kind=last_kind or "cancelled",
                    queueWaitSeconds=round(wait, 6),
                    seconds=round(elapsed, 6),
                )
        session.touch()

    def _safe_sink(self, task: QueryTask, reply: RpcReply) -> bool:
        """Deliver one reply; a broken sink (dead connection) returns False."""
        if reply.kind in TERMINAL_REPLY_KINDS:
            # Before the hand-over, and under the lock _preempt_older
            # holds: a submit that sees this task unanswered did overlap it.
            with self._cond:
                task.answered = True
        try:
            task.sink(reply)
            return True
        except Exception:  # repro: ignore[B001] - transport failures must not kill us
            return False

    # ------------------------------------------------------------------
    # Introspection and shutdown
    # ------------------------------------------------------------------
    @property
    def running_count(self) -> int:
        with self._cond:
            return len(self._running)

    def queued_count(self, session_id: str | None = None) -> int:
        with self._cond:
            if session_id is not None:
                return len(self._queues.get(session_id, ()))
            return sum(len(q) for q in self._queues.values())

    def forget_session(self, session_id: str) -> None:
        """Drop a closed session's queue, finalizing the queries still in it.

        Tasks that were admitted but never ran must not dangle: each gets
        its token cancelled, a terminal ``cancelled`` envelope (best
        effort — the connection is usually gone too), and its ``done``
        event set so anything awaiting the task wakes up.
        """
        with self._cond:
            dropped = list(self._queues.pop(session_id, ()))
            try:
                self._order.remove(session_id)
            except ValueError:
                pass
            self.metrics.cancelled += len(dropped)
        for task in dropped:
            task.token.cancel()
            task.state = DONE
            task.session.metrics.cancelled += 1
            self._safe_sink(
                task,
                RpcReply(
                    task.request.request_id,
                    "cancelled",
                    code="session_closed",
                ),
            )
            task.session.finish_task(task)
            task.done.set()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Cancel everything queued and stop the worker threads."""
        with self._cond:
            self._shutdown = True
            for queue in self._queues.values():
                for task in queue:
                    task.token.cancel()
                    task.done.set()
                queue.clear()
            for task in self._running:
                task.token.cancel()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

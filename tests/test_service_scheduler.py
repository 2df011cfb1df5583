"""Fair-share scheduler tests: admission, round-robin, newest-query-wins."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine.cluster import Cluster
from repro.engine.rpc import RpcRequest
from repro.service import FairShareScheduler, SessionManager
from repro.storage.loader import TableSource
from repro.table.table import Table

TERMINAL = {"ack", "complete", "cancelled", "error"}


class Collector:
    """A reply sink recording everything it receives."""

    def __init__(self, fail: bool = False):
        self.replies = []
        self.fail = fail

    def __call__(self, reply):
        if self.fail:
            raise ConnectionError("simulated dead client")
        self.replies.append(reply)

    def wait_first(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while not self.replies and time.monotonic() < deadline:
            time.sleep(0.002)
        assert self.replies, "no reply arrived in time"

    @property
    def terminal(self):
        return self.replies[-1] if self.replies else None


@pytest.fixture(scope="module")
def numbers_source() -> TableSource:
    rng = np.random.default_rng(11)
    table = Table.from_pydict({"x": rng.uniform(0, 100, 8_000).tolist()})
    return TableSource([table], shards_per_table=32)


@pytest.fixture
def service_cluster() -> Cluster:
    return Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.01)


@pytest.fixture
def manager(service_cluster) -> SessionManager:
    return SessionManager(service_cluster)


def hist_spec(slow: float | None = None) -> dict:
    spec = {
        "type": "histogram",
        "column": "x",
        "buckets": {"type": "double", "min": 0, "max": 100, "count": 10},
    }
    if slow is not None:
        spec = {"type": "slow", "perShardSeconds": slow, "inner": spec}
    return spec


def sketch_request(request_id: int, handle: str, slow: float | None = None):
    return RpcRequest(request_id, handle, "sketch", {"sketch": hist_spec(slow)})


class TestFairShare:
    def test_unary_queries_complete_across_sessions(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=2)
        try:
            sessions = [manager.get_or_create(f"u{i}") for i in range(3)]
            tasks, sinks = [], []
            for i, session in enumerate(sessions):
                handle = session.web.load(numbers_source)
                sink = Collector()
                task = scheduler.submit(
                    session, RpcRequest(i + 1, handle, "rowCount"), sink
                )
                tasks.append(task)
                sinks.append(sink)
            for task in tasks:
                assert task.done.wait(timeout=10)
            for sink in sinks:
                assert sink.terminal.kind == "complete"
                assert sink.terminal.payload["rows"] == 8_000
            assert scheduler.metrics.completed == 3
            assert scheduler.metrics.peak_running <= 2
        finally:
            scheduler.shutdown()

    def test_bounded_concurrency(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            tasks = []
            for i in range(3):
                session = manager.get_or_create(f"u{i}")
                handle = session.web.load(numbers_source)
                tasks.append(
                    scheduler.submit(
                        session, sketch_request(i + 1, handle, slow=0.005), Collector()
                    )
                )
            for task in tasks:
                assert task.done.wait(timeout=30)
            assert scheduler.metrics.peak_running == 1
            assert scheduler.metrics.completed == 3
        finally:
            scheduler.shutdown()

    def test_admission_control_rejects_backlog(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=1, max_queue_per_session=2)
        try:
            # Occupy the only worker slot so the flood genuinely queues.
            blocker_session = manager.get_or_create("blocker")
            blocker_handle = blocker_session.web.load(numbers_source)
            blocker = scheduler.submit(
                blocker_session,
                sketch_request(99, blocker_handle, slow=0.02),
                Collector(),
            )
            session = manager.get_or_create("flood")
            handle = session.web.load(numbers_source)
            sinks = [Collector() for _ in range(6)]
            tasks = [
                # rowCount queries are not preemptible, so they pile up.
                scheduler.submit(
                    session, RpcRequest(i + 1, handle, "rowCount"), sinks[i]
                )
                for i in range(6)
            ]
            for task in tasks + [blocker]:
                assert task.done.wait(timeout=30)
            kinds = [s.terminal.kind for s in sinks]
            assert kinds.count("error") >= 4 - 1  # >= 3: one may sneak in
            rejected = [s.terminal for s in sinks if s.terminal.kind == "error"]
            assert all(r.code == "overloaded" for r in rejected)
            assert scheduler.metrics.rejected == len(rejected) > 0
        finally:
            scheduler.shutdown()


class TestNewestQueryWins:
    def test_preempts_running_sketch(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=2)
        try:
            session = manager.get_or_create("alice")
            handle = session.web.load(numbers_source)
            first_sink = Collector()
            first = scheduler.submit(
                session, sketch_request(1, handle, slow=0.02), first_sink
            )
            first_sink.wait_first()  # the first query is visibly streaming
            second_sink = Collector()
            second = scheduler.submit(
                session, sketch_request(2, handle, slow=0.0), second_sink
            )
            assert first.done.wait(timeout=30)
            assert second.done.wait(timeout=30)
            assert first.token.cancelled
            assert first_sink.terminal.kind == "cancelled"
            assert first_sink.terminal.code == "superseded"
            assert second_sink.terminal.kind == "complete"
            assert sum(second_sink.terminal.payload["counts"]) == 8_000
            assert scheduler.metrics.preempted == 1
            assert session.metrics.preempted == 1
        finally:
            scheduler.shutdown()

    def test_back_to_back_sketches_are_not_preempted(self, manager, numbers_source):
        """A closed-loop client sends its next sketch the moment the previous
        one answers — while that task is still winding down inside the
        scheduler.  Nothing overlapped, so nothing was superseded."""
        scheduler = FairShareScheduler(max_concurrent=2)
        rounds = 200
        try:
            session = manager.get_or_create("closed-loop")
            handle = session.web.load(numbers_source)
            tasks, terminals = [], []

            def submit(index: int) -> None:
                def sink(reply) -> None:
                    if reply.kind in TERMINAL:
                        terminals.append(reply.kind)
                        if index < rounds:
                            submit(index + 1)

                tasks.append(
                    scheduler.submit(session, sketch_request(index, handle), sink)
                )

            submit(1)
            deadline = time.monotonic() + 60
            while len(terminals) < rounds and time.monotonic() < deadline:
                time.sleep(0.005)
            for task in tasks:
                assert task.done.wait(timeout=10)
            assert terminals == ["complete"] * rounds
            assert scheduler.metrics.preempted == 0
            assert session.metrics.preempted == 0
            assert scheduler.metrics.completed == rounds
        finally:
            scheduler.shutdown()

    def test_supersedes_queued_sketch_without_running_it(
        self, manager, numbers_source
    ):
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            blocker_session = manager.get_or_create("blocker")
            blocker_handle = blocker_session.web.load(numbers_source)
            blocker = scheduler.submit(
                blocker_session,
                sketch_request(1, blocker_handle, slow=0.02),
                Collector(),
            )
            session = manager.get_or_create("bob")
            handle = session.web.load(numbers_source)
            stale_sink, fresh_sink = Collector(), Collector()
            stale = scheduler.submit(
                session, sketch_request(2, handle, slow=0.01), stale_sink
            )
            fresh = scheduler.submit(
                session, sketch_request(3, handle, slow=0.0), fresh_sink
            )
            for task in (blocker, stale, fresh):
                assert task.done.wait(timeout=30)
            # The superseded query answered without touching the cluster.
            assert stale_sink.terminal.kind == "cancelled"
            assert stale_sink.terminal.code == "superseded"
            assert len(stale_sink.replies) == 1
            assert fresh_sink.terminal.kind == "complete"
        finally:
            scheduler.shutdown()

    def test_rejected_sketch_does_not_preempt_the_running_one(
        self, manager, numbers_source
    ):
        """Admission control rejects BEFORE newest-query-wins runs: an
        overloaded submit must leave the in-flight query untouched."""
        scheduler = FairShareScheduler(max_concurrent=1, max_queue_per_session=1)
        try:
            session = manager.get_or_create("greedy")
            handle = session.web.load(numbers_source)
            running_sink = Collector()
            running = scheduler.submit(
                session, sketch_request(1, handle, slow=0.02), running_sink
            )
            running_sink.wait_first()  # occupying the only slot
            # Fill the backlog with a non-preemptible query.
            queued = scheduler.submit(
                session, RpcRequest(2, handle, "rowCount"), Collector()
            )
            overflow_sink = Collector()
            overflow = scheduler.submit(
                session, sketch_request(3, handle), overflow_sink
            )
            assert overflow.done.wait(timeout=10)
            assert overflow_sink.terminal.code == "overloaded"
            # The running query was not collateral damage of the rejection.
            assert not running.token.cancelled
            assert running.done.wait(timeout=30)
            assert running_sink.terminal.kind == "complete"
            assert queued.done.wait(timeout=30)
        finally:
            scheduler.shutdown()

    def test_non_sketch_queries_are_not_preempted(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("carol")
            handle = session.web.load(numbers_source)
            rows_sink = Collector()
            rows = scheduler.submit(
                session, RpcRequest(1, handle, "rowCount"), rows_sink
            )
            sketch = scheduler.submit(
                session, sketch_request(2, handle), Collector()
            )
            for task in (rows, sketch):
                assert task.done.wait(timeout=30)
            assert rows_sink.terminal.kind == "complete"
            assert scheduler.metrics.preempted == 0
        finally:
            scheduler.shutdown()


class TestCancellationEdgeCases:
    def test_chain_of_supersessions_while_queued_runs_only_the_newest(
        self, manager, numbers_source
    ):
        """Sketches superseded while still queued are answered without ever
        being admitted to a worker slot; only the newest executes."""
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            blocker_session = manager.get_or_create("blocker")
            blocker_handle = blocker_session.web.load(numbers_source)
            blocker = scheduler.submit(
                blocker_session,
                sketch_request(1, blocker_handle, slow=0.02),
                Collector(),
            )
            session = manager.get_or_create("impatient")
            handle = session.web.load(numbers_source)
            sinks = [Collector() for _ in range(3)]
            tasks = [
                scheduler.submit(session, sketch_request(10 + i, handle), sinks[i])
                for i in range(3)
            ]
            for task in tasks + [blocker]:
                assert task.done.wait(timeout=30)
            for stale_sink in sinks[:2]:
                assert stale_sink.terminal.kind == "cancelled"
                assert stale_sink.terminal.code == "superseded"
                # Never admitted to a slot: the single envelope is the
                # answer, with no partials ever streamed.
                assert len(stale_sink.replies) == 1
            assert sinks[2].terminal.kind == "complete"
            assert scheduler.metrics.preempted == 2
        finally:
            scheduler.shutdown()

    def test_cancel_racing_the_final_complete_is_clean(
        self, manager, numbers_source
    ):
        """Cancelling at the instant the final envelope is produced must
        yield exactly one terminal reply — complete or cancelled, never
        both, never an exception."""
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("racer")
            handle = session.web.load(numbers_source)
            for request_id in range(1, 11):
                sink = Collector()
                task = scheduler.submit(
                    session, sketch_request(request_id, handle, slow=0.001), sink
                )
                sink.wait_first(timeout=30)
                session.cancel_request(request_id)  # races the terminal
                assert task.done.wait(timeout=30)
                terminals = [
                    r for r in sink.replies if r.kind in ("complete", "cancelled")
                ]
                assert len(terminals) == 1
                assert terminals[-1] is sink.replies[-1]
            metrics = scheduler.metrics
            assert metrics.completed + metrics.cancelled == 10
        finally:
            scheduler.shutdown()

    def test_session_close_finalizes_queued_queries(
        self, manager, numbers_source
    ):
        """Closing a session with queries still in the admission queue must
        cancel and finalize them (no dangling done events), and must not
        disturb other sessions' work."""
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            blocker_session = manager.get_or_create("survivor")
            blocker_handle = blocker_session.web.load(numbers_source)
            blocker_sink = Collector()
            blocker = scheduler.submit(
                blocker_session,
                sketch_request(1, blocker_handle, slow=0.02),
                blocker_sink,
            )
            blocker_sink.wait_first()  # the only slot is now occupied
            doomed = manager.get_or_create("doomed")
            handle = doomed.web.load(numbers_source)
            sinks = [Collector() for _ in range(3)]
            tasks = [
                # rowCount queries are not preemptible, so all three queue.
                scheduler.submit(
                    doomed, RpcRequest(10 + i, handle, "rowCount"), sinks[i]
                )
                for i in range(3)
            ]
            assert manager.close("doomed")
            scheduler.forget_session("doomed")
            for task in tasks:
                assert task.done.wait(timeout=10), "queued task left dangling"
                assert task.token.cancelled
            for sink in sinks:
                assert sink.terminal is not None
                assert sink.terminal.kind == "cancelled"
                assert sink.terminal.code == "session_closed"
            assert blocker.done.wait(timeout=30)
            assert blocker_sink.terminal.kind == "complete"
            assert scheduler.queued_count("doomed") == 0
        finally:
            scheduler.shutdown()


class TestFailureModes:
    def test_worker_crash_mid_query(self, service_cluster, manager, numbers_source):
        """A worker losing its soft state mid-query does not corrupt the
        running query, and the next one replays lineage (§5.7-5.8)."""
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("crashy")
            handle = session.web.load(numbers_source)
            sink = Collector()
            task = scheduler.submit(
                session, sketch_request(1, handle, slow=0.01), sink
            )
            sink.wait_first()
            service_cluster.kill_worker(0)
            assert task.done.wait(timeout=30)
            assert sink.terminal.kind == "complete"
            assert sum(sink.terminal.payload["counts"]) == 8_000
            # The follow-up query forces a redo-log replay on worker 0.
            again = Collector()
            task2 = scheduler.submit(session, sketch_request(2, handle), again)
            assert task2.done.wait(timeout=30)
            assert again.terminal.kind == "complete"
            assert sum(again.terminal.payload["counts"]) == 8_000
            assert service_cluster.workers[0].crashes == 1
        finally:
            scheduler.shutdown()

    def test_dead_sink_cancels_the_query(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("ghost")
            handle = session.web.load(numbers_source)
            task = scheduler.submit(
                session, sketch_request(1, handle, slow=0.01), Collector(fail=True)
            )
            assert task.done.wait(timeout=30)
            assert task.token.cancelled
        finally:
            scheduler.shutdown()

    def test_error_envelope_flows_through_scheduler(self, manager):
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("confused")
            sink = Collector()
            task = scheduler.submit(
                session, RpcRequest(1, "obj-404", "rowCount"), sink
            )
            assert task.done.wait(timeout=10)
            assert sink.terminal.kind == "error"
            assert sink.terminal.code == "unknown_handle"
            assert scheduler.metrics.errors == 1
            assert session.metrics.errors == 1
        finally:
            scheduler.shutdown()


class TestSchedulerStateLifecycle:
    """Regression: per-session scheduler state must not outlive the session.

    ``_queues`` entries and round-robin slots used to accumulate forever on
    a long-lived server — TTL-expired sessions never reached
    ``forget_session``, drained queues were never purged, and even a
    rejected submit left bookkeeping behind."""

    @staticmethod
    def _wait_empty(scheduler, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with scheduler._cond:
                if not scheduler._queues and not scheduler._order:
                    return
            time.sleep(0.01)
        with scheduler._cond:
            assert not scheduler._queues, dict(scheduler._queues)
            assert not scheduler._order, list(scheduler._order)

    def test_ttl_expired_session_releases_scheduler_state(
        self, service_cluster, numbers_source
    ):
        class FakeClock:
            t = 1000.0

            def now(self):
                return self.t

        clock = FakeClock()
        scheduler = FairShareScheduler(max_concurrent=1)
        manager = SessionManager(
            service_cluster,
            expire_ttl_seconds=20.0,
            clock=clock.now,
            on_close=scheduler.forget_session,
        )
        try:
            session = manager.get_or_create("leaky")
            handle = session.web.load(numbers_source)
            task = scheduler.submit(
                session, RpcRequest(1, handle, "rowCount"), Collector()
            )
            assert task.done.wait(timeout=10)
            clock.t += 21.0
            assert manager.expire() == ["leaky"]
            self._wait_empty(scheduler)
        finally:
            scheduler.shutdown()

    def test_drained_session_queues_are_purged(self, manager, numbers_source):
        scheduler = FairShareScheduler(max_concurrent=2)
        try:
            tasks = []
            for i in range(3):
                session = manager.get_or_create(f"drain-{i}")
                handle = session.web.load(numbers_source)
                tasks.append(
                    scheduler.submit(
                        session, RpcRequest(i + 1, handle, "rowCount"), Collector()
                    )
                )
            for task in tasks:
                assert task.done.wait(timeout=10)
            # With the backlog drained and the workers idle, no per-session
            # residue may remain.
            self._wait_empty(scheduler)
        finally:
            scheduler.shutdown()

    def test_rejected_submit_leaves_no_scheduler_state(
        self, manager, numbers_source
    ):
        scheduler = FairShareScheduler(max_concurrent=1, max_queue_per_session=0)
        try:
            session = manager.get_or_create("bounced")
            handle = session.web.load(numbers_source)
            sink = Collector()
            task = scheduler.submit(
                session, RpcRequest(1, handle, "rowCount"), sink
            )
            assert task.done.wait(timeout=10)
            assert sink.terminal.code == "overloaded"
            assert scheduler.metrics.rejected == 1
            with scheduler._cond:
                assert session.session_id not in scheduler._queues
                assert session.session_id not in scheduler._order
        finally:
            scheduler.shutdown()


class TestReplyHygiene:
    """Regression: reply-stream classification and envelope ownership."""

    def test_empty_stream_with_cancelled_token_counts_as_cancelled(
        self, manager
    ):
        """A token cancelled before the first envelope used to be counted
        as 'completed' (last_kind is None fell into the else branch)."""
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("hollow")

            def hollow_execute(request, token=None):
                token.cancel()  # cancelled before any envelope is produced
                return iter(())

            session.web.execute = hollow_execute
            task = scheduler.submit(
                session, RpcRequest(1, "obj-1", "rowCount"), Collector()
            )
            assert task.done.wait(timeout=10)
            assert scheduler.metrics.cancelled == 1
            assert scheduler.metrics.completed == 0
        finally:
            scheduler.shutdown()

    def test_empty_stream_without_cancellation_still_counts_completed(
        self, manager
    ):
        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("benign")
            session.web.execute = lambda request, token=None: iter(())
            task = scheduler.submit(
                session, RpcRequest(1, "obj-1", "rowCount"), Collector()
            )
            assert task.done.wait(timeout=10)
            assert scheduler.metrics.completed == 1
            assert scheduler.metrics.cancelled == 0
        finally:
            scheduler.shutdown()

    def test_superseded_code_is_stamped_on_a_copy(self, manager):
        """The scheduler must not mutate reply envelopes it does not own:
        the 'superseded' qualifier goes on a copy, the original object
        (which the execution layer may share) stays untouched."""
        from repro.engine.rpc import RpcReply
        from repro.service import QueryTask

        scheduler = FairShareScheduler(max_concurrent=1)
        try:
            session = manager.get_or_create("copycat")
            shared = RpcReply(7, "cancelled")
            session.web.execute = lambda request, token=None: iter([shared])
            sink = Collector()
            task = QueryTask(session, sketch_request(7, "obj-1"), sink)
            task.superseded = True
            scheduler._execute(task)
            assert sink.terminal.code == "superseded"
            assert sink.terminal is not shared
            assert shared.code is None, "shared envelope was mutated in place"
        finally:
            scheduler.shutdown()


def test_threads_wind_down_after_shutdown(manager, numbers_source):
    scheduler = FairShareScheduler(max_concurrent=2)
    session = manager.get_or_create("bye")
    handle = session.web.load(numbers_source)
    task = scheduler.submit(session, sketch_request(1, handle), Collector())
    assert task.done.wait(timeout=30)
    scheduler.shutdown()
    assert all(not t.is_alive() for t in scheduler._threads)
    with pytest.raises(Exception):
        scheduler.submit(session, sketch_request(2, handle), Collector())


def test_slowdown_sketch_is_uncached():
    from repro.engine.rpc import sketch_from_json
    from repro.service import SlowdownSketch

    sketch = sketch_from_json(
        {
            "type": "slow",
            "perShardSeconds": 0.001,
            "inner": {
                "type": "histogram",
                "column": "x",
                "buckets": {"type": "double", "min": 0, "max": 1, "count": 2},
            },
        }
    )
    assert isinstance(sketch, SlowdownSketch)
    assert sketch.cache_key() is None
    assert not sketch.deterministic
    table = Table.from_pydict({"x": [0.1, 0.9]})
    merged = sketch.merge(sketch.zero(), sketch.summarize(table))
    assert sum(merged.counts) == 2

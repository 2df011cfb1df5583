"""Driver-side handle on one server subprocess, and the measuring client.

A :class:`Stack` is one fresh ``server.py`` process (root + 2 workers,
each worker pinned to a CPU of its own).
:class:`Connection` is ``GatewayWebSocket`` plus the two things the
benchmark needs that the client does not expose: bytes received, and the
instant the last byte of a reply arrived (so waiting and decoding can be
told apart).  Both come from wrapping the socket reader the client reads
through; no protocol logic is re-implemented here.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from repro.engine.rpc import TERMINAL_REPLY_KINDS
from repro.gateway import GatewayClient, GatewayWebSocket

HERE = os.path.dirname(os.path.abspath(__file__))
SHUTDOWN_TIMEOUT_SECONDS = 15.0


class Stack:
    """One running ``server.py``; a context manager that always reaps it."""

    def __init__(self, traced: bool = False):
        # Every knob at its default whatever the caller's shell exports,
        # and one hash seed so set/dict layouts repeat from stack to stack.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = "0"
        if traced:
            env["REPRO_TRACE"] = "1"
        # Its own session: on teardown the whole group (root + workers)
        # can be signalled even if the root wedged before reaping them.
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server.py exited with {self.process.wait()} before announcing"
                )
            info = json.loads(line)
            self._pin_workers(info["workerPids"])
        except BaseException:
            self.close()
            raise
        self.host: str = info["host"]
        self.port: int = info["port"]
        self.pids: list[int] = [info["pid"], *info["workerPids"]]

    @staticmethod
    def _pin_workers(worker_pids: list[int]) -> None:
        """One core per one-core worker: worker ``i`` may run only on the
        ``i``-th CPU this process may use (the root and the driver float).

        Left to itself the kernel often wakes both workers on the CPU the
        root's fan-out ran on, and a 15 ms scan is over before the load
        balancer moves one of them: whole runs then take twice the scan
        time per unit, others do not, and which it is changes every few
        minutes (README, "Repeatability").  Threads a worker starts later
        inherit the mask.
        """
        cpus = sorted(os.sched_getaffinity(0))
        for index, pid in enumerate(worker_pids):
            cpu = cpus[index % len(cpus)]
            for task in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(task), {cpu})

    def connect(self) -> "Connection":
        return Connection(self.host, self.port)

    def http(self) -> GatewayClient:
        return GatewayClient(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the root and its workers."""
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.close()  # end-of-file: the server shuts down
            except OSError:
                pass
            try:
                process.wait(timeout=SHUTDOWN_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()

    def __enter__(self) -> "Stack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _MeteredReader:
    """``recv`` pass-through that counts bytes and stamps arrivals."""

    def __init__(self, inner):
        self._inner = inner
        self.bytes = 0
        self.last_arrival = 0.0

    def recv(self, n: int) -> bytes:
        chunk = self._inner.recv(n)
        self.bytes += len(chunk)
        self.last_arrival = time.perf_counter()
        return chunk


class Reply:
    """One decoded reply message with its measurements."""

    __slots__ = ("message", "arrived", "decoded", "wire_bytes")

    def __init__(self, message: dict, arrived: float, decoded: float, wire_bytes: int):
        self.message = message
        self.arrived = arrived  # last byte off the socket
        self.decoded = decoded  # JSON decoded, message in hand
        self.wire_bytes = wire_bytes

    @property
    def terminal(self) -> bool:
        return self.message.get("kind") in TERMINAL_REPLY_KINDS


class Connection(GatewayWebSocket):
    """A connected, handshaken WebSocket that meters what it reads."""

    def __init__(self, host: str, port: int):
        started = time.perf_counter()
        super().__init__(host, port)
        self._reader = self._meter = _MeteredReader(self._reader)
        self.connect()
        self.handshake_seconds = time.perf_counter() - started
        self._next_request_id = 0

    def send(self, method: str, target: str = "", args: dict | None = None,
             trace: dict | None = None) -> int:
        self._next_request_id += 1
        return self.submit(self._next_request_id, method, target, args, trace)

    def next_reply(self, request_id: int) -> Reply:
        before = self._meter.bytes
        message = self.recv(request_id)
        return Reply(
            message,
            self._meter.last_arrival,
            time.perf_counter(),
            self._meter.bytes - before,
        )

    def replies(self, request_id: int) -> list[Reply]:
        """Every reply of one request, through its terminal."""
        out = []
        while True:
            reply = self.next_reply(request_id)
            out.append(reply)
            if reply.terminal:
                return out

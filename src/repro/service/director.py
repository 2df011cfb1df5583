"""A thin connection director over a multi-root service tier (§5.2).

Production deployments put a load balancer in front of the root fleet;
tests and benchmarks need the same behavior without one.  The director
holds the roots' gateway addresses and deals WebSocket connections
round-robin, with three twists a plain balancer also needs:

* **session affinity** — a session's soft state lives on whichever root
  served it last; the director remembers the root each session was dealt
  and sends that session's reconnects back there.  Affinity is an
  optimization, not a correctness requirement: with a shared session
  store, a session resumed on the *wrong* root is rebuilt from its
  stored recipe book (exactly what the multi-root tests exercise).
* **health checks** — each root's gateway is probed periodically over
  HTTP (``GET /api/v1/health``, which creates no session); after
  ``max_ping_failures`` consecutive failures the root is ejected from
  rotation, and a later successful probe restores it.  Sessions pinned
  to an ejected root fall through to round-robin and resume elsewhere
  via the store.
* **draining** — ``drain(root)`` takes a root out of rotation for
  maintenance *without* dropping its users: the root is told to persist
  every live session to the shared store (so recipe books are fresh),
  new sessions stop routing to it, and existing sessions migrate on
  their next reconnect (their pin is dropped, round-robin deals them a
  healthy root, the store resumes them there).
"""

from __future__ import annotations

import http.client
import random
import threading
from typing import Callable

from repro.errors import HillviewError
from repro.gateway.client import GatewayClient, GatewayWebSocket
from repro.obs.logs import log_event


def probe_gateway(
    address: "tuple[str, int]", timeout: float = 2.0
) -> bool:
    """One health probe: ``GET /api/v1/health`` over HTTP.

    Healthy means the gateway answered 200 with its liveness document
    (``"gateway": true``).  A *draining* gateway is still healthy:
    draining is rotation state, not liveness, and ejecting a draining
    root would prevent its sessions from finishing their migration.
    """
    try:
        with GatewayClient(*address, timeout=timeout) as client:
            status, payload = client.request(
                "GET", "/api/v1/health", raise_on_error=False
            )
    except (OSError, ValueError, http.client.HTTPException):
        return False
    return status == 200 and isinstance(payload, dict) and bool(payload.get("gateway"))


def dial(
    host: str, port: int, session: str | None = None, **kwargs
) -> GatewayWebSocket:
    """A handshaken WebSocket to one gateway, on ``session`` if named."""
    client = GatewayWebSocket(host, port, **kwargs)
    try:
        client.connect(session=session)
    except BaseException:
        # A refused handshake (e.g. a draining root) must not leak the
        # socket of a never-born client.
        client.close()
        raise
    return client


def _admin(address: "tuple[str, int]", action: str) -> dict:
    """``POST /api/v1/{action}`` to one gateway (drain, undrain)."""
    with GatewayClient(*address, timeout=10.0) as client:
        return client.post(f"/api/v1/{action}")


class ConnectionDirector:
    """Round-robin connections across the roots of one service tier;
    each root is named by its gateway's address."""

    def __init__(
        self,
        addresses: "list[tuple[str, int]]",
        client_factory: "Callable[..., GatewayWebSocket] | None" = None,
        max_ping_failures: int = 3,
        probe: "Callable[[tuple[str, int]], bool] | None" = None,
    ):
        if not addresses:
            raise ValueError("a director needs at least one root address")
        self.addresses = list(addresses)
        self._factory = client_factory if client_factory is not None else dial
        self._probe = probe if probe is not None else probe_gateway
        self.max_ping_failures = max_ping_failures
        self._next = 0
        self._affinity: dict[str, tuple[str, int]] = {}
        self._drained: set[tuple[str, int]] = set()
        self._ejected: set[tuple[str, int]] = set()
        self._failures: dict[tuple[str, int], int] = {}
        self.ejections = 0
        self.recoveries = 0
        self._lock = threading.Lock()
        self._checker: threading.Thread | None = None
        self._stop_checks = threading.Event()

    # -- routing ---------------------------------------------------------
    def routable(self) -> "list[tuple[str, int]]":
        """Roots currently in rotation (not drained, not ejected)."""
        with self._lock:
            return [
                a
                for a in self.addresses
                if a not in self._drained and a not in self._ejected
            ]

    def _pick(self, session: str | None) -> tuple[str, int]:
        """The root to try next: the session's pin, else round-robin.

        Picking never records affinity — a pin is only worth keeping if
        the connection actually succeeded, otherwise a dead root would
        capture the session forever.  Pins to drained/ejected roots are
        dropped so the session migrates (the shared store resumes it on
        whatever root round-robin deals)."""
        with self._lock:
            out_of_rotation = self._drained | self._ejected
            if session is not None:
                pinned = self._affinity.get(session)
                if pinned is not None:
                    if pinned in self.addresses and pinned not in out_of_rotation:
                        return pinned
                    del self._affinity[session]  # migrate on reconnect
            candidates = [
                a for a in self.addresses if a not in out_of_rotation
            ]
            if not candidates:
                raise ConnectionError(
                    "no routable root: every address is drained or ejected"
                )
            address = candidates[self._next % len(candidates)]
            self._next += 1
            return address

    def connect(self, session: str | None = None, **kwargs) -> GatewayWebSocket:
        """A connected WebSocket on the session's pinned root, or the
        next one."""
        address = self._pick(session)
        try:
            client = self._factory(*address, session=session, **kwargs)
        except (OSError, ConnectionError):
            # The pinned root is unreachable: drop the pin so the retry
            # falls through to round-robin (and, with a shared session
            # store, resumes the session on a healthy root).
            if session is not None:
                with self._lock:
                    if self._affinity.get(session) == address:
                        del self._affinity[session]
            raise
        # Pin only after the dial succeeded, under the id the welcome
        # names (the server mints one when session is None).
        with self._lock:
            self._affinity[client.session] = address
        return client

    def forget(self, session: str) -> None:
        """Drop a session's pin (it expired, or the test moves it)."""
        with self._lock:
            self._affinity.pop(session, None)

    # -- health checks ---------------------------------------------------
    def check_health(self) -> "dict[tuple[str, int], bool]":
        """One probe pass over every root (ejected ones included, so a
        recovered root rejoins the rotation).  A root failing
        ``max_ping_failures`` *consecutive* probes is ejected; one
        success restores it and resets its failure count."""
        results: "dict[tuple[str, int], bool]" = {}
        for address in list(self.addresses):
            healthy = bool(self._probe(address))
            results[address] = healthy
            recovered = ejected = False
            with self._lock:
                if healthy:
                    self._failures[address] = 0
                    if address in self._ejected:
                        self._ejected.discard(address)
                        self.recoveries += 1
                        recovered = True
                else:
                    failures = self._failures.get(address, 0) + 1
                    self._failures[address] = failures
                    if (
                        failures >= self.max_ping_failures
                        and address not in self._ejected
                    ):
                        self._ejected.add(address)
                        self.ejections += 1
                        ejected = True
            if ejected:
                log_event(
                    "director.eject",
                    level="warning",
                    root=f"{address[0]}:{address[1]}",
                    failures=self._failures.get(address, 0),
                )
            elif recovered:
                log_event(
                    "director.recover", root=f"{address[0]}:{address[1]}"
                )
        return results

    def start_health_checks(
        self,
        interval_seconds: float = 5.0,
        jitter_fraction: float = 0.2,
    ) -> None:
        """Run :meth:`check_health` on a background thread until
        :meth:`close` (idempotent).

        Each wait stretches by a fresh uniform jitter of up to
        ``jitter_fraction`` of the interval: directors started together
        (one per root tier, or a fleet of test processes) would
        otherwise probe every worker in synchronized bursts, and the
        bursts themselves read as load spikes to anything watching
        queue depth — the autoscaler included.  Jitter de-phases them.
        """
        if self._checker is not None and self._checker.is_alive():
            return
        self._stop_checks.clear()
        rng = random.Random()

        def loop() -> None:
            while not self._stop_checks.wait(
                interval_seconds * (1.0 + rng.random() * jitter_fraction)
            ):
                self.check_health()

        # repro: ignore[C002] — background health-probe loop; probes carry no query context
        self._checker = threading.Thread(
            target=loop, name="director-health", daemon=True
        )
        self._checker.start()

    def ejected(self) -> "list[tuple[str, int]]":
        with self._lock:
            return sorted(self._ejected)

    # -- draining --------------------------------------------------------
    def drain(
        self, address: "tuple[str, int]", flush_sessions: bool = True
    ) -> dict:
        """Take one root out of rotation for maintenance.

        With ``flush_sessions`` the root is asked (best-effort) to
        persist every live session's recipe book to the shared store
        right now and to refuse *new* sessions, so reconnecting clients
        resume with fresh state on the roots that remain.  Existing
        connections keep streaming until their clients disconnect.
        """
        if address not in self.addresses:
            raise ValueError(f"unknown root {address!r}")
        with self._lock:
            self._drained.add(address)
            stale_pins = [
                session
                for session, pinned in self._affinity.items()
                if pinned == address
            ]
            for session in stale_pins:
                del self._affinity[session]
        result: dict = {"drained": True, "unpinned": len(stale_pins)}
        log_event(
            "director.drain",
            root=f"{address[0]}:{address[1]}",
            unpinned=len(stale_pins),
        )
        if flush_sessions:
            try:
                result.update(_admin(address, "drain"))
            except (HillviewError, OSError, ValueError):
                result["flushError"] = True  # the root may already be down
        return result

    def undrain(self, address: "tuple[str, int]") -> None:
        """Return a drained root to the rotation (maintenance finished)."""
        with self._lock:
            self._drained.discard(address)
        try:
            _admin(address, "undrain")
        except (HillviewError, OSError, ValueError):
            pass

    def drained(self) -> "list[tuple[str, int]]":
        with self._lock:
            return sorted(self._drained)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self._stop_checks.set()
        if self._checker is not None:
            self._checker.join(timeout=5.0)
            self._checker = None

    def __repr__(self) -> str:
        roots = ", ".join(f"{h}:{p}" for h, p in self.addresses)
        return f"<ConnectionDirector roots=[{roots}]>"

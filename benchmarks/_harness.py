"""Helpers shared by the benchmarks: report formatting, and a root
behind its gateway with the client calls the service benchmarks time."""

from __future__ import annotations

import time


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """A fixed-width text table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def line(parts):
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def human_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(count) < 1024 or unit == "GB":
            return f"{count:.1f}{unit}" if unit != "B" else f"{count:.0f}B"
        count /= 1024
    return f"{count:.1f}GB"


def human_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


class Root:
    """One root for a benchmark: a ``ServiceServer`` over ``cluster``
    behind its ``GatewayServer``; ``address`` is the gateway's."""

    def __init__(self, cluster, **service_kwargs):
        from repro.gateway import GatewayServer
        from repro.service import ServiceServer

        self.service = ServiceServer(cluster, **service_kwargs)
        self.gateway = GatewayServer(self.service)
        self.address = self.gateway.start_background()

    def close(self) -> None:
        self.gateway.close()
        self.service.close()


def load(client, source: dict | None = None) -> str:
    """Load ``source`` ({} = the root's default) on a connected
    ``GatewayWebSocket``; returns the handle."""
    return client.call("load", args={"source": source or {}})["payload"]["handle"]


def timed_sketch(client, handle: str, spec: dict) -> tuple[float, float, list[dict]]:
    """One sketch over a ``GatewayWebSocket``: (first-reply latency,
    total latency, every reply through the terminal)."""
    start = time.perf_counter()
    first = None
    replies = []
    for reply in client.stream(client.request("sketch", handle, {"sketch": spec})):
        if first is None:
            first = time.perf_counter() - start
        replies.append(reply)
    assert replies[-1]["kind"] == "complete", replies[-1]
    return first, time.perf_counter() - start, replies

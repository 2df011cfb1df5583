"""The system under test, in its own process.

``ProcessCluster(num_workers=2, cores_per_worker=1)`` -> ``ServiceServer``
-> ``GatewayServer``, every other knob at its default.  (The ``repro
gateway`` CLI can only build an in-process ``Cluster``.)

Protocol with the driver: one JSON line on stdout once the stack is
listening (``{"host", "port", "pid", "workerPids"}``), then the process
serves until its stdin reaches end-of-file — which happens when the
driver closes the pipe *or dies*, so a killed driver cannot leave a
server behind.  Workers exit on their own when the root's sockets close;
``close()`` below makes that prompt, and the ``finally`` covers a stack
that failed half-way through construction.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main() -> int:
    from repro.engine.remote import ProcessCluster
    from repro.gateway import GatewayServer
    from repro.obs.trace import set_service_name
    from repro.service import ServiceServer

    set_service_name("gateway")
    cluster = ProcessCluster(num_workers=2, cores_per_worker=1)
    service = gateway = None
    try:
        service = ServiceServer(cluster)
        service.start_background()
        gateway = GatewayServer(service)
        host, port = gateway.start_background()
        announce = {
            "host": host,
            "port": port,
            "pid": os.getpid(),
            "workerPids": cluster.worker_pids(),
        }
        sys.stdout.write(json.dumps(announce) + "\n")
        sys.stdout.flush()
        sys.stdin.read()  # returns at end-of-file: the driver is done, or gone
    finally:
        if gateway is not None:
            gateway.close()
        if service is not None:
            service.close()
        cluster.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

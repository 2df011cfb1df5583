"""Shard-placement agreement for multi-root worker fleets (§5.2–5.3).

Hillview's web server is stateless: many roots can serve one worker
cluster, which is what lets the system scale to many simultaneous users.
For that to be *correct*, every root must agree on the fleet's slicing —
which worker owns shard slice ``index`` of ``count``.  A root that
invented its own assignment (say, by the order its ``--join`` list
happened to be written) would silently reconfigure workers under
another root's feet: datasets already loaded under the old slicing would
replay their lineage against a different slice and produce wrong answers
without any error.

The registry is therefore *worker-resident* and sticky:

* each worker remembers the first placement it was configured with and
  reports it — slice, version and fleet membership — over the
  ``placement`` verb;
* a worker rejects a conflicting ``configure`` (code
  ``placement_conflict``) instead of silently re-slicing;
* a root attaching to the fleet, or re-syncing after a rejection, runs
  one rule for every deployment
  (:meth:`~repro.engine.cluster.Cluster._sync_placement`): read every
  worker's placement, adopt the newest, and drive whatever is behind it
  there, redo-log replay rebuilding what those workers drop (§5.7).  A
  fresh fleet keeps the order the root was given, which a daemon fleet
  sorts by address so any two roots mint the same slices.

:func:`parse_fleet_spec` turns the ``repro serve --join`` argument into
the address list a root dials.

Placements are **versioned** so a placed fleet can change size at
runtime (grow/shrink with shard re-balancing): every rebalance bumps the
fleet's placement version and re-pins each worker's slice, the root
names its version on every dataset operation, and a worker rejects a
stale one (:class:`StalePlacementError`, retryable) so the root re-syncs
— adopting the *membership* each worker reports alongside its slice —
and retries on the new assignment.  In-flight requests admitted under
the old version drain against the old slicing before a commit re-keys
any worker's shard store, so results stay byte-identical throughout.
"""

from __future__ import annotations

from repro.errors import HillviewError


class PlacementError(HillviewError):
    """The fleet's reported placements cannot be reconciled.

    ``retryable`` marks the rejection a root heals itself, by re-syncing
    the placement and retrying (:class:`StalePlacementError`).
    """

    code = "placement_conflict"
    retryable = False


class StalePlacementError(PlacementError):
    """The fleet rebalanced since this root last read the placement.

    Always retryable: the root re-queries the fleet (adopting any
    membership change) and re-issues the request under the new version.
    """

    code = "stale_placement"
    retryable = True


def format_address(address: "tuple[str, int]") -> str:
    """The canonical ``host:port`` membership entry for one worker."""
    host, port = address
    return f"{host}:{port}"


def parse_address(entry: str) -> tuple[str, int]:
    """Invert :func:`format_address` (also accepts bare ``:port``)."""
    host, _, port = str(entry).rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise PlacementError(
            f"bad member address {entry!r}; expected host:port"
        ) from None


# ---------------------------------------------------------------------------
# Rebalancing: which shard slices move when the fleet changes size
# ---------------------------------------------------------------------------
def slice_of(global_index: int, count: int) -> int:
    """The slice owning global shard ``global_index`` in a fleet of
    ``count`` workers — the same round-robin striping as
    ``DataSource.load_slice`` (worker ``i`` holds ``load()[i::count]``)."""
    return global_index % count


def global_indices(index: int, count: int, shards: int) -> list[int]:
    """The global shard indices worker ``index`` of ``count`` holds for a
    dataset with ``shards`` resident local shards, in local order."""
    return [index + p * count for p in range(shards)]


def expected_slice(index: int, count: int, total: int) -> list[int]:
    """Every global shard index slice ``index`` of ``count`` must hold
    for a dataset of ``total`` shards, ascending."""
    return list(range(index, total, count))


def plan_moves(
    resident: "list[list[int]]",
    new_indices: "list[int | None]",
    new_count: int,
) -> "dict[tuple[int, int], list[int]]":
    """The minimal shard movement for one dataset across a rebalance.

    ``resident[i]`` lists the global shard indices old worker position
    ``i`` currently holds; ``new_indices[i]`` is that worker's slice
    index in the *new* assignment (``None`` for a worker being removed).
    Returns ``{(old_position, new_owner_index): [global indices]}`` for
    every shard whose owner changes — shards staying put are omitted, so
    a grow streams only the slices that actually move (§6 deployment,
    made elastic).
    """
    if len(resident) != len(new_indices):
        raise PlacementError(
            f"{len(resident)} inventories but {len(new_indices)} new indices"
        )
    moves: "dict[tuple[int, int], list[int]]" = {}
    for position, globals_held in enumerate(resident):
        keeps = new_indices[position]
        for g in sorted(globals_held):
            owner = slice_of(g, new_count)
            if owner == keeps:
                continue  # stays put
            moves.setdefault((position, owner), []).append(g)
    return moves


def parse_announcement(line: str) -> tuple[str, int]:
    """The address in the JSON line a ``repro worker --listen`` daemon
    prints once bound (``{"worker": ..., "host": ..., "port": N}``)."""
    import json

    entry = line.strip()
    try:
        announcement = json.loads(entry)
        return (str(announcement.get("host", "127.0.0.1")), int(announcement["port"]))
    except (ValueError, KeyError) as exc:
        raise PlacementError(f"bad worker announcement {entry!r}: {exc}") from None


def parse_fleet_spec(spec: str) -> list[tuple[str, int]]:
    """Parse a ``--join`` fleet spec into worker addresses.

    Two forms:

    * ``host:port,host:port,...`` — inline, comma-separated;
    * ``@path`` — a file with one ``host:port`` per line (``#`` comments
      and blank lines ignored).  Lines may also be the JSON announcement
      a ``repro worker --listen`` daemon prints (``{"worker": ...,
      "port": N}``), so a fleet file can be built by redirecting daemon
      stdout.
    """
    entries: list[str]
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as handle:
                entries = handle.readlines()
        except OSError as exc:
            raise PlacementError(f"cannot read fleet file {spec[1:]!r}: {exc}")
    else:
        entries = spec.split(",")
    addresses: list[tuple[str, int]] = []
    for raw in entries:
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        if entry.startswith("{"):
            addresses.append(parse_announcement(entry))
            continue
        try:
            addresses.append(parse_address(entry))
        except PlacementError:
            raise PlacementError(
                f"bad fleet entry {entry!r}; expected host:port"
            ) from None
    if not addresses:
        raise PlacementError(f"fleet spec {spec!r} names no workers")
    return addresses

"""Multi-process controller ring: sharded serving with replicated learning.

The paper's §7 discussion asks whether one logical Via controller can
serve a large deployment and points at partitioning as the answer.  This
module is that answer for the deployment plane: N independent
:class:`ShardController` processes, each a full durable
:class:`~repro.deployment.controller.ViaController`, split the pair space
by the same :func:`~repro.core.sharding.stable_shard_of` consistent hash
that :class:`~repro.core.sharding.ShardedPolicy` models in simulation.

How the pieces fit::

    ControllerRing (parent process)
      |  spawns N shard processes, collects their bound ports,
      |  pushes the completed ShardMap to every shard (shard_map msg)
      v
    ShardController x N            ShardedViaClient
      - owns pairs where            - learns the map from hello_ack
        stable_shard_of(pair)==i    - routes each pair to its owner
      - redirects the rest          - follows redirects on stale maps
      - gossips learned state
      - WAL-recovers on restart

**Routing.**  A pair's owner is ``stable_shard_of((min(src, dst),
max(src, dst)), n_shards)`` over *client ids* -- exactly the canonical
AS-granularity pair key the controller's policy uses for these calls
(client ids play the role of AS numbers in the deployment plane), and
computable by any client from the shard map alone.  A request landing on
the wrong shard (stale map) is answered with a
:class:`~repro.deployment.protocol.RedirectMessage` carrying the owner's
address and a fresh map -- never silently served, so no shard learns
state it would fight over with the owner.

**Replicated learning.**  Each shard keeps a ``local_history`` mirror of
only the measurements *it* observed (fed by both the live path and WAL
replay, so it survives crashes).  A gossip round pulls every peer's
local history (``sync_request``/``sync`` frames, chunked to the wire
limit) and rebuilds the policy's working history as ``local ∪ merge(peer
locals)`` through :meth:`repro.core.history.CallHistory.merge`.  Because
each measurement lives in exactly one shard's local mirror, the rebuild
is idempotent -- re-gossiping never double counts.  The merged view
feeds predictions at the shard's next periodic refresh (the current
period's bandit state is deliberately left alone).

**Failover.**  Shards ride the PR 4 durability path: a killed shard's
WAL already holds every acknowledged measurement (log-before-act with
unbuffered appends), so a restart recovers its own state exactly, then
one gossip round catches it up on what the fleet learned while it was
down.  The ring pushes a bumped shard map after a restart; receiving a
newer map triggers that catch-up round automatically.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import socket as socket_module
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.history import CallHistory, history_from_dict, history_to_dict
from repro.core.policy import ViaConfig
from repro.core.sharding import stable_shard_of
from repro.deployment.client import AsyncViaClient, RedirectError
from repro.deployment.controller import ViaController
from repro.deployment.protocol import (
    AssignMessage,
    ErrorMessage,
    ProtocolError,
    RedirectMessage,
    RequestMessage,
    ShardMapMessage,
    StatsMessage,
    SyncMessage,
    SyncRequestMessage,
    decode_message,
    encode_message,
)
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import RelayOption
from repro.telephony.call import Call

__all__ = [
    "ShardMap",
    "ShardController",
    "ControllerRing",
    "InProcessRing",
    "ShardedViaClient",
    "ring_pair_key",
]

logger = logging.getLogger(__name__)

#: History entries per sync frame: ~180 bytes of JSON per entry keeps a
#: full frame comfortably under the 64 KiB wire line limit.
SYNC_CHUNK_ENTRIES = 200


def ring_pair_key(src_id: int, dst_id: int) -> tuple[int, int]:
    """The canonical (unordered) pair key the ring routes on.

    Client ids play the role of AS numbers in the deployment plane, so
    this is exactly the AS-granularity key the controller's policy uses
    -- and any client can compute it from the two ids alone."""
    return (src_id, dst_id) if src_id <= dst_id else (dst_id, src_id)


@dataclass(frozen=True, slots=True)
class ShardMap:
    """Versioned shard membership: shard index -> (host, port).

    Maps are replaced wholesale when a newer ``version`` arrives (the
    ring bumps it on every membership/address change), never patched."""

    version: int
    shards: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a shard map needs at least one shard")
        if self.version < 1:
            raise ValueError(f"shard map version must be >= 1: {self.version}")

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, src_id: int, dst_id: int) -> int:
        """The shard owning this pair of client ids."""
        return stable_shard_of(ring_pair_key(src_id, dst_id), self.n_shards)

    def address_of(self, shard: int) -> tuple[str, int]:
        return self.shards[shard]

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "shards": [[host, port] for host, port in self.shards],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ShardMap":
        """Parse a map a peer sent.  Types are exact -- ``1e999``, ``True``
        or ``"3"`` is not a version, ``2.7`` not a port -- and every
        rejection is a ``ValueError``, the one type the handlers catch."""
        version = data.get("version") if isinstance(data, dict) else None
        shards = data.get("shards") if isinstance(data, dict) else None
        if not (
            type(version) is int  # bool is an int subclass, not a version
            and isinstance(shards, list)
            and all(
                isinstance(shard, list)
                and len(shard) == 2
                and isinstance(shard[0], str)
                and type(shard[1]) is int
                and 1 <= shard[1] <= 65535
                for shard in shards
            )
        ):
            raise ValueError(f"bad shard map payload: {data!r}")
        return cls(version=version, shards=tuple((host, port) for host, port in shards))


class ShardController(ViaController):
    """One shard of a controller ring.

    A full :class:`~repro.deployment.controller.ViaController` (store,
    admission ladder, v1/v2 protocol, snapshots) plus the ring duties:
    ownership checks with redirect-on-wrong-shard, the local-observation
    mirror, gossip (serving ``sync_request`` and pulling peers), and
    shard-map bookkeeping.  With ``n_shards=1`` and no map it behaves
    exactly like its base class.
    """

    def __init__(
        self,
        policy_config: ViaConfig | None = None,
        *,
        shard_index: int = 0,
        n_shards: int = 1,
        shard_map: ShardMap | None = None,
        gossip_interval_s: float | None = None,
        gossip_on_map_update: bool = True,
        gossip_timeout_s: float = 5.0,
        sync_chunk_entries: int = SYNC_CHUNK_ENTRIES,
        **kwargs: Any,
    ) -> None:
        if not 0 <= shard_index < n_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for n_shards {n_shards}"
            )
        super().__init__(policy_config, **kwargs)
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.gossip_interval_s = gossip_interval_s
        self.gossip_on_map_update = gossip_on_map_update
        self.gossip_timeout_s = gossip_timeout_s
        self.sync_chunk_entries = sync_chunk_entries
        self._shard_map: ShardMap | None = shard_map
        #: Only the measurements THIS shard observed (live or WAL replay)
        #: -- the unit of gossip.  Each measurement lives in exactly one
        #: shard's local mirror, which is what makes the anti-entropy
        #: rebuild idempotent.
        self.local_history = CallHistory(
            window_hours=self.policy.config.refresh_hours
        )
        self._gossip_task: asyncio.Task | None = None
        self._catchup_tasks: set[asyncio.Task] = set()
        # via_shard_* instruments (same private registry as everything
        # else on this controller, so one scrape shows the ring state).
        self.registry.gauge(
            "via_shard_index", "This controller's shard index in the ring."
        ).set(shard_index)
        self._obs_map_version = self.registry.gauge(
            "via_shard_map_version",
            "Version of the shard map this shard currently routes by (0 = none).",
        )
        if shard_map is not None:
            self._obs_map_version.set(shard_map.version)
        self._obs_redirects = self.registry.counter(
            "via_shard_redirects_total",
            "Requests answered with a redirect to the owning shard.",
        )
        self._obs_gossip_rounds = self.registry.counter(
            "via_shard_gossip_rounds_total",
            "Completed gossip rounds (peer state pulled and folded).",
        )
        self._obs_gossip_exchanges = self.registry.counter(
            "via_shard_gossip_exchanges_total",
            "Per-peer gossip pulls, by outcome.",
            ("outcome",),
        )
        for outcome in ("ok", "error"):
            self._obs_gossip_exchanges.labels(outcome=outcome)
        self._obs_merged_entries = self.registry.gauge(
            "via_shard_merged_entries",
            "(pair, option, window) aggregates in the merged history "
            "after the last gossip round.",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap | None:
        return self._shard_map

    async def start(self) -> None:
        await super().start()
        if self.gossip_interval_s is not None:
            self._gossip_task = asyncio.ensure_future(self._gossip_loop())

    async def stop(self) -> None:
        tasks = list(self._catchup_tasks)
        if self._gossip_task is not None:
            tasks.append(self._gossip_task)
            self._gossip_task = None
        self._catchup_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await super().stop()

    async def _gossip_loop(self) -> None:
        assert self.gossip_interval_s is not None
        while True:
            await asyncio.sleep(self.gossip_interval_s)
            try:
                await self.gossip_now()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - isolation backstop
                logger.exception("shard %d: gossip round failed", self.shard_index)

    # ------------------------------------------------------------------
    # Ownership and redirects
    # ------------------------------------------------------------------

    def owner_of(self, src_id: int, dst_id: int) -> int:
        """The shard owning this pair under the current topology."""
        if self._shard_map is not None:
            return self._shard_map.shard_of(src_id, dst_id)
        return stable_shard_of(ring_pair_key(src_id, dst_id), self.n_shards)

    def _maybe_redirect(self, message: RequestMessage) -> RedirectMessage | None:
        if self._shard_map is None or self.n_shards <= 1:
            return None
        owner = self.owner_of(message.src_id, message.dst_id)
        if owner == self.shard_index:
            return None
        self._obs_redirects.inc()
        host, port = self._shard_map.address_of(owner)
        return RedirectMessage(
            shard=owner, host=host, port=port, shard_map=self._shard_map.to_dict()
        )

    def _on_request(
        self, message: RequestMessage, *, log: bool = True, line: bytes | None = None
    ) -> AssignMessage | RedirectMessage:
        redirect = self._maybe_redirect(message)
        if redirect is not None:
            # Not WAL-logged: a redirect consumes no policy state, so a
            # recovered shard must not replay it.
            return redirect
        return super()._on_request(message, log=log, line=line)

    # ------------------------------------------------------------------
    # The local-observation mirror
    # ------------------------------------------------------------------

    def _on_measurement(
        self, message: Any, *, log: bool = True, line: bytes | None = None
    ) -> None:
        super()._on_measurement(message, log=log, line=line)
        # Mirror into the local observation set with exactly the keying
        # and orientation the policy used (measurements for pairs we do
        # not own -- a stale client's sends -- are accepted too: gossip
        # carries them to the owner's merged view).
        from repro.deployment.protocol import decode_option

        call = Call(
            call_id=0,
            t_hours=message.t_hours,
            src_asn=message.src_id,
            dst_asn=message.dst_id,
            src_country=self.site_labels.get(message.src_id, "?"),
            dst_country=self.site_labels.get(message.dst_id, "?"),
            src_user=message.src_id,
            dst_user=message.dst_id,
        )
        view = self.policy._keyer.view(call)
        option = view.normalize(decode_option(message.option))
        self.local_history.add(view.pair_key, option, message.t_hours, message.metrics())

    # ------------------------------------------------------------------
    # Snapshots: the mirror is state too
    # ------------------------------------------------------------------

    def snapshot_dict(self) -> dict:
        payload = super().snapshot_dict()
        payload["local_history"] = history_to_dict(self.local_history)
        return payload

    def restore_dict(self, payload: dict) -> None:
        super().restore_dict(payload)
        saved = payload.get("local_history")
        if saved is not None:
            self.local_history = history_from_dict(saved)

    # ------------------------------------------------------------------
    # Ring hooks (the server dispatches these)
    # ------------------------------------------------------------------

    def _hello_shard_map(self) -> dict | None:
        return self._shard_map.to_dict() if self._shard_map is not None else None

    def _sync_replies(self, message: SyncRequestMessage) -> list[Any]:
        scope = message.scope
        if scope == "local":
            history = self.local_history
        elif scope == "merged":
            history = self.policy.history
        else:
            return [
                ErrorMessage(
                    code="malformed", detail=f"unknown sync scope: {scope!r}"
                )
            ]
        return list(self._sync_frames(history))

    def _sync_frames(self, history: CallHistory) -> Iterator[SyncMessage]:
        """Chunk one history into wire-sized ``sync`` frames."""
        payload = history_to_dict(history)
        flat: list[tuple[str, dict]] = [
            (window, entry)
            for window, entries in payload["windows"].items()
            for entry in entries
        ]
        chunks = [
            flat[i : i + self.sync_chunk_entries]
            for i in range(0, len(flat), self.sync_chunk_entries)
        ] or [[]]
        for seq, chunk in enumerate(chunks):
            windows: dict[str, list[dict]] = {}
            for window, entry in chunk:
                windows.setdefault(window, []).append(entry)
            yield SyncMessage(
                shard=self.shard_index,
                seq=seq,
                last=(seq == len(chunks) - 1),
                history={"window_hours": payload["window_hours"], "windows": windows},
                n_measurements=self.n_measurements,
            )

    def _on_shard_map(self, message: ShardMapMessage) -> None:
        try:
            incoming = ShardMap.from_dict(message.shard_map)
        except ValueError:
            logger.exception("shard %d: rejecting bad shard map", self.shard_index)
            return
        if incoming.n_shards != self.n_shards:
            logger.error(
                "shard %d: rejecting shard map with n_shards=%d (ours is %d)",
                self.shard_index,
                incoming.n_shards,
                self.n_shards,
            )
            return
        if self._shard_map is not None and incoming.version <= self._shard_map.version:
            return
        self._shard_map = incoming
        self._obs_map_version.set(incoming.version)
        logger.info(
            "shard %d: shard map now v%d (%d shards)",
            self.shard_index,
            incoming.version,
            incoming.n_shards,
        )
        if self.gossip_on_map_update and self.n_shards > 1:
            # Membership changed under us (fleet start, or we just came
            # back from the dead): one catch-up round folds in whatever
            # the fleet learned meanwhile.
            try:
                task = asyncio.get_running_loop().create_task(self.gossip_now())
            except RuntimeError:
                return  # outside a loop (tests poking the hook directly)
            self._catchup_tasks.add(task)
            task.add_done_callback(self._catchup_tasks.discard)

    # ------------------------------------------------------------------
    # Gossip: pull peers' local state, rebuild the merged view
    # ------------------------------------------------------------------

    async def gossip_now(self) -> int:
        """One anti-entropy round; returns the number of peers folded.

        Pulls every peer's *local* history and rebuilds the policy's
        working history as ``local ∪ merge(peer locals)``.  The rebuild
        replaces ``policy.history`` wholesale: since every measurement
        lives in exactly one shard's local mirror, the result is the true
        fleet-wide union no matter how often (or in what order) rounds
        run.  Predictions pick the new data up at the next periodic
        refresh -- mid-period bandit state is deliberately untouched.
        """
        shard_map = self._shard_map
        if shard_map is None or shard_map.n_shards <= 1:
            return 0
        peers = [i for i in range(shard_map.n_shards) if i != self.shard_index]
        folded: list[CallHistory] = []
        for peer in peers:
            host, port = shard_map.address_of(peer)
            try:
                history = await self._pull_peer_history(host, port)
            except (ConnectionError, OSError, asyncio.TimeoutError, ProtocolError, ValueError):
                self._obs_gossip_exchanges.labels(outcome="error").inc()
                logger.warning(
                    "shard %d: gossip pull from shard %d (%s:%d) failed",
                    self.shard_index,
                    peer,
                    host,
                    port,
                    exc_info=True,
                )
                continue
            self._obs_gossip_exchanges.labels(outcome="ok").inc()
            folded.append(history)
        # Bound the mirror (and therefore gossip frames) to the windows
        # the policy still predicts from: the current period and the one
        # it learns from.
        if self.policy.period >= 0:
            self.local_history.prune_before(self.policy.period - 1)
        merged = history_from_dict(history_to_dict(self.local_history))
        for history in folded:
            merged.merge(history)
        self.policy.history = merged
        self._obs_gossip_rounds.inc()
        self._obs_merged_entries.set(
            sum(len(list(merged.window_items(w))) for w in merged.windows())
        )
        return len(folded)

    async def _pull_peer_history(self, host: str, port: int) -> CallHistory:
        """Fetch one peer's local history over a throwaway connection.

        No hello is sent on purpose: a hello would register this shard in
        the peer's client set and WAL, polluting its operational counters
        and recovery stream with control-plane chatter."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(encode_message(SyncRequestMessage(scope="local")))
            await writer.drain()
            history = CallHistory(window_hours=self.local_history.window_hours)
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.gossip_timeout_s
                )
                if not line:
                    raise ConnectionError("peer closed mid-sync")
                message = decode_message(line)
                if isinstance(message, SyncMessage):
                    # A malformed chunk, or one on another window width,
                    # is a ValueError here: this peer fails, the round goes on.
                    history.merge(history_from_dict(message.history))
                    if message.last:
                        return history
                elif isinstance(message, ErrorMessage):
                    raise ProtocolError(f"peer refused sync: {message.code}")
                # anything else (stray pushes) is ignored
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass


# ----------------------------------------------------------------------
# The multi-process ring
# ----------------------------------------------------------------------


def _shard_entry(
    shard_index: int,
    n_shards: int,
    config: ViaConfig | None,
    host: str,
    port: int,
    store_root: str | None,
    gossip_interval_s: float | None,
    admission: Any,
    conn: Any,
) -> None:
    """Child-process entry: serve one shard until the parent kills us."""

    async def serve() -> None:
        store = None
        if store_root is not None:
            store = str(Path(store_root) / f"shard-{shard_index}")
        controller = ShardController(
            config,
            shard_index=shard_index,
            n_shards=n_shards,
            host=host,
            port=port,
            store=store,
            gossip_interval_s=gossip_interval_s,
            admission=admission,
        )
        await controller.start()
        conn.send(("ready", shard_index, controller.port))
        conn.close()
        # Failover is modelled as a hard kill (SIGKILL from the parent);
        # the WAL's unbuffered appends make that safe.  So: serve forever.
        while True:
            await asyncio.sleep(3600.0)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - parent teardown
        pass


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork when available (cheap, inherits the loaded modules), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


class ControllerRing:
    """Parent-side manager of an N-shard controller fleet.

    Spawns one :class:`ShardController` process per shard, collects the
    ports they bound, distributes the completed :class:`ShardMap`, and
    drives failover (:meth:`kill_shard` / :meth:`restart_shard`).  The
    parent stays synchronous -- map pushes are plain blocking sockets --
    so benchmarks and tests can drive a fleet without their own loop.
    """

    def __init__(
        self,
        n_shards: int,
        config: ViaConfig | None = None,
        *,
        host: str = "127.0.0.1",
        store_root: str | Path | None = None,
        gossip_interval_s: float | None = None,
        admission: Any = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        self.n_shards = n_shards
        self.config = config
        self.host = host
        self.store_root = str(store_root) if store_root is not None else None
        self.gossip_interval_s = gossip_interval_s
        self.admission = admission
        self._ctx = _mp_context()
        self._procs: list[Any | None] = [None] * n_shards
        self._ports: list[int] = [0] * n_shards
        self._map_version = 0
        self.shard_map: ShardMap | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self, *, timeout_s: float = 30.0) -> ShardMap:
        """Spawn every shard, then distribute the completed map."""
        if self.shard_map is not None:
            raise RuntimeError("ring already started")
        for i in range(self.n_shards):
            self._spawn(i, port=0, timeout_s=timeout_s)
        self._publish_map()
        assert self.shard_map is not None
        return self.shard_map

    def stop(self) -> None:
        for i, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=10.0)
        self._procs = [None] * self.n_shards

    def __enter__(self) -> "ControllerRing":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- failover ------------------------------------------------------

    def kill_shard(self, shard: int) -> None:
        """SIGKILL one shard: the crash the WAL is built to survive."""
        proc = self._procs[shard]
        if proc is None or not proc.is_alive():
            raise RuntimeError(f"shard {shard} is not running")
        proc.kill()
        proc.join(timeout=10.0)
        self._procs[shard] = None

    def restart_shard(self, shard: int, *, timeout_s: float = 30.0) -> None:
        """Respawn a dead shard on its old port and re-publish the map.

        The restarted shard recovers its own WAL during startup; the map
        push (bumped version) then triggers its catch-up gossip round.
        """
        if self._procs[shard] is not None and self._procs[shard].is_alive():
            raise RuntimeError(f"shard {shard} is still running")
        self._spawn(shard, port=self._ports[shard], timeout_s=timeout_s)
        self._publish_map()

    # -- internals -----------------------------------------------------

    def _spawn(self, shard: int, *, port: int, timeout_s: float) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_entry,
            args=(
                shard,
                self.n_shards,
                self.config,
                self.host,
                port,
                self.store_root,
                self.gossip_interval_s,
                self.admission,
                child_conn,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(timeout_s):
            proc.kill()
            raise TimeoutError(f"shard {shard} did not report ready in {timeout_s}s")
        kind, reported_shard, bound_port = parent_conn.recv()
        parent_conn.close()
        if kind != "ready" or reported_shard != shard:  # pragma: no cover
            proc.kill()
            raise RuntimeError(f"shard {shard} handshake failed: {kind!r}")
        self._procs[shard] = proc
        self._ports[shard] = bound_port

    def _publish_map(self) -> None:
        self._map_version += 1
        self.shard_map = ShardMap(
            version=self._map_version,
            shards=tuple((self.host, p) for p in self._ports),
        )
        frame = encode_message(ShardMapMessage(shard_map=self.shard_map.to_dict()))
        for shard in range(self.n_shards):
            proc = self._procs[shard]
            if proc is None or not proc.is_alive():
                continue
            try:
                with socket_module.create_connection(
                    (self.host, self._ports[shard]), timeout=5.0
                ) as sock:
                    sock.sendall(frame)
            except OSError:
                logger.warning(
                    "could not push shard map v%d to shard %d",
                    self._map_version,
                    shard,
                    exc_info=True,
                )


class InProcessRing:
    """An N-shard ring inside one event loop (tests and the CI smoke).

    Same :class:`ShardController` code, no processes: shards bind real
    sockets on this loop, the map is injected directly, and gossip runs
    only when :meth:`gossip_round` is called (deterministic by default).
    """

    def __init__(
        self,
        n_shards: int,
        config: ViaConfig | None = None,
        *,
        store_root: str | Path | None = None,
        gossip_on_map_update: bool = False,
        **shard_kwargs: Any,
    ) -> None:
        store_root = Path(store_root) if store_root is not None else None
        self.shards = [
            ShardController(
                config,
                shard_index=i,
                n_shards=n_shards,
                gossip_on_map_update=gossip_on_map_update,
                store=(store_root / f"shard-{i}") if store_root is not None else None,
                **shard_kwargs,
            )
            for i in range(n_shards)
        ]
        self.shard_map: ShardMap | None = None
        self._map_version = 0

    async def start(self) -> ShardMap:
        for shard in self.shards:
            await shard.start()
        return self.publish_map()

    def publish_map(self) -> ShardMap:
        self._map_version += 1
        self.shard_map = ShardMap(
            version=self._map_version,
            shards=tuple(("127.0.0.1", s.port) for s in self.shards),
        )
        message = ShardMapMessage(shard_map=self.shard_map.to_dict())
        for shard in self.shards:
            shard._on_shard_map(message)
        return self.shard_map

    async def gossip_round(self) -> None:
        for shard in self.shards:
            await shard.gossip_now()

    async def stop(self) -> None:
        for shard in self.shards:
            await shard.stop()

    async def __aenter__(self) -> "InProcessRing":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()


# ----------------------------------------------------------------------
# The ring-aware client
# ----------------------------------------------------------------------


class ShardedViaClient:
    """A client that routes every pair to its owning shard.

    Bootstraps off any one shard (the seed): the hello_ack carries the
    shard map, after which each request goes straight to its owner --
    the common case is zero redirects.  A
    :class:`~repro.deployment.client.RedirectError` (stale map after a
    failover) refreshes the map and retries once at the named owner.
    Holds one pipelined :class:`~repro.deployment.client.AsyncViaClient`
    per shard, created lazily.
    """

    def __init__(
        self,
        client_id: int,
        site: str,
        host: str,
        port: int,
        *,
        hello_timeout_s: float = 5.0,
        **client_kwargs: Any,
    ) -> None:
        self.client_id = client_id
        self.site = site
        self._seed_addr = (host, port)
        self._hello_timeout_s = hello_timeout_s
        self._client_kwargs = client_kwargs
        self.shard_map: ShardMap | None = None
        self._clients: dict[tuple[str, int], AsyncViaClient] = {}

    async def connect(self) -> None:
        seed = await self._client_at(self._seed_addr)
        await seed.wait_hello_ack(timeout=self._hello_timeout_s)
        if seed.shard_map is not None:
            self.shard_map = ShardMap.from_dict(seed.shard_map)
        else:
            # A single controller: a one-shard "ring" of the seed itself.
            self.shard_map = ShardMap(version=1, shards=(self._seed_addr,))

    async def close(self) -> None:
        for client in list(self._clients.values()):
            await client.close()
        self._clients.clear()

    async def __aenter__(self) -> "ShardedViaClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- routing -------------------------------------------------------

    async def _client_at(self, addr: tuple[str, int]) -> AsyncViaClient:
        client = self._clients.get(addr)
        if client is None:
            client = AsyncViaClient(
                self.client_id, self.site, addr[0], addr[1], **self._client_kwargs
            )
            await client.connect()
            self._clients[addr] = client
        return client

    def _owner_addr(self, src_id: int, dst_id: int) -> tuple[str, int]:
        assert self.shard_map is not None, "connect() first"
        return self.shard_map.address_of(self.shard_map.shard_of(src_id, dst_id))

    def _learn_map(self, payload: dict[str, Any] | None) -> None:
        if payload is None:
            return
        try:
            incoming = ShardMap.from_dict(payload)
        except ValueError:
            return
        if self.shard_map is None or incoming.version > self.shard_map.version:
            self.shard_map = incoming

    # -- protocol actions ----------------------------------------------

    async def assign(
        self,
        dst_id: int,
        options: list[RelayOption],
        t_hours: float,
        *,
        src_id: int | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Route one assignment to the pair's owner (redirect-repaired)."""
        src = src_id if src_id is not None else self.client_id
        client = await self._client_at(self._owner_addr(src, dst_id))
        try:
            return await client.assign(
                dst_id, options, t_hours, src_id=src_id, timeout=timeout
            )
        except RedirectError as exc:
            # Stale map (e.g. the fleet re-published after a failover):
            # adopt the server's map and retry once at the named owner.
            self._learn_map(exc.shard_map)
            retry = await self._client_at((exc.host, exc.port))
            return await retry.assign(
                dst_id, options, t_hours, src_id=src_id, timeout=timeout
            )

    async def report_measurement(
        self,
        dst_id: int,
        option: RelayOption,
        metrics: PathMetrics,
        t_hours: float,
    ) -> None:
        """Push a measurement to the pair's owning shard (fire-and-forget)."""
        client = await self._client_at(self._owner_addr(self.client_id, dst_id))
        await client.report_measurement(dst_id, option, metrics, t_hours)

    async def fetch_stats(self) -> list[StatsMessage]:
        """Per-shard operational counters, indexed by shard."""
        assert self.shard_map is not None, "connect() first"
        stats: list[StatsMessage] = []
        for shard in range(self.shard_map.n_shards):
            client = await self._client_at(self.shard_map.address_of(shard))
            stats.append(await client.fetch_stats())
        return stats

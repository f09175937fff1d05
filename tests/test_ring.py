"""Tests for the sharded controller ring (repro.deployment.ring).

In-process ring tests cover routing, redirects, gossip and snapshots
deterministically; the multiprocess tests prove the two acceptance
properties end to end -- WAL-backed failover loses no acknowledged
measurement, and a restarted shard catches up via gossip.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.history import history_from_dict, history_to_dict
from repro.core.policy import ViaConfig
from repro.core.sharding import stable_shard_of
from repro.deployment.client import AsyncViaClient, RedirectError
from repro.deployment.controller import ViaController
from repro.deployment.protocol import (
    AssignMessage,
    HelloAckMessage,
    HelloMessage,
    RedirectMessage,
    RequestMessage,
    StatsMessage,
    StatsRequestMessage,
    SyncMessage,
    SyncRequestMessage,
    decode_message,
    encode_message,
    encode_option,
)
from repro.deployment.ring import (
    ControllerRing,
    InProcessRing,
    ShardController,
    ShardedViaClient,
    ShardMap,
    ring_pair_key,
)
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption

pytestmark = pytest.mark.shard

OPTIONS = [DIRECT, RelayOption.bounce(0), RelayOption.bounce(1)]
METRICS = PathMetrics(rtt_ms=90.0, loss_rate=0.01, jitter_ms=4.0)


def run(coro):
    return asyncio.run(coro)


def owned_dsts(shard_map: ShardMap, src: int, *, per_shard: int = 1) -> dict[int, list[int]]:
    """For each shard, destinations whose (src, dst) pair it owns."""
    owned: dict[int, list[int]] = {s: [] for s in range(shard_map.n_shards)}
    dst = src + 1
    while any(len(v) < per_shard for v in owned.values()):
        shard = shard_map.shard_of(src, dst)
        if len(owned[shard]) < per_shard:
            owned[shard].append(dst)
        dst += 1
    return owned


async def fetch_history(port: int, scope: str = "local"):
    """Pull one shard's history over the sync protocol (no hello)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_message(SyncRequestMessage(scope=scope)))
        await writer.drain()
        history = None
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            assert line, "shard closed mid-sync"
            message = decode_message(line)
            assert isinstance(message, SyncMessage), message
            chunk = history_from_dict(message.history)
            history = chunk if history is None else history.merge(chunk)
            if message.last:
                return history
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def fingerprint(history) -> dict:
    """Order-independent content digest of a CallHistory."""
    payload = history_to_dict(history)
    return {
        "window_hours": payload["window_hours"],
        "windows": {
            w: sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))
            for w, entries in payload["windows"].items()
            if entries
        },
    }


class TestShardMap:
    def test_round_trip(self):
        m = ShardMap(version=3, shards=(("127.0.0.1", 4001), ("127.0.0.1", 4002)))
        assert ShardMap.from_dict(m.to_dict()) == m

    def test_routing_matches_stable_hash(self):
        m = ShardMap(version=1, shards=(("h", 1), ("h", 2), ("h", 3)))
        for src, dst in [(1, 2), (9, 4), (7, 7)]:
            assert m.shard_of(src, dst) == stable_shard_of(ring_pair_key(src, dst), 3)
            assert m.shard_of(src, dst) == m.shard_of(dst, src)

    def test_rejects_empty_and_bad_versions(self):
        with pytest.raises(ValueError):
            ShardMap(version=1, shards=())
        with pytest.raises(ValueError):
            ShardMap(version=0, shards=(("h", 1),))
        with pytest.raises(ValueError):
            ShardMap.from_dict({"version": 1})

    def test_pair_key_is_unordered(self):
        assert ring_pair_key(9, 2) == ring_pair_key(2, 9) == (2, 9)


class TestInProcessRouting:
    def test_hello_carries_map_and_client_routes(self, poll_until):
        async def scenario():
            async with InProcessRing(2, ViaConfig(seed=1)) as ring:
                owned = owned_dsts(ring.shard_map, 1)
                client = ShardedViaClient(1, "US", "127.0.0.1", ring.shards[0].port)
                await client.connect()
                assert client.shard_map == ring.shard_map
                for shard, dsts in owned.items():
                    result = await client.assign(dsts[0], OPTIONS, 0.1)
                    assert result.option in OPTIONS
                    await client.report_measurement(dsts[0], result.option, METRICS, 0.1)
                # Each measurement must land on (exactly) its owning shard.
                await poll_until(
                    lambda: all(s.n_measurements == 1 for s in ring.shards)
                )
                assert [s.n_measurements for s in ring.shards] == [1, 1]
                assert [s.local_history.total_calls() for s in ring.shards] == [1, 1]
                # Zero redirects: a fresh map routes every pair correctly.
                assert all(
                    s._obs_redirects.value == 0 for s in ring.shards
                )
                await client.close()

        run(scenario())

    def test_wrong_shard_redirects_without_serving(self, poll_until):
        async def scenario():
            async with InProcessRing(2, ViaConfig(seed=1)) as ring:
                owned = owned_dsts(ring.shard_map, 1)
                dst = owned[0][0]
                wrong = 1  # shard 1 does not own (1, dst)
                raw = AsyncViaClient(1, "US", "127.0.0.1", ring.shards[wrong].port)
                await raw.connect()
                with pytest.raises(RedirectError) as excinfo:
                    await raw.assign(dst, OPTIONS, 0.1)
                err = excinfo.value
                assert err.shard == 0
                assert (err.host, err.port) == ring.shard_map.address_of(0)
                assert ShardMap.from_dict(err.shard_map) == ring.shard_map
                # The redirect consumed no policy state on the wrong
                # shard: no call built, no RNG drawn, nothing cached.
                assert ring.shards[wrong]._call_counter == 0
                assert not ring.shards[wrong]._assign_cache
                assert ring.shards[wrong]._obs_redirects.value == 1
                await raw.close()

        run(scenario())

    def test_pipelined_burst_splits_redirects_from_owned(self, tmp_path):
        """A v2 burst on one connection mixing owned and non-owned pairs:
        each request is answered on its own ``corr_id`` -- redirect (with
        the current map) or assign -- and only the owned ones reach the
        shard's WAL, in arrival order."""

        async def scenario():
            async with InProcessRing(2, ViaConfig(seed=1), store_root=tmp_path) as ring:
                owned = owned_dsts(ring.shard_map, 1, per_shard=4)
                # Interleave: even corr_ids hit shard 0's own pairs, odd
                # ones knock on the wrong door.
                dsts = [d for pair in zip(owned[0], owned[1]) for d in pair]
                shard = ring.shards[0]
                reader, writer = await asyncio.open_connection("127.0.0.1", shard.port)
                writer.write(
                    encode_message(HelloMessage(client_id=1, site="US", protocol=2))
                )
                for corr_id, dst in enumerate(dsts):
                    writer.write(
                        encode_message(
                            RequestMessage(
                                src_id=1,
                                dst_id=dst,
                                t_hours=0.1,
                                options=[encode_option(o) for o in OPTIONS],
                                corr_id=corr_id,
                            )
                        )
                    )
                await writer.drain()
                replies = {}
                for _ in range(1 + len(dsts)):
                    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                    message = decode_message(line)
                    replies[message.corr_id] = message
                writer.close()
                assert isinstance(replies.pop(None), HelloAckMessage)
                assert sorted(replies) == list(range(len(dsts)))
                for corr_id, dst in enumerate(dsts):
                    reply = replies[corr_id]
                    if dst in owned[0]:
                        assert isinstance(reply, AssignMessage), reply
                    else:
                        assert isinstance(reply, RedirectMessage), reply
                        assert reply.shard == 1
                        assert ShardMap.from_dict(reply.shard_map) == ring.shard_map
                assert shard._obs_redirects.value == len(owned[1])
                logged = [
                    r["dst_id"]
                    for r in shard.store.records_after(0).records
                    if r["kind"] == "request"
                ]
                assert logged == owned[0]

        run(scenario())

    def test_sharded_client_repairs_stale_map(self):
        async def scenario():
            async with InProcessRing(2, ViaConfig(seed=1)) as ring:
                owned = owned_dsts(ring.shard_map, 1)
                ring.publish_map()  # fleet map is now v2
                client = ShardedViaClient(1, "US", "127.0.0.1", ring.shards[0].port)
                await client.connect()
                # Sabotage: a v1 map with the shard addresses swapped, so
                # the client's first try lands on the wrong shard.
                client.shard_map = ShardMap(
                    version=1, shards=tuple(reversed(client.shard_map.shards))
                )
                result = await client.assign(owned[0][0], OPTIONS, 0.1)
                assert result.option in OPTIONS
                # The redirect's map (v2) was adopted.
                assert client.shard_map.version == 2
                assert client.shard_map == ring.shard_map
                await client.close()

        run(scenario())

    def test_seed_without_map_degrades_to_single_shard(self):
        async def scenario():
            async with ViaController(ViaConfig(seed=1)) as controller:
                client = ShardedViaClient(1, "US", "127.0.0.1", controller.port)
                await client.connect()
                assert client.shard_map.n_shards == 1
                result = await client.assign(2, OPTIONS, 0.1)
                assert result.option in OPTIONS
                await client.close()

        run(scenario())

    def test_single_shard_ring_never_redirects(self):
        async def scenario():
            async with InProcessRing(1, ViaConfig(seed=1)) as ring:
                client = AsyncViaClient(1, "US", "127.0.0.1", ring.shards[0].port)
                await client.connect()
                for dst in range(2, 8):
                    result = await client.assign(dst, OPTIONS, 0.1)
                    assert result.option in OPTIONS
                assert ring.shards[0]._obs_redirects.value == 0
                await client.close()

        run(scenario())


class TestGossip:
    async def _seed_measurements(self, ring, poll_until, n_per_shard=3):
        owned = owned_dsts(ring.shard_map, 1, per_shard=n_per_shard)
        client = ShardedViaClient(1, "US", "127.0.0.1", ring.shards[0].port)
        await client.connect()
        total = 0
        for dsts in owned.values():
            for i, dst in enumerate(dsts):
                await client.report_measurement(
                    dst, OPTIONS[i % len(OPTIONS)], METRICS, 0.1 + 0.01 * i
                )
                total += 1
        await poll_until(
            lambda: sum(s.n_measurements for s in ring.shards) >= total
        )
        await client.close()
        return total

    def test_round_folds_every_peer_and_is_idempotent(self, poll_until):
        async def scenario():
            async with InProcessRing(3, ViaConfig(seed=1)) as ring:
                total = await self._seed_measurements(ring, poll_until)
                # Before gossip each shard only knows its own pairs.
                assert all(
                    s.policy.history.total_calls() < total for s in ring.shards
                )
                await ring.gossip_round()
                assert [s.policy.history.total_calls() for s in ring.shards] == [
                    total
                ] * 3
                # Anti-entropy is idempotent: another round changes nothing.
                await ring.gossip_round()
                assert [s.policy.history.total_calls() for s in ring.shards] == [
                    total
                ] * 3
                merged = [fingerprint(s.policy.history) for s in ring.shards]
                assert merged[0] == merged[1] == merged[2]
                for shard in ring.shards:
                    assert shard._obs_gossip_rounds.value == 2
                    assert shard._obs_gossip_exchanges.value_for(outcome="ok") == 4

        run(scenario())

    def test_local_scope_stays_local(self, poll_until):
        async def scenario():
            async with InProcessRing(2, ViaConfig(seed=1)) as ring:
                total = await self._seed_measurements(ring, poll_until)
                await ring.gossip_round()
                for shard in ring.shards:
                    local = await fetch_history(shard.port, scope="local")
                    merged = await fetch_history(shard.port, scope="merged")
                    # Gossip must not leak peers' entries back into the
                    # local mirror (that would double count next round).
                    assert local.total_calls() == shard.local_history.total_calls()
                    assert merged.total_calls() == total

        run(scenario())

    def test_dead_peer_is_counted_not_fatal(self, poll_until):
        async def scenario():
            ring = InProcessRing(2, ViaConfig(seed=1))
            await ring.start()
            try:
                await self._seed_measurements(ring, poll_until)
                survivor, casualty = ring.shards
                own = survivor.local_history.total_calls()
                await casualty.stop()
                folded = await survivor.gossip_now()
                assert folded == 0
                assert survivor._obs_gossip_exchanges.value_for(outcome="error") == 1
                # The round still completed with what it had.
                assert survivor.policy.history.total_calls() == own
            finally:
                await ring.shards[0].stop()

        run(scenario())

    @pytest.mark.parametrize(
        "history",
        [
            '{"windows": {}}',
            '{"window_hours": [1], "windows": {}}',
            '{"window_hours": 24.0, "windows": []}',
            '{"window_hours": 24.0, "windows": {"0": 5}}',
            '{"window_hours": 1e999, "windows": {}}',
            '{"window_hours": 12.0, "windows": {}}',
        ],
        ids=[
            "missing-window-hours", "window-hours-list", "windows-list",
            "entries-int", "infinite-window", "other-window-width",
        ],
    )
    def test_hostile_peer_fails_alone(self, poll_until, history):
        """One peer answering ``sync_request`` with a hostile payload is one
        failed exchange; the honest peer is still folded."""

        async def hostile(reader, writer):
            await reader.readline()
            writer.write(
                b'{"type": "sync", "shard": 2, "seq": 0, "last": true, '
                b'"history": ' + history.encode() + b"}\n"
            )
            await writer.drain()
            writer.close()

        async def scenario():
            async with InProcessRing(3, ViaConfig(seed=1)) as ring:
                await self._seed_measurements(ring, poll_until)
                shard, honest = ring.shards[0], ring.shards[1]
                expected = (
                    shard.local_history.total_calls() + honest.local_history.total_calls()
                )
                server = await asyncio.start_server(hostile, "127.0.0.1", 0)
                try:
                    fake = server.sockets[0].getsockname()[:2]
                    shard._shard_map = ShardMap(
                        version=ring.shard_map.version,
                        shards=(*ring.shard_map.shards[:2], fake),
                    )
                    assert await shard.gossip_now() == 1
                finally:
                    server.close()
                    await server.wait_closed()
                assert shard._obs_gossip_exchanges.value_for(outcome="error") == 1
                assert shard._obs_gossip_exchanges.value_for(outcome="ok") == 1
                assert shard.policy.history.total_calls() == expected

        run(scenario())

    def test_sync_chunks_large_histories(self, poll_until):
        async def scenario():
            async with InProcessRing(
                2, ViaConfig(seed=1), sync_chunk_entries=5
            ) as ring:
                shard = ring.shards[0]
                client = AsyncViaClient(1, "US", "127.0.0.1", shard.port)
                await client.connect()
                for dst in range(2, 30):
                    if ring.shard_map.shard_of(1, dst) == 0:
                        await client.report_measurement(dst, DIRECT, METRICS, 0.1)
                await poll_until(lambda: shard.n_measurements > 5)
                history = await fetch_history(shard.port, scope="local")
                assert fingerprint(history) == fingerprint(shard.local_history)
                await client.close()

        run(scenario())


class TestShardSnapshots:
    def test_snapshot_round_trips_local_mirror(self):
        shard = ShardController(ViaConfig(seed=1), shard_index=0, n_shards=2)
        from repro.deployment.protocol import MeasurementMessage, encode_option

        shard._on_measurement(
            MeasurementMessage(
                src_id=1, dst_id=4, t_hours=0.2,
                option=encode_option(DIRECT),
                rtt_ms=80.0, loss_rate=0.0, jitter_ms=2.0,
            ),
            log=False,
        )
        payload = shard.snapshot_dict()
        assert "local_history" in payload

        clone = ShardController(ViaConfig(seed=1), shard_index=0, n_shards=2)
        clone.restore_dict(payload)
        assert fingerprint(clone.local_history) == fingerprint(shard.local_history)

    def test_map_updates_are_version_gated(self):
        from repro.deployment.protocol import ShardMapMessage

        shard = ShardController(
            ViaConfig(seed=1), shard_index=0, n_shards=2, gossip_on_map_update=False
        )
        v2 = ShardMap(version=2, shards=(("h", 1), ("h", 2)))
        shard._on_shard_map(ShardMapMessage(shard_map=v2.to_dict()))
        assert shard.shard_map == v2
        # Older, same-version, and wrong-topology maps are all rejected.
        v1 = ShardMap(version=1, shards=(("old", 9), ("old", 8)))
        shard._on_shard_map(ShardMapMessage(shard_map=v1.to_dict()))
        assert shard.shard_map == v2
        v3_wrong = ShardMap(version=3, shards=(("h", 1),))
        shard._on_shard_map(ShardMapMessage(shard_map=v3_wrong.to_dict()))
        assert shard.shard_map == v2

    def test_rejects_bad_shard_index(self):
        with pytest.raises(ValueError):
            ShardController(ViaConfig(), shard_index=2, n_shards=2)


#: ``shard_map`` payloads a hostile peer can send, as raw JSON so ``1e999``
#: reaches the parser as written.  Each has the receiving shard's shard
#: count and a version newer than any map it holds.
HOSTILE_MAPS = {
    "infinite-version": '{"version": 1e999, "shards": [["h", 1], ["h", 2]]}',
    "bool-version": '{"version": true, "shards": [["h", 1], ["h", 2]]}',
    "string-version": '{"version": "3", "shards": [["h", 1], ["h", 2]]}',
    "float-version": '{"version": 2.7, "shards": [["h", 1], ["h", 2]]}',
    "shapeless-shards": '{"version": 3, "shards": [["x"], -5]}',
    "string-ports": '{"version": 3, "shards": [["h", "1"], ["h", "2"]]}',
    "infinite-port": '{"version": 3, "shards": [["h", 1e999], ["h", 2]]}',
    "bool-port": '{"version": 3, "shards": [["h", true], ["h", 2]]}',
    "port-out-of-range": '{"version": 3, "shards": [["h", 70000], ["h", 2]]}',
    "int-host": '{"version": 3, "shards": [[7, 1], ["h", 2]]}',
}


class TestHostilePeerFrames:
    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("payload", HOSTILE_MAPS.values(), ids=HOSTILE_MAPS.keys())
    def test_bad_shard_map_frame_leaves_connection_and_map(self, payload, protocol):
        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            shard = ShardController(
                ViaConfig(seed=1), shard_index=0, n_shards=2, gossip_on_map_update=False
            )
            async with shard:
                reader, writer = await asyncio.open_connection("127.0.0.1", shard.port)
                writer.write(
                    encode_message(HelloMessage(client_id=1, site="US", protocol=protocol))
                )
                if protocol == 2:
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                writer.write(f'{{"type": "shard_map", "shard_map": {payload}}}\n'.encode())
                writer.write(encode_message(StatsRequestMessage()))
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), timeout=10.0)
                assert isinstance(decode_message(reply), StatsMessage)
                assert shard.shard_map is None
                writer.close()
            assert unhandled == []

        run(scenario())

    @pytest.mark.parametrize("payload", HOSTILE_MAPS.values(), ids=HOSTILE_MAPS.keys())
    def test_client_keeps_its_map_on_a_bad_redirect_map(self, payload):
        client = ShardedViaClient(1, "US", "127.0.0.1", 1)
        client.shard_map = ShardMap(version=2, shards=(("h", 1), ("h", 2)))
        client._learn_map(json.loads(payload))
        assert client.shard_map == ShardMap(version=2, shards=(("h", 1), ("h", 2)))


@pytest.mark.slow
class TestMultiprocessFleet:
    """The acceptance properties, against real shard processes."""

    def test_failover_loses_no_acknowledged_measurement(self, tmp_path, poll_until):
        ring = ControllerRing(2, ViaConfig(seed=1), store_root=tmp_path)
        shard_map = ring.start()
        try:
            n_sent = {0: 0, 1: 0}

            async def send_traffic():
                owned = owned_dsts(shard_map, 1, per_shard=4)
                client = ShardedViaClient(
                    1, "US", shard_map.shards[0][0], shard_map.shards[0][1]
                )
                await client.connect()
                for shard, dsts in owned.items():
                    for i, dst in enumerate(dsts):
                        await client.assign(dst, OPTIONS, 0.1 + 0.01 * i)
                        await client.report_measurement(
                            dst, OPTIONS[i % len(OPTIONS)], METRICS, 0.1 + 0.01 * i
                        )
                        n_sent[shard] += 1
                # Acknowledge: poll each shard's counter until every sent
                # measurement is acted on (and therefore WAL-appended --
                # the controller logs before it acts).
                stats = await client.fetch_stats()
                assert len(stats) == 2

                async def counts():
                    s = await client.fetch_stats()
                    return [m.n_measurements for m in s]

                got = await poll_until(
                    counts, lambda c: c == [n_sent[0], n_sent[1]], timeout_s=10.0
                )
                assert got == [n_sent[0], n_sent[1]]
                pre = await fetch_history(shard_map.shards[0][1], scope="local")
                await client.close()
                return pre

            pre_kill = run(send_traffic())
            assert pre_kill.total_calls() == n_sent[0]

            # SIGKILL shard 0 mid-flight, then bring it back on its port.
            ring.kill_shard(0)
            ring.restart_shard(0)

            async def verify():
                # Every acknowledged measurement survived the crash: the
                # recovered local history is content-identical.
                post = await fetch_history(shard_map.shards[0][1], scope="local")
                assert fingerprint(post) == fingerprint(pre_kill)
                # ...and the map re-publish triggered catch-up gossip, so
                # the restarted shard's merged view covers the fleet.
                async def merged_total():
                    merged = await fetch_history(shard_map.shards[0][1], scope="merged")
                    return merged.total_calls()

                total = await poll_until(
                    merged_total,
                    lambda t: t == n_sent[0] + n_sent[1],
                    timeout_s=10.0,
                )
                assert total == n_sent[0] + n_sent[1]

            run(verify())
        finally:
            ring.stop()

    def test_per_shard_store_layout(self, tmp_path):
        ring = ControllerRing(2, ViaConfig(seed=1), store_root=tmp_path)
        ring.start()
        try:
            assert (tmp_path / "shard-0").is_dir()
            assert (tmp_path / "shard-1").is_dir()
        finally:
            ring.stop()

"""End-to-end tests for the asyncio front end.

Each test spins a real :class:`DetectionService` (TCP on an ephemeral
port; in-process shards unless the test is about killing workers) and
drives it with :class:`ServiceClient` inside ``asyncio.run`` — the
repo carries no pytest-asyncio dependency, and plain coroutines keep
the tests debuggable with a bare interpreter.
"""

import asyncio
import os
import signal

import pytest

from repro.service import (
    DetectionService,
    ServiceClient,
    ServiceConfig,
    ServiceOpError,
)
from repro.service.protocol import decode_line, encode_message


def _run(coro):
    return asyncio.run(coro)


async def _started(config=None):
    service = DetectionService(config or ServiceConfig(
        shards=2, use_processes=False, tick_interval=0.001))
    await service.start(host="127.0.0.1", port=0)
    client = await ServiceClient.connect_tcp("127.0.0.1",
                                             service.tcp_port)
    return service, client


async def _stop(service, client):
    await client.close()
    await service.stop()


def test_ping_and_stats():
    async def scenario():
        service, client = await _started()
        try:
            reply = await client.ping()
            assert reply["protocol"] == 2
            stats = await client.stats()
            assert stats["tenants"] == 0
            assert len(stats["shards"]) == 2
        finally:
            await _stop(service, client)
    _run(scenario())


def test_attach_claim_detect_detach():
    async def scenario():
        service, client = await _started()
        try:
            reply = await client.attach("t0", m=4, n=4)
            assert reply["attached"] and reply["m"] == 4
            assert (await client.claim("t0", "p1", "q1"))["granted"]
            assert (await client.claim("t0", "p2", "q1"))["blocked"]
            verdict = await client.detect("t0")
            assert verdict["deadlock"] is False
            assert verdict["op_seq"] == 2
            # Close the cycle p1->q2->p2->q1->p1.
            await client.claim("t0", "p2", "q2")
            await client.claim("t0", "p1", "q2")
            verdict = await client.detect("t0")
            assert verdict["deadlock"] is True
            assert sorted(verdict["deadlocked_processes"]) == ["p1", "p2"]
            assert (await client.detach("t0"))["detached"]
            with pytest.raises(ServiceOpError) as excinfo:
                await client.detect("t0")
            assert excinfo.value.code == "unknown-tenant"
        finally:
            await _stop(service, client)
    _run(scenario())


def test_duplicate_and_unknown_tenant():
    async def scenario():
        service, client = await _started()
        try:
            await client.attach("t0", m=2, n=2)
            with pytest.raises(ServiceOpError) as excinfo:
                await client.attach("t0", m=2, n=2)
            assert excinfo.value.code == "duplicate-tenant"
            with pytest.raises(ServiceOpError) as excinfo:
                await client.claim("ghost", "p1", "q1")
            assert excinfo.value.code == "unknown-tenant"
        finally:
            await _stop(service, client)
    _run(scenario())


#: Attach specs that cannot build a matrix: bad cell token, ragged rows,
#: no rows, rows as one string, and numbers that do not parse.
MALFORMED_ATTACHES = (
    {"rows": ["g x"]},
    {"rows": ["g .", "r"]},
    {"rows": []},
    {"rows": "g r"},
    {"rows": [["g", "r"]]},
    {"m": "eight"},
    {"m": [4]},
    {"seed": "abc"},
    {"seed": 1, "grant_fraction": "lots"},
)


def test_malformed_attach_is_bad_request_and_keeps_connection():
    """Each bad attach is answered ``bad-request`` under its own id, and
    the same socket then serves a valid op."""
    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.001))
        await service.start(host="127.0.0.1", port=0)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)

        async def call(message):
            writer.write(encode_message(message))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5.0)
            assert line, f"connection closed after {message!r}"
            return decode_line(line)

        try:
            for number, spec in enumerate(MALFORMED_ATTACHES):
                reply = await call({"op": "attach", "tenant": "bad",
                                    "id": number, **spec})
                assert reply.get("error") == "bad-request", (spec, reply)
                assert reply["id"] == number
            reply = await call({"op": "attach", "tenant": "good",
                                "id": "ok", "m": 2, "n": 2})
            assert reply["ok"] is True and reply["id"] == "ok"
            assert service.stats()["tenants"] == 1
        finally:
            writer.close()
            await service.stop()
    _run(scenario())


def test_admission_control_cap():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_tenants=3))
        try:
            for i in range(3):
                await client.attach(f"t{i}", m=2, n=2)
            with pytest.raises(ServiceOpError) as excinfo:
                await client.attach("t3", m=2, n=2)
            assert excinfo.value.code == "admission-rejected"
            stats = await client.stats()
            assert stats["admission_rejected"] == 1
            events = [event["kind"]
                      for event in service.obs.flight.events()]
            assert "tenant_admission_rejected" in events
            # Detach frees a slot.
            await client.detach("t0")
            await client.attach("t3", m=2, n=2)
        finally:
            await _stop(service, client)
    _run(scenario())


def test_backpressure_bounded_queue():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.05,
            max_pending_per_tenant=4))
        try:
            await client.attach("t0", m=8, n=8)
            await asyncio.sleep(0.1)    # let the attach tick flush
            # Fire detects without awaiting; the 0.05s tick holds them
            # queued, so the 5th in the window must bounce.
            pending = [asyncio.ensure_future(client.request(
                "detect", tenant="t0")) for _ in range(8)]
            replies = await asyncio.gather(*pending,
                                           return_exceptions=True)
            codes = [reply.code for reply in replies
                     if isinstance(reply, ServiceOpError)]
            assert "backpressure" in codes
            served = [reply for reply in replies
                      if isinstance(reply, dict) and reply.get("ok")]
            assert len(served) == 4
            stats = await client.stats()
            assert stats["backpressure_rejected"] >= 1
        finally:
            await _stop(service, client)
    _run(scenario())


def test_tick_batches_multiple_tenants_into_one_reduction():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.02))
        try:
            for i in range(6):
                await client.attach(f"t{i}", seed=40 + i, m=8, n=8)
            await asyncio.sleep(0.05)
            pending = [asyncio.ensure_future(client.detect(f"t{i}"))
                       for i in range(6)]
            replies = await asyncio.gather(*pending)
            # All six landed in the same tick -> one batched plane.
            assert {reply["batched"] for reply in replies} == {6}
        finally:
            await _stop(service, client)
    _run(scenario())


def test_detach_then_queued_op_errors_cleanly():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.02))
        try:
            await client.attach("t0", m=2, n=2)
            await asyncio.sleep(0.05)
            detach = asyncio.ensure_future(client.detach("t0"))
            detect = asyncio.ensure_future(client.request(
                "detect", tenant="t0"))
            replies = await asyncio.gather(detach, detect,
                                           return_exceptions=True)
            assert replies[0]["detached"]
            assert (isinstance(replies[1], ServiceOpError)
                    and replies[1].code == "unknown-tenant")
        finally:
            await _stop(service, client)
    _run(scenario())


def test_migrate_preserves_digest_and_state():
    async def scenario():
        service, client = await _started()
        try:
            await client.attach("t0", seed=77, m=12, n=12)
            before = await client.detect("t0")
            shard_before = next(
                record.shard_id for tid, record
                in service.tenants.items() if tid == "t0")
            target = 1 - shard_before
            reply = await client.migrate("t0", target)
            assert reply["moved"] is True
            after = await client.detect("t0")
            assert after["deadlock"] == before["deadlock"]
            assert after["op_seq"] == before["op_seq"]
            events = [event["kind"]
                      for event in service.obs.flight.events()]
            assert "tenant_migration" in events
        finally:
            await _stop(service, client)
    _run(scenario())


def test_rebalance_evens_population():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001))
        try:
            for i in range(8):
                await client.attach(f"t{i}", m=2, n=2)
            # Force-skew: move everything to shard 0.
            for i in range(8):
                await client.migrate(f"t{i}", 0)
            reply = await client.rebalance()
            assert reply["moves"] == 4
            shards = (await client.shards())["shards"]
            counts = sorted(shard["tenants"] for shard in shards)
            assert counts == [4, 4]
        finally:
            await _stop(service, client)
    _run(scenario())


def test_inprocess_shard_crash_recovers_tenants():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            snapshot_every=4))
        try:
            await client.attach("t0", m=4, n=4)
            await client.attach("t1", m=4, n=4)
            # Build state past a snapshot refresh plus a journal tail.
            for resource in ("q1", "q2", "q3", "q4"):
                await client.claim("t0", "p1", resource)
            await client.release("t0", "p1", "q4")
            await asyncio.sleep(0.02)   # let the refresh land
            victim = next(record.shard_id for tid, record
                          in service.tenants.items() if tid == "t0")
            service.shards[victim].crash()
            verdict = await client.detect("t0")
            assert verdict["op_seq"] == 5   # 4 claims + 1 release
            assert verdict["deadlock"] is False
            reply = await client.claim("t0", "p2", "q1")
            assert reply["blocked"] is True     # p1 still holds q1
            stats = await client.stats()
            assert stats["shard_crashes"] == 1
            events = [event["kind"]
                      for event in service.obs.flight.events()]
            assert "shard_rebalance" in events
        finally:
            await _stop(service, client)
    _run(scenario())


def test_sigkilled_worker_process_recovers():
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=True, tick_interval=0.002))
        try:
            await client.attach("t0", seed=13, m=10, n=10)
            before = await client.detect("t0")
            shards = (await client.shards())["shards"]
            victim = next(shard for shard in shards
                          if shard["tenants"] > 0)
            os.kill(victim["pid"], signal.SIGKILL)
            await asyncio.sleep(0.05)
            after = await client.detect("t0")
            assert after["deadlock"] == before["deadlock"]
            assert after["op_seq"] == before["op_seq"]
            shards = (await client.shards())["shards"]
            assert sum(1 for shard in shards if shard["alive"]) == 1
            stats = await client.stats()
            assert stats["shard_crashes"] == 1
            assert stats["rebalanced_tenants"] == 1
        finally:
            await _stop(service, client)
    _run(scenario())


def test_unix_socket_transport(tmp_path):
    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.001))
        path = str(tmp_path / "service.sock")
        await service.start(unix_path=path)
        client = await ServiceClient.connect_unix(path)
        try:
            await client.attach("t0", m=2, n=2)
            reply = await client.claim("t0", "p1", "q1")
            assert reply["granted"]
        finally:
            await _stop(service, client)
    _run(scenario())


def test_shutdown_op_drains():
    async def scenario():
        service, client = await _started()
        try:
            await client.attach("t0", m=2, n=2)
            reply = await client.shutdown()
            assert reply["stopping"] is True
            await asyncio.sleep(0.05)
            assert not service._servers
        finally:
            await client.close()
            if service._servers:
                await service.stop()
    _run(scenario())


def test_latency_metrics_populate():
    async def scenario():
        service, client = await _started()
        try:
            await client.attach("t0", m=4, n=4)
            await client.claim("t0", "p1", "q1")
            await client.detect("t0")
            stats = await client.stats()
            assert stats["grant_latency"]["count"] == 1
            assert stats["verdict_latency"]["count"] == 1
            assert stats["grant_latency"]["p99_us"] > 0
        finally:
            await _stop(service, client)
    _run(scenario())


def test_refresh_racing_a_batch_leaves_no_applied_op_in_journal():
    """A batch dispatched between a refresh being scheduled and its
    snapshot lands in that snapshot; crash replay must not re-apply it.

    The tick loop is parked (hour-long interval) and every tick is run
    by hand, so the interleaving is fixed: B1 fills the journal and
    schedules a refresh, B2 reaches the in-process shard before the
    refresh takes its snapshot, and B2 is acked after it.
    """
    from repro.service.tenant import Tenant

    def op(kind, process, resource):
        return {"op": kind, "tenant": "t0", "process": process,
                "resource": resource}

    b1 = [op("claim", f"p{i}", f"q{i}") for i in (1, 2, 3)]
    b2 = [op("claim", "p4", "q4"), op("release", "p4", "q4")]
    twin = Tenant.from_attach("t0", {"m": 4, "n": 4})
    for message in b1 + b2:
        getattr(twin, message["op"])(message)

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=3600.0,
            snapshot_every=3))
        await service.start()
        try:
            attach = service.submit({"op": "attach", "tenant": "t0",
                                     "m": 4, "n": 4})
            service._run_tick()
            assert (await attach)["ok"]
            first = [service.submit(message) for message in b1]
            service._run_tick()
            for future in first:
                assert (await future)["ok"]
            record = service.tenants["t0"]
            assert record.snapshot["state"]["op_seq"] == 0  # not yet run
            second = [service.submit(message) for message in b2]
            service._run_tick()
            for future in second:
                assert (await future)["ok"]
            assert record.snapshot["state"]["op_seq"] == 5
            service.shards[record.shard_id].crash()
            kind, envelope = await service.shards[
                record.shard_id].request("snapshot", "t0")
            assert kind == "snapshot"
            assert envelope["state"]["op_seq"] == twin.op_seq == 5
            assert envelope["state_hash"] == \
                twin.snapshot_state()["state_hash"]
        finally:
            await service.stop()
    _run(scenario())

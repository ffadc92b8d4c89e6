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
#: no rows, rows as one string, numbers that do not parse or are not
#: finite (JSON's ``1e400`` reads as ``inf``), and sides over 512.
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
    {"m": 1e400},
    {"seed": 1e400},
    {"m": 513, "n": 4},
    {"rows": ["."] * 513},
)


def test_malformed_attach_is_bad_request_and_keeps_connection():
    """Each bad attach is answered ``bad-request`` under its own id and
    leaves no tenant record behind, so it frees its admission slot; the
    same socket then serves a valid op."""
    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.001,
            max_tenants=1))
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
                assert service.tenants == {}
                assert service.shards[0].tenants == 0
                assert service.stats()["pending"] == 0
            reply = await call({"op": "attach", "tenant": "good",
                                "id": "ok", "m": 2, "n": 2})
            assert reply["ok"] is True and reply["id"] == "ok"
            assert service.stats()["tenants"] == 1
        finally:
            writer.close()
            await service.stop()
    _run(scenario())


def test_malformed_attaches_leave_every_worker_shard_alive():
    """A malformed attach is answered on the worker that builds it, so
    no spec — not even one whose numbers overflow — kills a worker
    process, or the survivor a crash would replay it onto.  Each bad
    line shares its tick with a valid op, which is answered normally."""
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=True, tick_interval=0.005))
        try:
            await client.attach("good", m=2, n=2)
            for number, spec in enumerate(MALFORMED_ATTACHES):
                bad = service.submit({"op": "attach", "tenant": "bad",
                                      "id": number, **spec})
                grant = service.submit({"op": "claim", "tenant": "good",
                                        "process": "p1",
                                        "resource": "q1"})
                reply = await bad
                assert reply.get("error") == "bad-request", (spec, reply)
                assert (await grant)["ok"]
                await client.request("release", tenant="good",
                                     process="p1", resource="q1")
                assert "bad" not in service.tenants
            shards = (await client.shards())["shards"]
            assert [shard["alive"] for shard in shards] == [True, True]
            assert all(handle.process.is_alive()
                       for handle in service.shards)
            assert service.stats()["shard_crashes"] == 0
            for shard in range(2):
                await client.attach(f"after{shard}", m=2, n=2)
            assert sorted(record.shard_id
                          for record in service.tenants.values()
                          if record.tenant_id.startswith("after")) == [0, 1]
        finally:
            await _stop(service, client)
    _run(asyncio.wait_for(scenario(), 30.0))


def test_attach_that_fails_unexpectedly_is_answered_alone(monkeypatch):
    """An attach whose construction raises something unforeseen answers
    ``internal`` for that op only: the rest of its batch is applied and
    answered, its record is dropped, and the shard keeps serving."""
    from repro.service.tenant import Tenant

    built = Tenant.from_attach

    def from_attach(tenant_id, spec):
        if tenant_id == "boom":
            raise RuntimeError("unforeseen")
        return built(tenant_id, spec)

    monkeypatch.setattr(Tenant, "from_attach", staticmethod(from_attach))

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=1, use_processes=False))
        await service.start()
        try:
            assert (await service.submit({
                "op": "attach", "tenant": "t0", "m": 2, "n": 2}))["ok"]
            replies = await asyncio.gather(*(service.submit(message) for
                                             message in (
                {"op": "claim", "tenant": "t0", "process": "p1",
                 "resource": "q1"},
                {"op": "attach", "tenant": "boom", "m": 2, "n": 2},
                {"op": "detect", "tenant": "t0"})))
            assert service.stats()["batches"] == 2
            assert replies[0]["granted"]
            assert replies[1]["error"] == "internal"
            assert "unforeseen" in replies[1]["detail"]
            assert replies[2]["op_seq"] == 1
            assert "boom" not in service.tenants
            assert service.shards[0].alive
            assert (await service.submit({
                "op": "attach", "tenant": "t1", "m": 2, "n": 2}))["ok"]
        finally:
            await service.stop()
    _run(asyncio.wait_for(scenario(), 30.0))


def test_migrate_behind_a_malformed_attach_is_unknown_tenant():
    """A ``migrate`` pipelined behind an attach the shard refuses waits
    the attach out and answers ``unknown-tenant``, not a failed
    snapshot of the dropped record."""
    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False))
        await service.start(host="127.0.0.1", port=0)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        try:
            for target in (0, 1):
                writer.write(
                    encode_message({"op": "attach", "tenant": "bad",
                                    "id": 1, "rows": ["g x"]})
                    + encode_message({"op": "migrate", "tenant": "bad",
                                      "shard": target, "id": 2}))
                await writer.drain()
                replies = {}
                for _ in range(2):
                    reply = decode_line(await asyncio.wait_for(
                        reader.readline(), 5.0))
                    replies[reply["id"]] = reply
                assert replies[1]["error"] == "bad-request"
                assert replies[2]["error"] == "unknown-tenant", replies[2]
                assert service.tenants == {}
        finally:
            writer.close()
            await service.stop()
    _run(asyncio.wait_for(scenario(), 30.0))


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


def test_op_after_the_last_shard_dies_is_answered_shard_lost():
    """With no shard alive, recovery has nowhere to rehome a tenant:
    its next op is answered ``shard-lost``, not left pending."""
    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=1, use_processes=False, tick_interval=0.001))
        try:
            await client.attach("t0", m=4, n=4)
            service.shards[0].crash()
            with pytest.raises(ServiceOpError) as excinfo:
                await asyncio.wait_for(client.claim("t0", "p1", "q1"), 3.0)
            assert excinfo.value.code == "shard-lost"
            assert (await client.stats())["pending"] == 0
        finally:
            await _stop(service, client)
    _run(scenario())


@pytest.mark.parametrize("snapshot_every,base", [(64, "attach"),
                                                 (2, "restore")],
                         ids=["attach-base", "restore-base"])
def test_sigkilled_worker_process_recovers(snapshot_every, base):
    """A SIGKILLed worker's tenant is rebuilt from its recovery base plus
    journal: the attach op itself (never refreshed) or the refreshed
    snapshot (``snapshot_every`` 2)."""
    spec = {"seed": 13, "m": 10, "n": 10}
    steps = _legal_steps(spec, 7)

    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=True, tick_interval=0.002,
            snapshot_every=snapshot_every))
        try:
            await client.attach("t0", **spec)
            for kind, process, resource in steps:
                await client.request(kind, tenant="t0", process=process,
                                     resource=resource)
            before = await client.detect("t0")
            await asyncio.sleep(0.05)   # let any refresh land
            assert service.tenants["t0"].base["op"] == base
            shards = (await client.shards())["shards"]
            victim = next(shard for shard in shards
                          if shard["tenants"] > 0)
            os.kill(victim["pid"], signal.SIGKILL)
            await asyncio.sleep(0.05)
            after = await client.detect("t0")
            assert after["deadlock"] == before["deadlock"]
            assert after["op_seq"] == before["op_seq"] == len(steps)
            here = service.tenants["t0"].shard_id
            moved = await client.request("migrate", tenant="t0",
                                         shard=here)
            assert moved["state_hash"] == _twin(spec, steps)[1]
            shards = (await client.shards())["shards"]
            assert sum(1 for shard in shards if shard["alive"]) == 1
            stats = await client.stats()
            assert stats["shard_crashes"] == 1
            assert stats["rebalanced_tenants"] == 1
        finally:
            await _stop(service, client)
    _run(scenario())


def _legal_steps(spec, count, seed=5):
    """``count`` (op, process, resource) mutations legal in order on a
    tenant built from ``spec``: claim an empty cell, release a grant."""
    import random

    from repro.rag.matrix import CellState
    from repro.service.tenant import Tenant

    tenant = Tenant.from_attach("t0", spec)
    matrix, rng, steps = tenant.matrix, random.Random(seed), []
    while len(steps) < count:
        s, t = rng.randrange(matrix.m), rng.randrange(matrix.n)
        cell = matrix.get(s, t)
        if cell is CellState.REQUEST:
            continue
        kind = "release" if cell is CellState.GRANT else "claim"
        message = {"op": kind, "process": matrix.process_names[t],
                   "resource": matrix.resource_names[s]}
        getattr(tenant, kind)(message)
        steps.append((kind, message["process"], message["resource"]))
    return steps


def _twin(spec, steps):
    """The local tenant after ``steps``: (op_seq, state_hash)."""
    from repro.service.tenant import Tenant

    tenant = Tenant.from_attach("t0", spec)
    for kind, process, resource in steps:
        getattr(tenant, kind)({"process": process, "resource": resource})
    return tenant.op_seq, tenant.snapshot_state()["state_hash"]


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
            # The event the entry point awaits is set once stop() ends.
            await asyncio.wait_for(service.stopped.wait(), 5.0)
            assert not service._servers
        finally:
            await client.close()
            await service.stop()        # a second stop() returns at once
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
            assert record.base_seq == 0  # refresh not yet run
            second = [service.submit(message) for message in b2]
            service._run_tick()
            for future in second:
                assert (await future)["ok"]
            assert record.base["op"] == "restore"
            assert record.base_seq == 5
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


def test_default_window_settles_an_op_within_a_few_loop_hops():
    """The default zero window dispatches a queued op on the next loop
    iteration: a claim is answered without any timer wait."""
    async def scenario():
        service = DetectionService(ServiceConfig(shards=1))
        await service.start()
        try:
            await service.submit({"op": "attach", "tenant": "t0",
                                  "m": 2, "n": 2})
            claim = service.submit({"op": "claim", "tenant": "t0",
                                    "process": "p1", "resource": "q1"})
            for _ in range(5):
                if claim.done():
                    break
                await asyncio.sleep(0)
            assert claim.done()
            assert claim.result()["granted"] is True
        finally:
            await service.stop()
    _run(scenario())


def _mixed_ops(count, tenants):
    """Claims, releases and detects over ``tenants`` 4x4 tenants, plus a
    line the server must refuse; every op carries its index as ``id``."""
    lines = []
    held = set()
    for index in range(count):
        tenant = f"t{index % tenants}"
        cell = (tenant, f"p{index % 3 + 1}", f"q{index % 4 + 1}")
        if index % 5 == 4:
            message = {"op": "detect", "tenant": tenant}
        elif cell in held:
            held.discard(cell)
            message = {"op": "release", "tenant": tenant,
                       "process": cell[1], "resource": cell[2]}
        else:
            held.add(cell)
            message = {"op": "claim", "tenant": tenant,
                       "process": cell[1], "resource": cell[2]}
        if index == count // 2:
            message = {"op": "no-such-op", "tenant": tenant}
        message["id"] = index
        lines.append(encode_message(message))
    return lines


async def _raw_attach(host, port, tenants):
    reader, writer = await asyncio.open_connection(host, port)
    for index in range(tenants):
        writer.write(encode_message({"op": "attach", "tenant": f"t{index}",
                                     "m": 4, "n": 4, "id": index}))
    for _ in range(tenants):
        assert decode_line(await asyncio.wait_for(reader.readline(),
                                                  5.0))["ok"]
    writer.close()
    await writer.wait_closed()


def test_client_closing_with_answers_pending_leaves_no_loop_errors():
    """A client that pipelines 200 ops and closes before reading costs
    the server nothing but the dropped answers: no loop error, and the
    next client is served."""
    async def scenario():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context))
        service = DetectionService(ServiceConfig(shards=2))
        await service.start(host="127.0.0.1", port=0)
        try:
            await _raw_attach("127.0.0.1", service.tcp_port, 4)
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port)
            writer.write(b"".join(_mixed_ops(200, 4)))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            client = await ServiceClient.connect_tcp("127.0.0.1",
                                                     service.tcp_port)
            try:
                reply = await asyncio.wait_for(
                    client.attach("fresh", m=2, n=2), 5.0)
                assert reply["attached"] is True
            finally:
                await client.close()
        finally:
            await service.stop()
        assert errors == []
    _run(scenario())


def test_pipelined_burst_gets_every_answer_once():
    """500 ops written in one burst on one connection: 500 answers,
    one per request."""
    async def scenario():
        service = DetectionService(ServiceConfig(shards=2))
        await service.start(host="127.0.0.1", port=0)
        try:
            await _raw_attach("127.0.0.1", service.tcp_port, 8)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port)
            writer.write(b"".join(_mixed_ops(500, 8)))
            await writer.drain()
            answers = [decode_line(await asyncio.wait_for(
                reader.readline(), 5.0)) for _ in range(500)]
            # The refused line is answered without an id (see
            # _mixed_ops); every other op once, under its own id.
            assert sorted(answer["id"] for answer in answers
                          if "id" in answer) == \
                [index for index in range(500) if index != 250]
            assert [answer["error"] for answer in answers
                    if "id" not in answer] == ["bad-request"]
            writer.close()
            await writer.wait_closed()
        finally:
            await service.stop()
    _run(scenario())


def test_hung_worker_is_killed_and_its_ops_answered():
    """A SIGSTOPped worker leaves its batch unanswered past
    ``shard_timeout``; the hang check kills it, and its tenants' ops are
    answered after recovery exactly as the local oracle answers them."""
    from repro.service.tenant import Tenant

    claims = [("p1", "q1"), ("p2", "q1"), ("p2", "q2"), ("p1", "q2")]
    twin = Tenant.from_attach("t0", {"m": 4, "n": 4})

    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=2, use_processes=True, shard_timeout=0.5))
        victim = None
        try:
            await client.attach("t0", m=4, n=4)
            await client.attach("t1", m=4, n=4)
            victim = service.shards[service.tenants["t0"].shard_id]
            os.kill(victim.pid, signal.SIGSTOP)
            pending = [asyncio.ensure_future(client.claim("t0", p, q))
                       for p, q in claims]
            pending.append(asyncio.ensure_future(client.detect("t0")))
            replies = await asyncio.wait_for(asyncio.gather(*pending),
                                             10.0)
            for (process, resource), reply in zip(claims, replies):
                expected = twin.claim({"process": process,
                                       "resource": resource})
                assert {key: reply[key] for key in expected} == expected
            assert replies[-1]["deadlock"] is True
            assert replies[-1]["op_seq"] == twin.op_seq == 4
            assert sorted(replies[-1]["deadlocked_processes"]) == \
                ["p1", "p2"]
            assert (await client.stats())["shard_crashes"] == 1
            victim.process.join(timeout=5.0)
            assert victim.process.exitcode == -signal.SIGKILL
        finally:
            if victim is not None and victim.process.is_alive():
                victim.process.kill()
            await _stop(service, client)
    _run(scenario())


def test_per_shard_tenant_counts_match_a_recount():
    """The per-shard tenant counts follow attach, shed attach, detach,
    migration and shard-loss recovery."""
    from collections import Counter

    def assert_counts(service):
        recount = Counter(record.shard_id
                          for record in service.tenants.values())
        assert [handle.tenants for handle in service.shards] == \
            [recount[handle.shard_id] for handle in service.shards]

    async def scenario():
        service, client = await _started(ServiceConfig(
            shards=3, use_processes=False, tick_interval=0.005))
        try:
            for index in range(7):
                await client.attach(f"t{index}", m=2, n=2)
            assert_counts(service)
            shed = service.submit({"op": "attach", "tenant": "late",
                                   "m": 2, "n": 2, "deadline_ms": 1})
            assert_counts(service)
            assert (await shed)["error"] == "deadline-exceeded"
            assert "late" not in service.tenants
            assert_counts(service)
            await client.detach("t0")
            assert_counts(service)
            record = service.tenants["t1"]
            await client.migrate("t1", (record.shard_id + 1) % 3)
            assert_counts(service)
            service.shards[service.tenants["t2"].shard_id].crash()
            await client.detect("t2")
            assert_counts(service)
            assert sum(handle.tenants for handle in service.shards
                       if handle.alive) == 6
        finally:
            await _stop(service, client)
    _run(scenario())


def test_stop_flushes_the_answers_of_held_ops():
    """Ops held by an hour-long window are answered by ``stop()``'s
    final tick, and reach the client as whole lines before it closes
    the connection."""
    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=1, use_processes=False, tick_interval=3600.0))
        await service.start(host="127.0.0.1", port=0)
        attach = service.submit({"op": "attach", "tenant": "t0",
                                 "m": 2, "n": 2})
        service._run_tick()
        assert (await attach)["ok"]
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        try:
            writer.write(b"".join(encode_message(
                {"op": "detect", "tenant": "t0", "id": index})
                for index in range(3)))
            await writer.drain()
            for _ in range(1000):
                if service.stats()["pending"] == 3:
                    break
                await asyncio.sleep(0.001)
            assert service.stats()["pending"] == 3
            await service.stop()
            lines = [await asyncio.wait_for(reader.readline(), 5.0)
                     for _ in range(4)]
            assert lines[3] == b""
            answers = [decode_line(line) for line in lines[:3]]
            assert sorted(answer["id"] for answer in answers) == [0, 1, 2]
            assert all(answer["ok"] for answer in answers)
        finally:
            writer.close()
    _run(scenario())


def test_crash_replays_a_compact_journal_exactly_once():
    """A journal tail of idem-keyed claims and releases survives a shard
    crash: replay rebuilds the twin's state, a retried key is deduped,
    and the journal kept only ``(op, process, resource, idem)``."""
    from repro.service.tenant import Tenant

    steps = [("claim", "p1", "q1"), ("claim", "p2", "q1"),
             ("claim", "p2", "q2"), ("release", "p1", "q1"),
             ("claim", "p3", "q3"), ("release", "p3", "q3")]
    messages = [{"op": kind, "tenant": "t0", "process": process,
                 "resource": resource, "idem": f"k{index}",
                 "id": 100 + index, "deadline_ms": 5000}
                for index, (kind, process, resource) in enumerate(steps)]
    twin = Tenant.from_attach("t0", {"m": 4, "n": 4})
    for message in messages:
        getattr(twin, message["op"])(message)

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, snapshot_every=1000))
        await service.start()
        try:
            assert (await service.submit({"op": "attach", "tenant": "t0",
                                          "m": 4, "n": 4}))["ok"]
            for message in messages:
                assert (await service.submit(dict(message)))["ok"]
            record = service.tenants["t0"]
            # The recovery base is the attach op itself, cut down to
            # its construction fields.
            assert record.base == {"op": "attach", "tenant": "t0",
                                   "m": 4, "n": 4}
            assert record.base_seq == 0
            assert record.journal == [
                (message["op"], message["process"], message["resource"],
                 message["idem"]) for message in messages]
            service.shards[record.shard_id].crash()
            assert service.stats()["journal_replayed"] == len(messages)
            kind, envelope = await service.shards[
                record.shard_id].request("snapshot", "t0")
            assert kind == "snapshot"
            assert envelope["state"]["op_seq"] == twin.op_seq
            assert envelope["state_hash"] == \
                twin.snapshot_state()["state_hash"]
            retry = await service.submit(dict(messages[2]))
            assert retry["ok"] and retry["deduped"] is True
            assert retry["op_seq"] == 3
            kind, envelope = await service.shards[
                record.shard_id].request("snapshot", "t0")
            assert envelope["state"]["op_seq"] == twin.op_seq
        finally:
            await service.stop()
    _run(scenario())


def test_journal_retains_a_few_dozen_bytes_per_mutation():
    """What the front end keeps per acked mutation, before a refresh
    truncates the journal, is a small tuple of shared strings, not the
    decoded request."""
    import gc
    import tracemalloc

    tenants, rounds = 512, 16     # 32 mutations each, under a refresh

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, snapshot_every=64))
        await service.start()
        try:
            ids = [f"t{index}" for index in range(tenants)]
            attaches = [service.submit({"op": "attach", "tenant": tenant,
                                        "m": 8, "n": 8})
                        for tenant in ids]
            for future in attaches:
                assert (await future)["ok"]
            gc.collect()
            tracemalloc.start()
            try:
                request_id = 0
                for step in range(rounds):
                    name = str(step % 8 + 1)
                    for kind in ("claim", "release"):
                        futures = []
                        for tenant in ids:
                            request_id += 1
                            line = encode_message({
                                "op": kind, "tenant": tenant,
                                "process": "p" + name,
                                "resource": "q" + name,
                                "id": request_id, "deadline_ms": 5000})
                            futures.append(service.submit(
                                decode_line(line)))
                        for future in futures:
                            assert (await future)["ok"]
                        del futures
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            journaled = [len(record.journal)
                         for record in service.tenants.values()]
            assert journaled == [2 * rounds] * tenants
            per_mutation = retained / sum(journaled)
            assert per_mutation <= 160, f"{per_mutation:.0f} B per mutation"
        finally:
            await service.stop()
    _run(scenario())


@pytest.mark.parametrize("spec", [
    {"seed": 21, "m": 8, "n": 8, "grant_fraction": 0.5,
     "request_fraction": 0.2},
    {"rows": ["g r . .", ". g r .", ". . g r", "r . . g", ". . . ."]},
], ids=["seeded", "rows"])
def test_crash_before_refresh_rebuilds_from_attach_op(spec):
    """A shard lost before any refresh rebuilds its tenant by replaying
    the attach op and then the journal: same op_seq, same state_hash as
    a local twin."""
    steps = _legal_steps(spec, 9)
    op_seq, state_hash = _twin(spec, steps)

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, snapshot_every=1000))
        await service.start()
        try:
            reply = await service.submit({"op": "attach", "tenant": "t0",
                                          "id": 1, "idem": "a",
                                          "deadline_ms": 5000, **spec})
            assert reply["ok"] and reply["id"] == 1
            for kind, process, resource in steps:
                assert (await service.submit({
                    "op": kind, "tenant": "t0", "process": process,
                    "resource": resource}))["ok"]
            record = service.tenants["t0"]
            assert record.base == {"op": "attach", "tenant": "t0", **spec}
            assert record.base_seq == 0
            assert len(record.journal) == len(steps)
            victim = record.shard_id
            service.shards[victim].crash()
            assert record.shard_id != victim
            kind, envelope = await service.shards[
                record.shard_id].request("snapshot", "t0")
            assert kind == "snapshot"
            assert envelope["state"]["op_seq"] == op_seq
            assert envelope["state_hash"] == state_hash
            assert (await service.submit({"op": "detect", "tenant": "t0"})
                    )["op_seq"] == op_seq
        finally:
            await service.stop()
    _run(scenario())


def test_retried_attach_is_deduped_with_the_first_answer():
    """A retry of an in-flight attach is told to back off; once the
    first is acked, a retry replays its answer, marked ``deduped``."""
    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=3600.0))
        await service.start()
        try:
            message = {"op": "attach", "tenant": "t0", "seed": 3,
                       "m": 6, "n": 5, "idem": "a1"}
            first = service.submit({**message, "id": 1})
            early = await service.submit({**message, "id": 2})
            assert early["error"] == "backpressure"
            service._run_tick()
            first = await first
            retry = await service.submit({**message, "id": 3})
            assert retry.pop("deduped") is True
            assert retry.pop("id") == 3 and first.pop("id") == 1
            assert retry == first
            assert (first["m"], first["n"], first["shard"]) == (6, 5, 0)
            assert service.stats()["deduped"] == 1
        finally:
            await service.stop()
    _run(scenario())


@pytest.mark.parametrize("target", [0, 1], ids=["same-shard", "other-shard"])
def test_migrate_pipelined_behind_its_attach(target):
    """A ``migrate`` read in the same burst as the tenant's ``attach``
    (the attach still queued) ships the attach first and answers the
    twin's ``state_hash``."""
    spec = {"seed": 8, "m": 6, "n": 6}
    state_hash = _twin(spec, [])[1]

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False))
        await service.start(host="127.0.0.1", port=0)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        try:
            writer.write(encode_message({"op": "attach", "tenant": "t0",
                                         "id": 1, **spec})
                         + encode_message({"op": "migrate", "tenant": "t0",
                                           "shard": target, "id": 2}))
            await writer.drain()
            replies = {}
            for _ in range(2):
                reply = decode_line(await asyncio.wait_for(
                    reader.readline(), 5.0))
                replies[reply["id"]] = reply
            assert replies[1]["ok"] and replies[1]["shard"] == 0
            assert replies[2]["ok"], replies[2]
            assert replies[2]["state_hash"] == state_hash
            assert replies[2]["moved"] is (target != 0)
            assert service.tenants["t0"].shard_id == target
            verdict = await service.submit({"op": "detect", "tenant": "t0"})
            assert verdict["ok"] and verdict["op_seq"] == 0
        finally:
            writer.close()
            await service.stop()
    _run(scenario())


def test_front_end_keeps_no_envelope_per_attached_tenant():
    """What an in-process service retains per attached, never-mutated
    8x8 tenant: the shard's bit planes plus a small attach op, not a
    rendered snapshot envelope."""
    import gc
    import tracemalloc

    tenants = 512

    async def scenario():
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False))
        await service.start()
        try:
            gc.collect()
            tracemalloc.start()
            try:
                futures = [service.submit({
                    "op": "attach", "tenant": f"t{index}", "m": 8, "n": 8,
                    "seed": index, "id": index, "deadline_ms": 5000})
                    for index in range(tenants)]
                for future in futures:
                    assert (await future)["ok"]
                del futures
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            per_tenant = retained / tenants
            assert per_tenant <= 2048, f"{per_tenant:.0f} B per tenant"
        finally:
            await service.stop()
    _run(scenario())


@pytest.mark.parametrize("how", ["wire-shutdown", "sigterm"])
def test_entry_point_exits_when_the_service_stops(how):
    """``python -m repro.service`` returns 0 once the service has
    stopped, whether a client sent ``shutdown`` or a signal came."""
    import json
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--no-processes",
         "--shards", "1"], stdout=subprocess.PIPE, env=env)
    try:
        ready = json.loads(proc.stdout.readline())
        if how == "sigterm":
            proc.send_signal(signal.SIGTERM)
        else:
            async def shutdown():
                client = await ServiceClient.connect_tcp("127.0.0.1",
                                                         ready["port"])
                assert (await client.shutdown())["stopping"] is True
                await client.close()
            _run(shutdown())
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()

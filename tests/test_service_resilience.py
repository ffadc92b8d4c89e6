"""End-to-end resilience tests: ResilientServiceClient vs. a hostile wire.

The centrepiece is a differential test: the same seeded workload runs
once against a pristine service (the oracle) and once through a
:class:`ChaosTransport` that resets connections and drops response
lines while a shard is crashed mid-run — and the per-tenant
``state_hash`` digests must come out identical.  A retried mutation
whose first attempt died anywhere on the wire applies exactly once.

Everything runs with in-process shards inside plain ``asyncio.run``
(no pytest-asyncio in this repo).
"""

import asyncio
import json
import random
import socket
import time

import pytest

from repro.errors import ServiceError
from repro.obs import Observability
from repro.service import (
    ChaosTransport,
    CircuitOpenError,
    DetectionService,
    NetFaultPlan,
    NetFaultSpec,
    ResilientServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceOpError,
)


def _run(coro):
    return asyncio.run(coro)


async def _service(**overrides):
    overrides.setdefault("tick_interval", 0.002)
    config = ServiceConfig(shards=2, use_processes=False, **overrides)
    service = DetectionService(config)
    await service.start(host="127.0.0.1", port=0)
    return service


def _free_port() -> int:
    """A port that was just free — connecting to it gets refused."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# -- the exactly-once differential ---------------------------------------------

async def _apply_workload(client, tenants, ops_per_tenant, seed,
                          crash=None):
    """Drive a seeded claim/release mix; optionally crash mid-run."""
    rng = random.Random(seed)
    for tenant in tenants:
        await client.attach(tenant, m=8, n=8)
    plan = [(tenant, step) for step in range(ops_per_tenant)
            for tenant in tenants]
    crash_at = len(plan) // 2
    for index, (tenant, _step) in enumerate(plan):
        if crash is not None and index == crash_at:
            crash()
        process = f"p{rng.randrange(8)}"
        resource = f"q{rng.randrange(8)}"
        try:
            if rng.random() < 0.35:
                await client.release(tenant, process, resource)
            else:
                await client.claim(tenant, process, resource)
        except ServiceOpError:
            # protocol-violation (release of an unheld resource, claim
            # of a held one) is a deterministic no-op on both sides.
            pass


async def _state_hashes(service, client, tenants):
    """Per-tenant digest via migrate-in-place (returns ``state_hash``)."""
    hashes = {}
    for tenant in tenants:
        shard = service.tenants[tenant].shard_id
        reply = await client.request("migrate", tenant=tenant,
                                     shard=shard)
        hashes[tenant] = reply["state_hash"]
    return hashes


#: Each plan kills the connection at its first fault, so a sequential
#: workload only ever sees one kind per run — the differential runs
#: once per plan.  ``drop`` swallows responses to *applied* mutations
#: (the retry is a true replay the idem window must absorb); ``reset``
#: tears the socket so retries must cross a reconnect.
_DROP_PLAN = NetFaultPlan(name="diff-drop", seed=17, specs=(
    NetFaultSpec("drop", direction="s2c", at=3, every=7),))
_RESET_PLAN = NetFaultPlan(name="diff-reset", seed=17, specs=(
    NetFaultSpec("reset", direction="c2s", at=7, every=19),))

_DIFF_POLICY = RetryPolicy(
    deadline_ms=8000.0, request_timeout_s=0.2, max_attempts=12,
    backoff_base_s=0.005, backoff_cap_s=0.05,
    fail_threshold=8, recover_after=1, cooldown_s=0.02)


def test_retried_mutations_apply_exactly_once_under_chaos():
    """Oracle vs. chaos+crash runs: identical final state digests."""
    tenants = ["t0", "t1", "t2"]

    async def oracle():
        service = await _service()
        client = await ServiceClient.connect_tcp(
            "127.0.0.1", service.tcp_port)
        try:
            await _apply_workload(client, tenants, 25, seed=99)
            return await _state_hashes(service, client, tenants)
        finally:
            await client.close()
            await service.stop()

    async def chaotic(plan):
        service = await _service()
        proxy = ChaosTransport(plan, target_port=service.tcp_port)
        await proxy.start()
        client = ResilientServiceClient.tcp(
            "127.0.0.1", proxy.listen_port, policy=_DIFF_POLICY,
            seed=4, tag="diff")
        try:
            await _apply_workload(
                client, tenants, 25, seed=99,
                crash=lambda: service.shards[0].crash())
            hashes = await _state_hashes(service, client, tenants)
            stats = await client.stats()
            return hashes, proxy, client.connects, stats
        finally:
            await client.close()
            await proxy.stop()
            await service.stop()

    expected = _run(oracle())

    got, proxy, connects, stats = _run(chaotic(_DROP_PLAN))
    assert got == expected
    assert proxy.fired["drop"] > 0
    assert connects > 1                  # timeouts forced reconnects
    assert stats["shard_crashes"] == 1
    assert stats["deduped"] > 0          # replays hit the idem window

    got, proxy, connects, stats = _run(chaotic(_RESET_PLAN))
    assert got == expected
    assert proxy.fired["reset"] > 0
    assert connects > 1                  # retries crossed the resets
    assert stats["shard_crashes"] == 1


# -- idempotency window, direct ------------------------------------------------

def test_idem_window_dedups_claim_release_and_attach():
    async def scenario():
        service = await _service()
        client = await ServiceClient.connect_tcp(
            "127.0.0.1", service.tcp_port)
        try:
            await client.request("attach", tenant="t0", m=4, n=4,
                                 idem="a1")
            replay = await client.request("attach", tenant="t0",
                                          m=4, n=4, idem="a1")
            assert replay["deduped"] is True
            first = await client.request("claim", tenant="t0",
                                         process="p1", resource="q1",
                                         idem="k1")
            assert first["granted"] is True
            replay = await client.request("claim", tenant="t0",
                                          process="p1", resource="q1",
                                          idem="k1")
            assert replay["deduped"] is True
            assert replay["granted"] is True
            await client.request("release", tenant="t0", process="p1",
                                 resource="q1", idem="k2")
            replay = await client.request("release", tenant="t0",
                                          process="p1", resource="q1",
                                          idem="k2")
            assert replay["deduped"] is True
            # Replays were answered, not applied: two mutations total.
            verdict = await client.detect("t0")
            assert verdict["op_seq"] == 2
        finally:
            await client.close()
            await service.stop()
    _run(scenario())


# -- circuit breaker -----------------------------------------------------------

def test_circuit_opens_fails_fast_and_recloses(tmp_path):
    """Dead wire opens the circuit; a revived wire closes it again."""
    obs = Observability(enabled=True)
    obs.flight.enable()
    obs.flight.autodump_to(tmp_path / "blackbox.json")
    target = {"port": _free_port()}

    async def factory():
        return await ServiceClient.connect_tcp("127.0.0.1",
                                               target["port"])

    policy = RetryPolicy(request_timeout_s=0.2, max_attempts=3,
                         backoff_base_s=0.001, backoff_cap_s=0.005,
                         fail_threshold=2, recover_after=1,
                         cooldown_s=0.3)
    client = ResilientServiceClient(factory, policy=policy, seed=1,
                                    tag="cb", obs=obs)

    async def scenario():
        service = await _service()
        try:
            # Phase 1: nothing listens on the target port.  Three
            # attempts all fail at the transport; the second anomaly
            # trips the breaker.
            with pytest.raises(ServiceError):
                await client.ping()
            assert client.health.failed
            assert obs.metrics.get(
                "service.client.circuit_open").value == 1
            # Phase 2: still inside the cooldown, requests fail fast
            # without touching the wire — CircuitOpenError burns the
            # attempts.
            with pytest.raises(ServiceError, match="circuit open"):
                await client.ping()
            # Phase 3: revive the wire, wait out the cooldown; the next
            # request probes half-open and one clean answer recloses.
            target["port"] = service.tcp_port
            await asyncio.sleep(policy.cooldown_s + 0.05)
            reply = await client.ping()
            assert reply["ok"] is True
            assert not client.health.failed
        finally:
            await client.close()
            await service.stop()

    _run(scenario())
    kinds = [event["kind"] for event in obs.flight.events()]
    assert "circuit_open" in kinds
    assert "circuit_close" in kinds
    assert "request_retried" in kinds
    # TRIP_KINDS events armed the black box: the dump must exist.
    assert (tmp_path / "blackbox.json").exists()


def test_circuit_open_error_is_a_service_error():
    assert issubclass(CircuitOpenError, ServiceError)


# -- plain-client hygiene ------------------------------------------------------

def test_send_failure_does_not_leak_pending_entries():
    """A request whose send dies must not strand its future."""
    async def scenario():
        service = await _service()
        client = await ServiceClient.connect_tcp(
            "127.0.0.1", service.tcp_port)
        try:
            async def broken_drain():
                raise BrokenPipeError("wire gone mid-send")

            client._writer.drain = broken_drain
            with pytest.raises(ServiceError):
                await client.request("ping")
            assert client._pending == {}
        finally:
            await client.close()
            await service.stop()
    _run(scenario())


def test_reader_skips_undecodable_response_lines():
    """Garbage on the response stream is counted, not fatal."""
    async def scenario():
        obs = Observability(enabled=True)

        async def stooge(reader, writer):
            line = await reader.readline()
            request = json.loads(line)
            writer.write(b"\xff\xfe{torn response\n")
            writer.write((json.dumps({"id": request["id"], "ok": True,
                                      "pong": True}) + "\n").encode())
            await writer.drain()

        server = await asyncio.start_server(stooge, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ServiceClient.connect_tcp("127.0.0.1", port,
                                                 obs=obs)
        try:
            reply = await asyncio.wait_for(client.request("ping"), 2.0)
            assert reply["pong"] is True
            assert obs.metrics.get(
                "service.client.decode_errors").value == 1
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
    _run(scenario())


# -- the client's deadline timer -----------------------------------------------

async def _silent_server(read: bool):
    """A server that never answers; with ``read=False`` it never reads."""
    async def handler(reader, writer):
        while read and await reader.readline():
            pass
        if not read:
            await asyncio.sleep(30)

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_deadline_timer_fails_every_expired_request():
    """Pipelined requests past their deadline fail with TimeoutError."""
    async def scenario():
        server, port = await _silent_server(read=True)
        client = await ServiceClient.connect_tcp("127.0.0.1", port)
        client.request_timeout_s = 0.1
        try:
            started = time.monotonic()
            first = asyncio.ensure_future(client.request("ping"))
            await asyncio.sleep(0.05)
            second = asyncio.ensure_future(client.request("ping"))
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(first, 2.0)
            assert time.monotonic() - started < 1.0
            # One timer serves both: it re-armed for the later deadline.
            assert not second.done()
            assert client._timer is not None
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(second, 2.0)
            assert client._pending == {}
            assert client._timer is None
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
    _run(scenario())


def test_deadline_timer_is_not_rearmed_per_answer():
    """Answered requests leave the timer armed for the first deadline."""
    async def scenario():
        service = await _service()
        client = await ServiceClient.connect_tcp(
            "127.0.0.1", service.tcp_port)
        client.request_timeout_s = 5.0
        try:
            await client.ping()
            timer = client._timer
            for _ in range(20):
                await client.ping()
            assert client._timer is timer
            assert client._pending == {}
        finally:
            await client.close()
            await service.stop()
    _run(scenario())


def test_deadline_covers_a_write_blocked_on_a_full_socket():
    """A peer that stops reading cannot hang a request past its deadline."""
    async def scenario():
        server, port = await _silent_server(read=False)
        client = await ServiceClient.connect_tcp("127.0.0.1", port)
        client.request_timeout_s = 0.2
        try:
            started = time.monotonic()
            with pytest.raises(asyncio.TimeoutError):
                # Far more than the kernel buffers hold unread.
                await asyncio.wait_for(
                    client.request("ping", pad="x" * 16_000_000), 10.0)
            # The client's deadline fired, not the test's guard.
            assert time.monotonic() - started < 5.0
            assert client._pending == {}
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
    _run(scenario())


def test_resilient_client_retries_an_unanswered_request():
    """A silent wire times out each attempt; the retries are bounded."""
    async def scenario():
        server, port = await _silent_server(read=True)
        policy = RetryPolicy(request_timeout_s=0.05, max_attempts=2,
                             backoff_base_s=0.001, backoff_cap_s=0.002,
                             fail_threshold=10)
        client = ResilientServiceClient.tcp("127.0.0.1", port,
                                            policy=policy, seed=3)
        try:
            with pytest.raises(ServiceError, match="after 2 attempts"):
                await asyncio.wait_for(client.ping(), 5.0)
            assert client.connects == 2
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
    _run(scenario())


# -- server-side v2 behaviour --------------------------------------------------

def test_deadline_shedding_refuses_without_applying():
    """An op that cannot dispatch inside deadline_ms is shed, and the
    mutation is provably not applied."""
    async def scenario():
        service = await _service(tick_interval=0.05)
        client = await ServiceClient.connect_tcp(
            "127.0.0.1", service.tcp_port)
        try:
            await client.attach("t0", m=4, n=4)
            with pytest.raises(ServiceOpError) as excinfo:
                await client.request("claim", tenant="t0",
                                     process="p1", resource="q1",
                                     deadline_ms=0.001)
            assert excinfo.value.code == "deadline-exceeded"
            verdict = await client.detect("t0")
            assert verdict["op_seq"] == 0    # the claim never landed
        finally:
            await client.close()
            await service.stop()
    _run(scenario())


def test_drain_timeout_is_configurable():
    """A short drain_timeout bounds stop() even with a mute client."""
    async def scenario():
        service = await _service(drain_timeout=0.05)
        assert service.config.drain_timeout == 0.05
        client = await ServiceClient.connect_tcp(
            "127.0.0.1", service.tcp_port)
        await client.attach("t0", m=4, n=4)
        # A raw connection that sends nothing and never reads: stop()
        # must not hang on it past the configured drain window.
        _reader, mute = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        started = time.monotonic()
        await service.stop()
        elapsed = time.monotonic() - started
        assert elapsed < 1.5
        for writer in (mute,):
            try:
                writer.close()
            except OSError:
                pass
        await client.close()
    _run(scenario())

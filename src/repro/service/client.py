"""A small asyncio client for the detection service.

:class:`ServiceClient` speaks the newline-delimited JSON protocol over
TCP or a Unix socket, pipelines requests (every request carries an
``id``; a background reader task matches responses back to futures),
and wraps the common operations as coroutines.  Responses come back as
plain dicts; ``raise_errors=True`` (the default) turns ``ok: false``
responses into :class:`~repro.service.protocol.ServiceOpError` so call
sites read naturally::

    client = await ServiceClient.connect_tcp("127.0.0.1", port)
    await client.attach("t0", seed=7, m=16, n=16)
    reply = await client.claim("t0", "P0", "R3")
    verdict = await client.detect("t0")
    await client.close()

The client also keeps a per-op round-trip latency list (seconds) in
:attr:`rtt` — the example and the benchmark read it.

:class:`ResilientServiceClient` wraps the same surface with the
machinery a chaotic wire demands (see ``docs/service.md``): per-request
deadlines, bounded retries under exponential backoff with full jitter
(seeded — a chaos run replays byte-identically), automatic reconnect
(every pipelined request retries onto the new connection, which *is*
the replay), idempotency keys on mutations so a retried claim/release
applies exactly once, and a :class:`~repro.faults.health.UnitHealth`
circuit breaker that fails fast while the wire is down.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional

from repro.errors import ServiceError
from repro.faults.health import HealthState, UnitHealth
from repro.obs import NULL_OBS, Observability
from repro.service.protocol import (
    TENANT_OPS,
    ServiceOpError,
    decode_line,
    encode_message,
    loop_time,
)


class ServiceClient:
    """One pipelined connection to a :class:`DetectionService`."""

    def __init__(self, reader: "asyncio.StreamReader",
                 writer: "asyncio.StreamWriter",
                 raise_errors: bool = True,
                 obs: Optional[Observability] = None) -> None:
        self._reader = reader
        self._writer = writer
        self._raise_errors = raise_errors
        self._next_id = 0
        #: request id -> (future, deadline on the loop clock).
        self._pending: dict[int, tuple["asyncio.Future", float]] = {}
        #: Seconds a request may wait for its answer before it fails
        #: with :class:`asyncio.TimeoutError`; ``None`` waits forever.
        self.request_timeout_s: Optional[float] = None
        self._loop = asyncio.get_running_loop()
        #: One deadline timer for every pending request (see
        #: :meth:`_expire`).
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Round-trip seconds per op name, e.g. ``rtt["claim"]``.
        self.rtt: dict[str, list] = {}
        self.obs = obs if obs is not None else NULL_OBS
        self._c_decode_errors = self.obs.metrics.counter(
            "service.client.decode_errors",
            "undecodable response lines skipped by the reader loop")
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect_tcp(cls, host: str, port: int,
                          raise_errors: bool = True,
                          obs: Optional[Observability] = None,
                          ) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, raise_errors=raise_errors, obs=obs)

    @classmethod
    async def connect_unix(cls, path: str,
                           raise_errors: bool = True,
                           obs: Optional[Observability] = None,
                           ) -> "ServiceClient":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer, raise_errors=raise_errors, obs=obs)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = decode_line(line)
                except ServiceOpError:
                    # A mangled response line (chaos, or a buggy proxy)
                    # must not kill the reader for the other pipelined
                    # requests — count it and keep reading.  The
                    # request it answered times out and is retried.
                    if self.obs.enabled:
                        self._c_decode_errors.inc()
                    continue
                entry = self._pending.pop(response.get("id"), None)
                if entry is not None and not entry[0].done():
                    entry[0].set_result(response)
        except (ConnectionResetError, BrokenPipeError, ServiceError,
                asyncio.CancelledError):
            pass
        finally:
            self._cancel_timer()
            lost = ServiceError("connection to service lost")
            for future, _deadline in self._pending.values():
                if not future.done():
                    future.set_exception(lost)
            self._pending.clear()

    # -- deadlines -----------------------------------------------------

    def _expire(self) -> None:
        """Fail every request past its deadline; re-arm for the rest.

        The timer is armed for the earliest deadline and is not moved
        when that request is answered: it fires, finds the answered
        request gone, and re-arms for the oldest one still pending.
        With one timeout per client that is one timer event per
        timeout period, however many requests are in flight.  A
        connection whose send buffer is still over its high-water mark
        is stuck, so it is aborted: a request blocked in ``drain`` then
        fails too instead of waiting for the peer to read.
        """
        self._timer = None
        now = loop_time()
        earliest = math.inf
        expired = False
        for request_id, (future, deadline) in list(self._pending.items()):
            if deadline <= now:
                del self._pending[request_id]
                if not future.done():
                    expired = True
                    future.set_exception(asyncio.TimeoutError(
                        f"no answer within {self.request_timeout_s}s"))
            elif deadline < earliest:
                earliest = deadline
        if expired:
            transport = self._writer.transport
            if (transport.get_write_buffer_size()
                    > transport.get_write_buffer_limits()[1]):
                transport.abort()
        if earliest < math.inf:
            self._timer = self._loop.call_at(earliest, self._expire)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    async def request(self, op: str, **fields: Any) -> dict:
        """Send one request; await its matched response."""
        if self._reader_task.done():
            raise ServiceError("connection to service lost")
        self._next_id += 1
        request_id = self._next_id
        message = {"op": op, "id": request_id, **fields}
        loop = self._loop
        future = loop.create_future()
        started = loop_time()
        timeout = self.request_timeout_s
        if timeout is None:
            deadline = math.inf
        else:
            deadline = started + timeout
            timer = self._timer
            if timer is None or deadline < timer.when():
                if timer is not None:
                    timer.cancel()
                self._timer = loop.call_at(deadline, self._expire)
        self._pending[request_id] = (future, deadline)
        try:
            self._writer.write(encode_message(message))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            # The send failed: pop our entry so the reader loop can
            # never resolve a dead id later.
            self._pending.pop(request_id, None)
            if future.done() and isinstance(future.exception(),
                                            asyncio.TimeoutError):
                # The deadline passed while the write was blocked.
                raise future.exception() from exc
            raise ServiceError(
                f"connection to service lost: {exc}") from exc
        response = await future
        self.rtt.setdefault(op, []).append(loop_time() - started)
        if self._raise_errors and not response.get("ok"):
            raise ServiceOpError(response.get("error", "internal"),
                                 response.get("detail", ""))
        return response

    # -- tenant ops ----------------------------------------------------

    async def attach(self, tenant: str, **spec: Any) -> dict:
        return await self.request("attach", tenant=tenant, **spec)

    async def claim(self, tenant: str, process: str,
                    resource: str) -> dict:
        return await self.request("claim", tenant=tenant,
                                  process=process, resource=resource)

    async def release(self, tenant: str, process: str,
                      resource: str) -> dict:
        return await self.request("release", tenant=tenant,
                                  process=process, resource=resource)

    async def detect(self, tenant: str) -> dict:
        return await self.request("detect", tenant=tenant)

    async def detach(self, tenant: str) -> dict:
        return await self.request("detach", tenant=tenant)

    # -- admin ops -----------------------------------------------------

    async def ping(self) -> dict:
        return await self.request("ping")

    async def stats(self) -> dict:
        return await self.request("stats")

    async def shards(self) -> dict:
        return await self.request("shards")

    async def migrate(self, tenant: str, shard: int) -> dict:
        return await self.request("migrate", tenant=tenant, shard=shard)

    async def rebalance(self) -> dict:
        return await self.request("rebalance")

    async def shutdown(self) -> dict:
        return await self.request("shutdown")

    # -- lifecycle -----------------------------------------------------

    async def close(self) -> None:
        self._cancel_timer()
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.close()


#: Wire error codes a client may retry: the op either never reached a
#: shard (``backpressure``, ``deadline-exceeded``, shed *before*
#: dispatch) or its fate is knowable via the idempotency key
#: (``shard-lost``).  Everything else is a definitive answer.
RETRYABLE_CODES = frozenset((
    "backpressure", "deadline-exceeded", "shard-lost",
))

#: Ops whose retries must carry an idempotency key (attach dedups at
#: the front end, claim/release in the tenant window).
IDEMPOTENT_OPS = frozenset(("attach", "claim", "release"))


class CircuitOpenError(ServiceError):
    """Failing fast: the circuit breaker is open (wire presumed down)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for :class:`ResilientServiceClient` (all bounded)."""

    #: Server-side budget stamped on every tenant op (protocol v2
    #: ``deadline_ms``); the server sheds rather than serve stale.
    deadline_ms: float = 2000.0
    #: Client-side cap on one attempt's round trip.
    request_timeout_s: float = 5.0
    #: Attempts per request (1 = no retry).
    max_attempts: int = 8
    #: Full-jitter backoff: sleep ``uniform(0, min(cap, base * 2**k))``.
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    #: Circuit breaker: consecutive transport anomalies before the
    #: circuit opens, clean answers before it fully closes, and how
    #: long an open circuit fails fast before probing (half-open).
    fail_threshold: int = 3
    recover_after: int = 2
    cooldown_s: float = 0.25


class ResilientServiceClient:
    """A :class:`ServiceClient` that survives a hostile wire.

    Wraps a connection *factory* rather than a connection: when the
    transport fails (reset, timeout, torn response) the live client is
    dropped and the next attempt reconnects.  Every in-flight pipelined
    request independently retries onto the new connection — that is the
    pipelined-request replay, and it is safe because retried mutations
    carry idempotency keys the server dedups (exactly-once).

    The circuit breaker is a :class:`~repro.faults.health.UnitHealth`
    FSM: ``fail_threshold`` consecutive transport anomalies open the
    circuit (FAILED — requests fail fast with
    :class:`CircuitOpenError`), ``cooldown_s`` later the next request
    probes it half-open (RECOVERING), and ``recover_after`` clean
    answers close it again.  Transitions land in the flight recorder
    (``circuit_open`` / ``circuit_close``), retries as
    ``request_retried`` trips.

    Determinism: jitter comes from a seeded :class:`random.Random`, so
    a chaos campaign scenario replays its sleep schedule exactly.
    """

    def __init__(self, factory: Callable[[], Awaitable[ServiceClient]],
                 policy: Optional[RetryPolicy] = None,
                 seed: int = 0, tag: str = "client",
                 obs: Optional[Observability] = None) -> None:
        self._factory = factory
        self.policy = policy or RetryPolicy()
        self.tag = tag
        self.obs = obs if obs is not None else NULL_OBS
        self._rng = random.Random(seed)
        self._client: Optional[ServiceClient] = None
        self._connect_lock = asyncio.Lock()
        self._connects = 0
        self._seq = 0
        self._cooldown_until = 0.0
        self.health = UnitHealth(
            tag, clock=loop_time,
            fail_threshold=self.policy.fail_threshold,
            recover_after=self.policy.recover_after, obs=self.obs)
        #: Total round-trip seconds per op (includes retries/backoff).
        self.rtt: dict[str, list] = {}
        metrics = self.obs.metrics
        self._c_retries = metrics.counter(
            "service.client.retries", "request attempts after the first")
        self._c_reconnects = metrics.counter(
            "service.client.reconnects", "connections after the first")
        self._c_circuit_open = metrics.counter(
            "service.client.circuit_open", "circuit-breaker opens")
        self._c_deduped = metrics.counter(
            "service.client.deduped",
            "responses served from the server's idempotency window")

    @classmethod
    def tcp(cls, host: str, port: int,
            **kwargs: Any) -> "ResilientServiceClient":
        async def factory() -> ServiceClient:
            return await ServiceClient.connect_tcp(
                host, port, obs=kwargs.get("obs"))
        return cls(factory, **kwargs)

    @classmethod
    def unix(cls, path: str, **kwargs: Any) -> "ResilientServiceClient":
        async def factory() -> ServiceClient:
            return await ServiceClient.connect_unix(
                path, obs=kwargs.get("obs"))
        return cls(factory, **kwargs)

    @property
    def connects(self) -> int:
        """Connections made so far (anything past 1 is a reconnect)."""
        return self._connects

    # -- connection management -----------------------------------------

    async def _ensure_connected(self) -> ServiceClient:
        client = self._client
        if client is not None and not client._reader_task.done():
            return client
        async with self._connect_lock:
            client = self._client
            if client is not None and not client._reader_task.done():
                return client            # a sibling already reconnected
            if client is not None:
                self._client = None
                await client.close()
            client = await self._factory()
            # The connection's one deadline timer bounds every attempt.
            client.request_timeout_s = self.policy.request_timeout_s
            self._client = client
            self._connects += 1
            if self._connects > 1:
                self._c_reconnects.inc()
            return client

    async def _drop(self, client: Optional[ServiceClient]) -> None:
        """Discard a client the caller saw fail (if still current)."""
        if client is not None and client is self._client:
            self._client = None
            await client.close()

    # -- circuit breaker -----------------------------------------------

    def _check_circuit(self) -> None:
        if not self.health.failed:
            return
        if loop_time() < self._cooldown_until:
            raise CircuitOpenError(
                f"circuit open for {self.tag!r}; fails fast until "
                "cooldown elapses")
        self.health.begin_recovery("cooldown elapsed")   # half-open

    def _anomaly(self, reason: str) -> None:
        was_failed = self.health.failed
        self.health.anomaly(reason)
        if self.health.failed:
            self._cooldown_until = loop_time() + self.policy.cooldown_s
            if not was_failed:
                self._c_circuit_open.inc()
                if self.obs.flight.enabled:
                    self.obs.flight.mark("circuit_open", actor=self.tag,
                                         reason=reason)

    def _clean(self, reason: str) -> None:
        was_closed = self.health.state is HealthState.HEALTHY
        self.health.clean(reason)
        if (not was_closed
                and self.health.state is HealthState.HEALTHY
                and self.obs.flight.enabled):
            self.obs.flight.mark("circuit_close", actor=self.tag,
                                 reason=reason)

    # -- the retry loop ------------------------------------------------

    async def request(self, op: str, **fields: Any) -> dict:
        """One logical request, retried to completion or exhaustion."""
        policy = self.policy
        if op in TENANT_OPS and "deadline_ms" not in fields:
            fields["deadline_ms"] = policy.deadline_ms
        if op in IDEMPOTENT_OPS and "idem" not in fields:
            self._seq += 1
            fields["idem"] = f"{self.tag}:{self._seq}"
        started = loop_time()
        last_error: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self._c_retries.inc()
                if self.obs.flight.enabled:
                    self.obs.flight.mark(
                        "request_retried", actor=self.tag, op=op,
                        attempt=attempt, error=str(last_error)[:80])
                await asyncio.sleep(self._rng.uniform(
                    0.0, min(policy.backoff_cap_s,
                             policy.backoff_base_s * (2 ** attempt))))
            try:
                self._check_circuit()
            except CircuitOpenError as exc:
                # Open circuit: don't touch the wire — burn this
                # attempt waiting out the cooldown (the next iteration's
                # backoff sleep).  The request fails fast only once the
                # attempt budget is spent.
                last_error = exc
                continue
            # Hot path: reuse the live connection without awaiting the
            # lock-guarded slow path (an extra coroutine per request).
            client = self._client
            try:
                if client is None or client._reader_task.done():
                    client = await self._ensure_connected()
                response = await client.request(op, **fields)
            except ServiceOpError as exc:
                # The server answered: the wire is healthy.
                self._clean("server answered")
                if exc.code not in RETRYABLE_CODES:
                    raise
                last_error = exc
            except (ServiceError, asyncio.TimeoutError,
                    ConnectionResetError, BrokenPipeError,
                    OSError) as exc:
                # Transport-level loss: reconnect on the next attempt.
                await self._drop(client)
                self._anomaly(f"{op}: {type(exc).__name__}")
                last_error = exc
            else:
                if self.health.state is not HealthState.HEALTHY:
                    self._clean("response")
                if response.get("deduped"):
                    self._c_deduped.inc()
                self.rtt.setdefault(op, []).append(loop_time() - started)
                return response
        raise ServiceError(
            f"{op} failed after {policy.max_attempts} attempts: "
            f"{last_error}") from last_error

    # -- tenant ops ----------------------------------------------------

    async def attach(self, tenant: str, **spec: Any) -> dict:
        return await self.request("attach", tenant=tenant, **spec)

    async def claim(self, tenant: str, process: str,
                    resource: str) -> dict:
        return await self.request("claim", tenant=tenant,
                                  process=process, resource=resource)

    async def release(self, tenant: str, process: str,
                      resource: str) -> dict:
        return await self.request("release", tenant=tenant,
                                  process=process, resource=resource)

    async def detect(self, tenant: str) -> dict:
        return await self.request("detect", tenant=tenant)

    async def detach(self, tenant: str) -> dict:
        return await self.request("detach", tenant=tenant)

    # -- admin ops -----------------------------------------------------

    async def ping(self) -> dict:
        return await self.request("ping")

    async def stats(self) -> dict:
        return await self.request("stats")

    async def shards(self) -> dict:
        return await self.request("shards")

    # -- lifecycle -----------------------------------------------------

    async def close(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    async def __aenter__(self) -> "ResilientServiceClient":
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.close()

"""The asyncio front end: multiplex tenants over a pool of shards.

:class:`DetectionService` accepts newline-delimited JSON connections
(TCP and/or Unix socket), applies admission control and bounded-queue
backpressure, and coalesces accepted tenant operations into *ticks*:
the first op queued into an empty queue arms a tick ``tick_interval``
seconds later (by default 0, the next event-loop iteration), which
drains the queue, groups it by shard and ships one ``batch`` command
per shard, whose detects are answered by one reduction per dirty
tenant (see :mod:`repro.service.shard`).  Each connection's answers
collect in an outbox that is written once per loop iteration.

Shards run either in-process (tests, campaign scenarios) or as
``multiprocessing`` worker processes (the deployment the
``service.shard-kill`` checker SIGKILLs).  The front end is the
durability domain, though the shard builds every tenant (``attach`` is
a batch op like any other):

* per tenant it keeps one *recovery base*, a shard op that rebuilds
  the tenant at a known ``op_seq``: the attach op itself (seeded
  construction is deterministic) until the first snapshot refresh or
  migration, then a ``restore`` of the latest snapshot envelope;
* every *acked* mutation is journaled per tenant as a compact
  ``(op, process, resource, idem)`` record, and the snapshot is
  refreshed from the shard every ``snapshot_every`` mutations; the
  journal holds exactly the mutations whose ``op_seq`` is past the
  base's, so it truncates by ``op_seq`` at each refresh;
* when a shard dies — EOF on its pipe, a send failure, or a hung batch
  past ``shard_timeout`` — each of its tenants is rebuilt on a
  surviving shard by one ``batch`` of base + journal replay, and the
  batch that was in flight is re-dispatched, so clients see latency,
  never a wrong verdict;
* live migration (``migrate`` / ``rebalance``) quiesces one tenant,
  moves its snapshot between shards, verifies ``state_hash`` equality
  after restore, and releases the held operations — digest-equivalent
  by construction.

Every timing decision reads the event loop's clock
(:func:`~repro.service.protocol.loop_time`), as the client's do.

Everything observable lands in ``service.*`` metrics on the hub, and
admission rejections, migrations and rebalances are flight-recorder
trips (see :data:`repro.obs.flight.TRIP_KINDS`).
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ServiceError
from repro.obs import Observability
from repro.service.protocol import (
    ADMIN_OPS,
    MAX_LINE_BYTES,
    MUTATING_OPS,
    PROTOCOL_VERSION,
    ServiceOpError,
    decode_line,
    encode_message,
    error_response,
    loop_time,
    ok_response,
    validate_request,
)
from repro.service.shard import ShardCore, shard_main

#: Seconds between hang checks of worker-process shards (far under any
#: sensible ``shard_timeout``).
_HANG_CHECK_INTERVAL = 0.5
#: Seconds between looks at a migrating tenant's in-flight count.
_QUIESCE_POLL = 0.001
#: What an attach base keeps of the request: the fields
#: :meth:`~repro.service.tenant.Tenant.from_attach` reads.
_BASE_FIELDS = ("op", "tenant", "m", "n", "seed", "grant_fraction",
                "request_fraction", "rows")


@dataclass
class ServiceConfig:
    """Knobs for one service instance (all bounded, all observable)."""

    #: Worker shards in the pool.
    shards: int = 2
    #: True: shards are multiprocessing workers (SIGKILL-able);
    #: False: in-process cores (tests, campaign scenarios).
    use_processes: bool = False
    #: Batching window: seconds from the first op queued into an empty
    #: queue to the tick that ships it (one batch per shard).  0 ticks
    #: on the next loop iteration, after every line already buffered
    #: on every readable socket has been submitted.
    tick_interval: float = 0.0
    #: Admission control: the tenant table's hard cap.
    max_tenants: int = 4096
    #: Bounded queue: total queued + in-flight operations.
    max_pending: int = 4096
    #: Bounded queue: per-tenant outstanding operations.
    max_pending_per_tenant: int = 128
    #: Acked mutations between snapshot refreshes (journal truncation).
    snapshot_every: int = 64
    #: A batch unanswered this long marks the shard dead.
    shard_timeout: float = 30.0
    #: ``stop()`` waits this long for dispatched ops to settle before
    #: closing connections (was a hard-coded 2.0s).
    drain_timeout: float = 2.0


class _ShardLost(ServiceError):
    """Internal: the shard died before answering (recovery re-routes)."""


class _QueuedOp:
    """One accepted tenant operation waiting for its tick."""

    __slots__ = ("message", "future", "enqueued")

    def __init__(self, message: dict, future: "asyncio.Future",
                 enqueued: float) -> None:
        self.message = message
        self.future = future
        self.enqueued = enqueued


class _Outbox:
    """One connection's encoded answers, written once per loop iteration."""

    __slots__ = ("writer", "lines")

    def __init__(self, writer) -> None:
        self.writer = writer
        self.lines: list = []

    def put(self, response: dict) -> None:
        if self.writer.is_closing():
            return                     # the client is gone: drop it
        if not self.lines:
            asyncio.get_running_loop().call_soon(self.flush)
        self.lines.append(encode_message(response))

    def answer(self, future: "asyncio.Future") -> None:
        """Done-callback of a submitted op's future."""
        self.put(future.result())

    def flush(self) -> None:
        if not self.lines:
            return
        data = b"".join(self.lines)
        self.lines.clear()
        if not self.writer.is_closing():
            self.writer.write(data)


class _TenantRecord:
    """Front-end bookkeeping for one tenant."""

    __slots__ = ("tenant_id", "shard_id", "base", "base_seq", "journal",
                 "outstanding", "inflight", "migrating", "held",
                 "attach_idem", "attach_response")

    def __init__(self, tenant_id: str, shard_id: int, base: dict) -> None:
        self.tenant_id = tenant_id
        self.shard_id = shard_id
        #: The shard op that rebuilds the tenant at ``base_seq``: the
        #: attach op, then a ``restore`` (see :meth:`rebase`).
        self.base = base
        self.base_seq = 0
        #: Acked mutations the base does not hold (crash-replay
        #: source), each an ``(op, process, resource, idem)`` tuple
        #: (see :func:`_journal_entry`).  Entry ``k`` is the one with
        #: ``op_seq`` equal to ``base_seq + k + 1``: a tenant's acked
        #: mutations carry consecutive ``op_seq`` values.
        self.journal: list = []
        #: Queued + dispatched, not yet answered (backpressure).
        self.outstanding = 0
        #: Dispatched to a shard, not yet answered (migration gate).
        self.inflight = 0
        self.migrating = False
        #: Ops parked while a migration is in progress.
        self.held: list = []
        #: The ``idem`` key the creating attach carried (if any), plus
        #: the recorded response payload once it was acked — a retried
        #: attach with the same key replays the answer instead of
        #: hitting ``duplicate-tenant``.
        self.attach_idem: Optional[str] = None
        self.attach_response: Optional[dict] = None

    def rebase(self, envelope: dict) -> None:
        """Base the tenant on a newer snapshot; drop what it covers."""
        op_seq = envelope["state"]["op_seq"]
        del self.journal[:op_seq - self.base_seq]
        self.base = {"op": "restore", "tenant": self.tenant_id,
                     "envelope": envelope}
        self.base_seq = op_seq


def _journal_entry(message: dict) -> tuple:
    """The part of an acked mutation crash replay needs.

    The request dict itself (``id``, ``deadline_ms``, ...) is freed once
    it is answered.  The names are interned: an acked mutation names a
    valid process and resource, so each is one of a small shared set.
    """
    return (sys.intern(message["op"]), sys.intern(message["process"]),
            sys.intern(message["resource"]), message.get("idem"))


def _replay_message(tenant_id: str, entry: tuple) -> dict:
    """A journal entry back as the shard-batch op it was acked as."""
    op, process, resource, idem = entry
    message = {"op": op, "tenant": tenant_id, "process": process,
               "resource": resource}
    if idem is not None:
        # Replay re-records the key in the tenant's dedup window, so a
        # retry that arrives after recovery is still answered deduped.
        message["idem"] = idem
    return message


class ShardHandle:
    """One shard: either an in-process core or a worker process."""

    def __init__(self, service: "DetectionService", shard_id: int) -> None:
        self.service = service
        self.shard_id = shard_id
        self.alive = True
        self.core: Optional[ShardCore] = None
        self.process = None
        self.conn = None
        #: Tenant records whose ``shard_id`` is this shard.
        self.tenants = 0
        #: FIFO of (command, future, context) awaiting a reply.
        self._pending: deque = deque()
        self._oldest_sent: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def start(self) -> None:
        config = self.service.config
        if config.use_processes:
            ctx = multiprocessing.get_context()
            parent_conn, child_conn = ctx.Pipe()
            self.process = ctx.Process(
                target=shard_main,
                args=(child_conn, self.shard_id, parent_conn),
                daemon=True, name=f"repro-service-shard-{self.shard_id}")
            self.process.start()
            child_conn.close()
            self.conn = parent_conn
            asyncio.get_running_loop().add_reader(
                self.conn.fileno(), self._on_readable)
        else:
            self.core = ShardCore(self.shard_id, obs=self.service.obs)

    # -- request/reply -------------------------------------------------

    def request(self, command: str, payload: Any,
                context: Any = None) -> "asyncio.Future":
        """Send one command; the future resolves to (kind, reply)."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not self.alive:
            future.set_exception(_ShardLost(
                f"shard {self.shard_id} is down"))
            return future
        if self.core is not None:
            future.set_result(self.core.handle(command, payload))
            return future
        self._pending.append((command, future, context))
        if self._oldest_sent is None:
            self._oldest_sent = loop_time()
        try:
            self.conn.send((command, payload))
        except (BrokenPipeError, OSError):
            self.mark_dead()
        return future

    def _on_readable(self) -> None:
        try:
            while self.conn.poll():
                kind, reply = self.conn.recv()
                if self._pending:
                    _command, future, _context = self._pending.popleft()
                    if not future.done():
                        future.set_result((kind, reply))
                self._oldest_sent = loop_time() if self._pending else None
        except (EOFError, OSError):
            self.mark_dead()

    def check_hang(self) -> None:
        """Declare the shard dead when a batch is long unanswered."""
        if (self.alive and self._oldest_sent is not None
                and loop_time() - self._oldest_sent
                > self.service.config.shard_timeout):
            self.crash()

    # -- death ---------------------------------------------------------

    def crash(self) -> None:
        """Hard-stop the shard (tests and hang handling); triggers
        the same recovery path as an external SIGKILL."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.core is not None and self.alive:
            self.core = None
            self.mark_dead()

    def mark_dead(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.core = None
        if self.conn is not None:
            try:
                asyncio.get_running_loop().remove_reader(
                    self.conn.fileno())
            except (ValueError, OSError, RuntimeError):
                pass
            try:
                self.conn.close()
            except OSError:
                pass
        undelivered = list(self._pending)
        self._pending.clear()
        self._oldest_sent = None
        for _command, future, _context in undelivered:
            if not future.done():
                future.set_exception(_ShardLost(
                    f"shard {self.shard_id} died"))
        self.service._on_shard_dead(self, undelivered)

    def stop(self) -> None:
        """Orderly shutdown (no recovery)."""
        self.alive = False
        if self.conn is not None:
            try:
                asyncio.get_running_loop().remove_reader(
                    self.conn.fileno())
            except (ValueError, OSError, RuntimeError):
                pass
            try:
                self.conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
            try:
                self.conn.close()
            except OSError:
                pass
        if self.process is not None:
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=2.0)


class DetectionService:
    """The multi-tenant deadlock-detection service."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.shards < 1:
            raise ServiceError("service needs at least one shard")
        self.obs = obs if obs is not None else Observability(
            label="service", enabled=True)
        self.tenants: dict[str, _TenantRecord] = {}
        self.shards: list[ShardHandle] = []
        self._queue: list = []          # _QueuedOp, arrival order
        self._connections: set = set()  # live client _Outbox (drain)
        self._queued_ops = 0
        self._tick_handle: Optional[asyncio.TimerHandle] = None
        self._hang_timer: Optional[asyncio.TimerHandle] = None
        self._servers: list = []
        self._draining = False
        self._started = False
        #: Set once :meth:`stop` has drained and closed everything.
        self.stopped = asyncio.Event()
        metrics = self.obs.metrics
        self._c_requests = metrics.counter(
            "service.requests", "tenant operations accepted")
        self._c_granted = metrics.counter(
            "service.granted", "claims granted immediately")
        self._c_blocked = metrics.counter(
            "service.blocked", "claims queued behind a holder")
        self._c_detects = metrics.counter(
            "service.detects", "detect verdicts served")
        self._c_deadlocks = metrics.counter(
            "service.deadlocks", "detect verdicts that found deadlock")
        self._c_errors = metrics.counter(
            "service.errors", "operations answered with an error")
        self._c_admission = metrics.counter(
            "service.admission_rejected", "attaches refused at capacity")
        self._c_backpressure = metrics.counter(
            "service.backpressure_rejected",
            "operations refused by the bounded queue")
        self._c_batches = metrics.counter(
            "service.batches", "shard batches shipped")
        self._c_migrations = metrics.counter(
            "service.migrations", "live tenant migrations completed")
        self._c_crashes = metrics.counter(
            "service.shard_crashes", "shards lost and recovered")
        self._c_rebalanced = metrics.counter(
            "service.rebalanced_tenants",
            "tenants restored after a shard loss")
        self._c_replayed = metrics.counter(
            "service.journal_replayed",
            "journaled mutations replayed during recovery")
        self._c_deduped = metrics.counter(
            "service.deduped",
            "retried mutations answered from the idempotency window")
        self._c_deadline = metrics.counter(
            "service.deadline_exceeded",
            "operations shed before dispatch (deadline_ms expired)")
        self._g_tenants = metrics.gauge(
            "service.tenants", "live tenants")
        self._g_pending = metrics.gauge(
            "service.pending", "queued + in-flight operations")
        self._g_shards = metrics.gauge(
            "service.shards_alive", "shards alive")
        self._h_batch = metrics.histogram(
            "service.batch_size", "operations per shard batch")
        self._h_grant = metrics.histogram(
            "service.grant_latency_us",
            "claim accept-to-answer latency (us)")
        self._h_verdict = metrics.histogram(
            "service.verdict_latency_us",
            "detect accept-to-answer latency (us)")

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: Optional[str] = None,
                    port: Optional[int] = None,
                    unix_path: Optional[str] = None) -> None:
        """Spin up shards, listeners, and the hang check."""
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        for shard_id in range(self.config.shards):
            handle = ShardHandle(self, shard_id)
            handle.start()
            self.shards.append(handle)
        self._g_shards.set(len(self.shards))
        if host is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_connection, host=host, port=port or 0,
                limit=MAX_LINE_BYTES))
        if unix_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_connection, path=unix_path,
                limit=MAX_LINE_BYTES))
        if self.config.use_processes:
            self._check_hangs()

    @property
    def tcp_port(self) -> Optional[int]:
        for server in self._servers:
            for sock in server.sockets:
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[1]
        return None

    async def stop(self) -> None:
        """Drain: refuse new work, flush the queue, stop shards."""
        if self._draining:             # a second call waits for the first
            await self.stopped.wait()
            return
        self._draining = True
        if self._hang_timer is not None:
            self._hang_timer.cancel()
        if self._started:
            # One final drain so already-accepted ops are answered.
            self._run_tick()
        deadline = loop_time() + self.config.drain_timeout
        while (any(record.inflight for record in self.tenants.values())
               and loop_time() < deadline):
            await asyncio.sleep(0.005)
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for queued in self._queue:
            if not queued.future.done():
                queued.future.set_result(error_response(
                    queued.message, "shutting-down"))
        self._queue.clear()
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        # Graceful connection drain: every accepted op has been settled
        # (answered or refused ``shutting-down``) by now.  One loop hop
        # runs the answers' done-callbacks into the outboxes; flush
        # each, give it a moment to reach the socket, then close —
        # clients see complete answers, never a mid-line cut.
        await asyncio.sleep(0)
        for outbox in list(self._connections):
            outbox.flush()
            writer = outbox.writer
            try:
                await asyncio.wait_for(writer.drain(),
                                       self.config.drain_timeout)
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.TimeoutError):
                pass
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._connections.clear()
        for handle in self.shards:
            handle.stop()
        self.stopped.set()

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        outbox = _Outbox(writer)
        self._connections.add(outbox)
        try:
            while True:
                # Backpressure: returns at once unless the transport
                # paused on a full write buffer.
                await writer.drain()
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized line: the stream limit fired and the
                    # framing is lost — refuse and drop the connection
                    # (other clients' handlers are unaffected).
                    outbox.put(error_response(
                        None, "bad-request",
                        f"line exceeds {MAX_LINE_BYTES} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                    op = validate_request(message)
                except ServiceOpError as exc:
                    outbox.put(error_response(None, exc.code, exc.detail))
                    continue
                if op in ADMIN_OPS:
                    outbox.put(await self._admin(op, message))
                    if op == "shutdown":
                        break
                    continue
                self.submit(message).add_done_callback(outbox.answer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(outbox)
            outbox.flush()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- admission / submission ----------------------------------------

    def submit(self, message: dict) -> "asyncio.Future":
        """Queue one validated tenant op; resolves to its response."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        op = message["op"]
        tenant_id = message["tenant"]
        if self._draining:
            future.set_result(error_response(message, "shutting-down"))
            return future
        if op == "attach":
            record = self._admit(message, future)
            if record is None:
                return future
        else:
            record = self.tenants.get(tenant_id)
            if record is None:
                self._c_errors.inc()
                future.set_result(error_response(
                    message, "unknown-tenant",
                    f"tenant {tenant_id!r} is not attached"))
                return future
            if (self._queued_ops >= self.config.max_pending
                    or record.outstanding
                    >= self.config.max_pending_per_tenant):
                self._c_backpressure.inc()
                future.set_result(error_response(
                    message, "backpressure",
                    "bounded queue full; back off and retry"))
                return future
        queued = _QueuedOp(message, future, loop_time())
        record.outstanding += 1
        self._queued_ops += 1
        self._g_pending.set(self._queued_ops)
        self._c_requests.inc()
        if record.migrating:
            record.held.append(queued)
        else:
            self._queue.append(queued)
            self._arm_tick()
        return future

    def _admit(self, message: dict,
               future: "asyncio.Future") -> Optional[_TenantRecord]:
        """A provisional record for the new tenant (the shard builds
        it), or None with ``future`` answered."""
        tenant_id = message["tenant"]
        existing = self.tenants.get(tenant_id)
        if existing is not None:
            idem = message.get("idem")
            if idem is not None and idem == existing.attach_idem:
                # A retried attach whose first try's ack was lost on
                # the wire: replay the recorded answer — or, if the
                # original is still in flight, ask for a later retry.
                if existing.attach_response is not None:
                    self._c_deduped.inc()
                    future.set_result(ok_response(
                        message, deduped=True,
                        **existing.attach_response))
                else:
                    self._c_backpressure.inc()
                    future.set_result(error_response(
                        message, "backpressure",
                        "attach still in flight; retry"))
                return None
            self._c_errors.inc()
            future.set_result(error_response(
                message, "duplicate-tenant",
                f"tenant {tenant_id!r} is already attached"))
            return None
        if len(self.tenants) >= self.config.max_tenants:
            self._c_admission.inc()
            if self.obs.flight.enabled:
                self.obs.flight.mark(
                    "tenant_admission_rejected", actor="service",
                    tenant=tenant_id, tenants=len(self.tenants),
                    max_tenants=self.config.max_tenants)
            future.set_result(error_response(
                message, "admission-rejected",
                f"tenant table full ({self.config.max_tenants})"))
            return None
        handle = self._least_loaded_shard()
        if handle is None:
            future.set_result(error_response(
                message, "internal", "no shard alive"))
            return None
        record = _TenantRecord(tenant_id, handle.shard_id, {
            key: message[key] for key in _BASE_FIELDS if key in message})
        record.attach_idem = message.get("idem")
        self.tenants[tenant_id] = record
        handle.tenants += 1
        self._g_tenants.set(len(self.tenants))
        return record

    def _least_loaded_shard(self) -> Optional[ShardHandle]:
        alive = [handle for handle in self.shards if handle.alive]
        if not alive:
            return None
        return min(alive, key=lambda handle: (handle.tenants,
                                              handle.shard_id))

    def _place(self, record: _TenantRecord, shard_id: int) -> None:
        """Move a tenant record onto ``shard_id`` (keeps the counts)."""
        self.shards[record.shard_id].tenants -= 1
        self.shards[shard_id].tenants += 1
        record.shard_id = shard_id

    def _drop(self, record: _TenantRecord) -> None:
        """Remove a tenant record from the table (keeps the counts)."""
        if self.tenants.get(record.tenant_id) is record:
            del self.tenants[record.tenant_id]
            self.shards[record.shard_id].tenants -= 1
            self._g_tenants.set(len(self.tenants))

    # -- the tick ------------------------------------------------------

    def _arm_tick(self) -> None:
        """Schedule the tick for the op just queued, unless one is."""
        if self._tick_handle is None:
            self._tick_handle = asyncio.get_running_loop().call_later(
                self.config.tick_interval, self._run_tick)

    def _check_hangs(self) -> None:
        self._hang_timer = asyncio.get_running_loop().call_later(
            _HANG_CHECK_INTERVAL, self._check_hangs)
        for handle in self.shards:
            handle.check_hang()

    def _run_tick(self) -> None:
        """Drain the queue into one ``batch`` per shard."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        queue, self._queue = self._queue, []
        batches: dict[int, list] = {}
        now = loop_time()
        for queued in queue:
            deadline_ms = queued.message.get("deadline_ms")
            if (deadline_ms is not None
                    and now - queued.enqueued > deadline_ms / 1000.0):
                # Shed *before* dispatch only: a shed mutation was
                # definitely never applied, so the client may retry it
                # with the same idempotency key at no risk.
                self._shed(queued)
                continue
            record = self.tenants.get(queued.message["tenant"])
            if record is None:
                # Detached (or dropped by a failed attach) in between.
                self._settle(queued, error_response(
                    queued.message, "unknown-tenant"))
                continue
            batches.setdefault(record.shard_id, []).append(queued)
            record.inflight += 1
        for shard_id, batch in batches.items():
            if not self.shards[shard_id].alive:
                # Recovery rehomes a dead shard's tenants while any
                # shard lives, so only a dead pool lands here.
                self._lose(batch)
                continue
            ops = [queued.message for queued in batch]
            self._c_batches.inc()
            self._h_batch.observe(len(ops))
            future = self.shards[shard_id].request("batch", ops,
                                                   context=batch)
            future.add_done_callback(
                functools.partial(self._finish_batch, batch))

    def _shed(self, queued: _QueuedOp) -> None:
        """Answer ``deadline-exceeded`` for an op that sat out its
        budget in the queue (never dispatched)."""
        message = queued.message
        self._c_deadline.inc()
        self._c_errors.inc()
        self._fail_attach(message)
        self._settle(queued, error_response(
            message, "deadline-exceeded",
            f"not dispatched within {message.get('deadline_ms')}ms"))

    def _finish_batch(self, batch: list, future) -> None:
        try:
            kind, replies = future.result()
        except _ShardLost:
            return                     # recovery requeues the batch
        if kind != "results":
            for queued in batch:
                self._c_errors.inc()
                self._fail_attach(queued.message)
                self._settle(queued, error_response(
                    queued.message, "internal", str(replies)))
            return
        refresh: set = set()
        now = loop_time()
        for queued, response in zip(batch, replies):
            message = queued.message
            record = self.tenants.get(message["tenant"])
            if record is not None:
                record.inflight = max(0, record.inflight - 1)
            if response.get("ok"):
                op = message["op"]
                if op == "attach":
                    if record is not None and record.attach_idem is not None:
                        record.attach_response = {
                            key: value for key, value in response.items()
                            if key not in ("ok", "id")}
                elif (op in MUTATING_OPS and record is not None
                        and response.get("deduped")):
                    # Replayed from the idempotency window: nothing was
                    # applied, so journaling it again would double-apply
                    # on crash replay.  (Defense in depth — the tenant
                    # dedups journal replay too, since journal entries
                    # carry their ``idem`` keys.)
                    self._c_deduped.inc()
                elif op in MUTATING_OPS and record is not None:
                    # A refresh that ran after this batch reached the
                    # shard already holds the mutation.
                    if response["op_seq"] > record.base_seq:
                        record.journal.append(_journal_entry(message))
                    if (len(record.journal)
                            >= self.config.snapshot_every):
                        refresh.add(record.tenant_id)
                    if op == "claim":
                        if response.get("granted"):
                            self._c_granted.inc()
                        else:
                            self._c_blocked.inc()
                        self._h_grant.observe(
                            (now - queued.enqueued) * 1e6)
                elif op == "detect":
                    self._c_detects.inc()
                    if response.get("deadlock"):
                        self._c_deadlocks.inc()
                    self._h_verdict.observe(
                        (now - queued.enqueued) * 1e6)
                elif op == "detach" and record is not None:
                    self._drop(record)
            else:
                self._c_errors.inc()
                self._fail_attach(message)
            self._settle(queued, response)
        for tenant_id in refresh:
            asyncio.ensure_future(self._refresh_snapshot(tenant_id))

    def _lose(self, batch: list) -> None:
        """Answer ``shard-lost`` to ops that no live shard can take."""
        for queued in batch:
            record = self.tenants.get(queued.message["tenant"])
            if record is not None:
                record.inflight = max(0, record.inflight - 1)
            self._c_errors.inc()
            self._fail_attach(queued.message)
            self._settle(queued, error_response(
                queued.message, "shard-lost",
                "no shard alive to recover onto"))

    def _fail_attach(self, message: dict) -> None:
        """Drop the provisional record of an attach that was refused."""
        if message["op"] == "attach":
            record = self.tenants.get(message["tenant"])
            if record is not None and record.attach_response is None:
                self._drop(record)

    def _settle(self, queued: _QueuedOp, response: dict) -> None:
        record = self.tenants.get(queued.message["tenant"])
        if record is not None:
            record.outstanding = max(0, record.outstanding - 1)
        self._queued_ops = max(0, self._queued_ops - 1)
        self._g_pending.set(self._queued_ops)
        if not queued.future.done():
            queued.future.set_result(response)

    async def _refresh_snapshot(self, tenant_id: str) -> None:
        record = self.tenants.get(tenant_id)
        if record is None or record.migrating:
            return
        handle = self.shards[record.shard_id]
        try:
            kind, envelope = await handle.request("snapshot", tenant_id)
        except _ShardLost:
            return
        if kind != "snapshot":
            return                     # keep the older snapshot
        # Batches dispatched after the refresh was scheduled are in the
        # snapshot too, acked or not, so only op_seq says how much of
        # the journal it covers.
        if envelope["state"]["op_seq"] >= record.base_seq:
            record.rebase(envelope)    # else keep the newer base

    # -- shard loss recovery -------------------------------------------

    def _on_shard_dead(self, handle: ShardHandle,
                       undelivered: list) -> None:
        self._c_crashes.inc()
        self._g_shards.set(sum(1 for h in self.shards if h.alive))
        moved = [record for record in self.tenants.values()
                 if record.shard_id == handle.shard_id]
        if self.obs.flight.enabled:
            self.obs.flight.mark(
                "shard_rebalance", actor="service",
                shard=handle.shard_id, tenants=len(moved))
        # Re-queue the operations that died with the shard, in order,
        # ahead of everything queued since.
        requeue: list = []
        for _command, _future, context in undelivered:
            if context:
                requeue.extend(context)
        for record in moved:
            record.inflight = 0
            target = self._least_loaded_shard()
            if target is None:
                self._lose(requeue)
                return
            self._place(record, target.shard_id)
            self._c_rebalanced.inc()
            if record.journal:
                self._c_replayed.inc(len(record.journal))
            target.request("batch", [record.base] + [
                _replay_message(record.tenant_id, entry)
                for entry in record.journal])
        self._queue[:0] = requeue
        if self._queue:
            self._arm_tick()

    # -- migration -----------------------------------------------------

    async def migrate(self, tenant_id: str, target_shard: int) -> dict:
        """Move one tenant live; digest-equivalent before and after."""
        record = self.tenants.get(tenant_id)
        if record is None:
            raise ServiceOpError("unknown-tenant",
                                 f"tenant {tenant_id!r} is not attached")
        if not (0 <= target_shard < len(self.shards)):
            raise ServiceOpError("bad-request",
                                 f"no shard {target_shard}")
        target = self.shards[target_shard]
        if not target.alive:
            raise ServiceOpError("shard-lost",
                                 f"shard {target_shard} is down")
        if any(queued.message["tenant"] == tenant_id
               for queued in self._queue):
            # What was queued before the migrate (its attach, say)
            # reaches the current shard first; later ops are held.
            self._run_tick()
        if record.migrating:
            raise ServiceOpError("bad-request",
                                 f"tenant {tenant_id!r} is already "
                                 "migrating")
        record.migrating = True
        try:
            # Quiesce: new ops are held, dispatched ones are waited out
            # (one of them may be a refused attach that drops the record).
            while record.inflight:
                await asyncio.sleep(_QUIESCE_POLL)
            if self.tenants.get(tenant_id) is not record:
                raise ServiceOpError("unknown-tenant",
                                     f"tenant {tenant_id!r} is not attached")
            source = self.shards[record.shard_id]
            kind, envelope = await source.request("snapshot", tenant_id)
            if kind != "snapshot":
                raise ServiceOpError("internal",
                                     f"snapshot failed: {envelope}")
            if source is target:
                # Already there — e.g. a retried migrate whose first
                # reply was lost in flight.  Still answer with the live
                # digest so the caller can verify state regardless of
                # which attempt actually moved the tenant.
                return {"tenant": tenant_id, "shard": target_shard,
                        "moved": False,
                        "state_hash": envelope["state_hash"]}
            # The quiesced snapshot covers the whole journal.
            record.rebase(envelope)
            kind, replies = await target.request("batch", [record.base])
            if kind != "results" or not replies[0]["ok"]:
                raise ServiceOpError("internal",
                                     f"restore failed: {replies}")
            reply = replies[0]
            if reply["state_hash"] != envelope["state_hash"]:
                raise ServiceOpError(
                    "internal",
                    "migration digest mismatch: "
                    f"{reply['state_hash'][:12]} != "
                    f"{envelope['state_hash'][:12]}")
            await source.request("drop", tenant_id)
            source_shard = record.shard_id
            self._place(record, target_shard)
            self._c_migrations.inc()
            if self.obs.flight.enabled:
                self.obs.flight.mark(
                    "tenant_migration", actor="service",
                    tenant=tenant_id, source=source_shard,
                    target=target_shard,
                    state_hash=envelope["state_hash"][:12])
            return {"tenant": tenant_id, "shard": target_shard,
                    "moved": True,
                    "state_hash": envelope["state_hash"]}
        except _ShardLost as exc:
            raise ServiceOpError("shard-lost", str(exc)) from exc
        finally:
            record.migrating = False
            if record.held:
                self._queue.extend(record.held)
                record.held = []
                self._arm_tick()

    async def rebalance(self) -> dict:
        """Even tenant counts across live shards via live migrations."""
        moves = 0
        while True:
            alive = [handle for handle in self.shards if handle.alive]
            if len(alive) < 2:
                break
            counts = sorted(alive, key=lambda h: h.tenants)
            emptiest, fullest = counts[0], counts[-1]
            if fullest.tenants - emptiest.tenants <= 1:
                break
            tenant_id = next(
                record.tenant_id for record in self.tenants.values()
                if record.shard_id == fullest.shard_id
                and not record.migrating)
            await self.migrate(tenant_id, emptiest.shard_id)
            moves += 1
        return {"moves": moves}

    # -- admin ---------------------------------------------------------

    async def _admin(self, op: str, message: dict) -> dict:
        try:
            if op == "ping":
                return ok_response(message, protocol=PROTOCOL_VERSION,
                                   server="repro.service")
            if op == "stats":
                return ok_response(message, **self.stats())
            if op == "shards":
                entries = []
                for handle in self.shards:
                    entry = {"shard": handle.shard_id,
                             "alive": handle.alive,
                             "pid": handle.pid,
                             "tenants": handle.tenants}
                    if handle.alive:
                        # Surface the shard core's reduction tallies
                        # (dirty/skipped detects), so the incremental
                        # tick path is observable end to end.
                        try:
                            kind, reply = await handle.request("ping",
                                                               None)
                        except _ShardLost:
                            kind, reply = "error", None
                        if kind == "ok" and isinstance(reply, dict):
                            entry.update({
                                key: reply[key] for key in (
                                    "ops", "deduped", "batches",
                                    "detect_batches", "dirty_tenants",
                                    "skipped_detects")
                                if key in reply})
                    entries.append(entry)
                return ok_response(message, shards=entries)
            if op == "migrate":
                result = await self.migrate(str(message.get("tenant")),
                                            int(message.get("shard", -1)))
                return ok_response(message, **result)
            if op == "rebalance":
                return ok_response(message, **(await self.rebalance()))
            if op == "shutdown":
                asyncio.get_running_loop().call_soon(
                    asyncio.ensure_future, self.stop())
                return ok_response(message, stopping=True)
            raise ServiceOpError("bad-request", f"unknown admin {op!r}")
        except ServiceOpError as exc:
            self._c_errors.inc()
            return error_response(message, exc.code, exc.detail)

    def stats(self) -> dict:
        """The ``stats`` payload: population, counters, latencies."""
        def _percentiles(histogram) -> dict:
            if histogram.count == 0:
                return {"count": 0}
            return {"count": histogram.count,
                    "mean_us": histogram.mean,
                    "p50_us": histogram.percentile(50),
                    "p99_us": histogram.percentile(99)}
        return {
            "tenants": len(self.tenants),
            "pending": self._queued_ops,
            "shards": [{"shard": handle.shard_id,
                        "alive": handle.alive,
                        "tenants": handle.tenants}
                       for handle in self.shards],
            "requests": self._c_requests.value,
            "granted": self._c_granted.value,
            "blocked": self._c_blocked.value,
            "detects": self._c_detects.value,
            "deadlocks": self._c_deadlocks.value,
            "errors": self._c_errors.value,
            "admission_rejected": self._c_admission.value,
            "backpressure_rejected": self._c_backpressure.value,
            "batches": self._c_batches.value,
            "migrations": self._c_migrations.value,
            "shard_crashes": self._c_crashes.value,
            "rebalanced_tenants": self._c_rebalanced.value,
            "journal_replayed": self._c_replayed.value,
            "deduped": self._c_deduped.value,
            "deadline_exceeded": self._c_deadline.value,
            "grant_latency": _percentiles(self._h_grant),
            "verdict_latency": _percentiles(self._h_verdict),
        }

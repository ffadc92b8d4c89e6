"""Worker shards: apply op batches, reduce detects incrementally.

A :class:`ShardCore` owns a slice of the tenant population and speaks a
tiny command protocol — ``batch`` / ``snapshot`` / ``drop`` / ``ping`` /
``stop``.  The front end groups each tick's operations by shard and
ships one ``batch`` per shard; the core applies them *in arrival order*
and then answers every ``detect`` in the batch.  A verdict reflects
every mutation accepted earlier in the same tick (*tick-consistent
detection*); it carries the tenant's ``op_seq`` so callers know exactly
which prefix it covers.

The shard builds each tenant from a batch op — ``attach`` (the
request's construction fields) or ``restore`` (a snapshot
``envelope``) — and answers ``{attached, m, n, shard, state_hash}``.

Detection is **incremental**:

* verdicts are cached per tenant keyed on object identity and
  ``op_seq`` — a detect for a tenant that has not mutated since its
  last verdict is answered from the cache without a reduction;
* only *dirty* tenants (mutated, or never reduced) enter each tick's
  reduction: :func:`~repro.rag.batch.batched_reduce`, a loop of copy
  and :meth:`~repro.rag.bitmatrix.BitMatrix.reduce` per tenant.

The ``matrix.batch.dirty_tenants`` / ``matrix.batch.skipped``
observability counters (plus per-shard tallies in the ``ping`` reply)
attribute the win; the profiler annotates them via its
``matrix.batch.`` prefix.

:func:`shard_main` wraps the core behind a
:class:`multiprocessing.connection.Connection` for process-backed
shards (the deployment ``service.shard-kill`` SIGKILLs); the server
can also run cores in-process for tests and campaign scenarios.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.obs import NULL_OBS
from repro.rag.batch import batched_reduce
from repro.rag.bitmatrix import BitMatrix
from repro.service.protocol import ServiceOpError, error_response, ok_response
from repro.service.tenant import Tenant


class _CachedVerdict:
    """One tenant's last reduction, valid while its ``op_seq`` holds.

    ``tenant`` is kept for an *identity* check: attach/restore
    replaces the Tenant object, so a stale cache entry can never match
    a rebuilt tenant even if the op_seq coincides.  ``deadlocked``
    names the processes left in the residual, lowest column first,
    computed once per reduction rather than once per detect.
    """

    __slots__ = ("tenant", "op_seq", "deadlock", "iterations", "passes",
                 "deadlocked", "batched")

    def __init__(self, tenant: Tenant, deadlock: bool, iterations: int,
                 passes: int, residual: BitMatrix, batched: int) -> None:
        self.tenant = tenant
        self.op_seq = tenant.op_seq
        self.deadlock = deadlock
        self.iterations = iterations
        self.passes = passes
        names = residual.process_names
        self.deadlocked = [names[t] for t in residual.nonempty_columns()]
        self.batched = batched

    def valid_for(self, tenant: Tenant) -> bool:
        return self.tenant is tenant and self.op_seq == tenant.op_seq


class ShardCore:
    """The shard state machine, transport-agnostic and synchronous."""

    def __init__(self, shard_id: int, obs=None) -> None:
        self.shard_id = shard_id
        self.obs = obs if obs is not None else NULL_OBS
        self.tenants: dict[str, Tenant] = {}
        self.ops_applied = 0
        #: Mutations answered from a tenant's idempotency window
        #: instead of re-applied (retried over a lossy wire).
        self.deduped = 0
        self.batches = 0
        #: Reductions actually run (cache hits answer without one).
        self.detect_batches = 0
        #: Tenants that re-entered a reduction because they mutated.
        self.dirty_reduced = 0
        #: Detect queries answered from the cached verdict.
        self.detects_skipped = 0
        self._verdicts: dict[str, _CachedVerdict] = {}
        metrics = self.obs.metrics
        self._c_dirty = metrics.counter(
            "matrix.batch.dirty_tenants",
            "tenants re-reduced because their RAG mutated")
        self._c_skipped = metrics.counter(
            "matrix.batch.skipped",
            "detects answered from the cached verdict, no reduction")

    # -- command handlers ----------------------------------------------

    def handle(self, command: str, payload: Any) -> tuple[str, Any]:
        """Dispatch one command; always returns a reply tuple."""
        try:
            if command == "batch":
                return "results", self.handle_batch(payload)
            if command == "snapshot":
                return "snapshot", self.snapshot_tenant(payload)
            if command == "drop":
                if self.tenants.pop(payload, None) is not None:
                    self._verdicts.pop(payload, None)
                return "ok", {"tenants": len(self.tenants)}
            if command == "ping":
                return "ok", {
                    "shard": self.shard_id,
                    "tenants": len(self.tenants),
                    "ops": self.ops_applied,
                    "deduped": self.deduped,
                    "batches": self.batches,
                    "detect_batches": self.detect_batches,
                    "dirty_tenants": self.dirty_reduced,
                    "skipped_detects": self.detects_skipped,
                }
            raise ReproError(f"unknown shard command {command!r}")
        except ReproError as exc:
            return "error", str(exc)

    def handle_batch(self, ops: list) -> list:
        """Apply one tick's ops in order; batch the detects at the end."""
        self.batches += 1
        responses: list = [None] * len(ops)
        detect_slots: dict[str, list[int]] = {}
        for index, op in enumerate(ops):
            name = op["op"]
            if name in ("attach", "restore"):
                responses[index] = self._build(op)
                continue
            try:
                tenant = self.tenants.get(op.get("tenant", ""))
                if tenant is None:
                    raise ServiceOpError(
                        "unknown-tenant",
                        f"tenant {op.get('tenant')!r} not on shard "
                        f"{self.shard_id}")
                if name == "detect":
                    detect_slots.setdefault(tenant.tenant_id,
                                            []).append(index)
                elif name in ("claim", "release"):
                    result = (tenant.claim(op) if name == "claim"
                              else tenant.release(op))
                    responses[index] = ok_response(op, **result)
                    if result.get("deduped"):
                        # Idempotent replay: answered from the dedup
                        # window, nothing mutated.
                        self.deduped += 1
                    else:
                        self.ops_applied += 1
                elif name == "detach":
                    self.tenants.pop(tenant.tenant_id)
                    self._verdicts.pop(tenant.tenant_id, None)
                    responses[index] = ok_response(op, detached=True)
                else:
                    raise ServiceOpError("bad-request",
                                         f"shard cannot apply {name!r}")
            except ServiceOpError as exc:
                responses[index] = error_response(op, exc.code,
                                                  exc.detail)
        if detect_slots:
            self._run_detects(ops, responses, detect_slots)
        return responses

    # -- detection -----------------------------------------------------

    def _run_detects(self, ops: list, responses: list,
                     detect_slots: dict) -> None:
        """Answer every detect; reduce only the dirty tenants."""
        tenant_ids = sorted(detect_slots)
        fresh = [tid for tid in tenant_ids
                 if not (cached := self._verdicts.get(tid))
                 or not cached.valid_for(self.tenants[tid])]
        skipped = len(tenant_ids) - len(fresh)
        if skipped:
            self.detects_skipped += skipped
            self._c_skipped.inc(skipped)
        if fresh:
            self.detect_batches += 1
            self.dirty_reduced += len(fresh)
            self._c_dirty.inc(len(fresh))
            results = batched_reduce([self.tenants[tid].matrix
                                      for tid in fresh])
            for tid, (deadlock, iterations, passes, residual) in zip(
                    fresh, results):
                self._verdicts[tid] = _CachedVerdict(
                    self.tenants[tid], deadlock, iterations, passes,
                    residual, len(fresh))
        for tid in tenant_ids:
            tenant = self.tenants[tid]
            cached = self._verdicts[tid]
            payload = tenant.detect_payload(
                cached.deadlock, cached.iterations, cached.passes,
                cached.deadlocked, batched=cached.batched)
            for index in detect_slots[tid]:
                responses[index] = ok_response(ops[index], **payload)

    # -- tenant movement -----------------------------------------------

    def snapshot_tenant(self, tenant_id: str) -> dict:
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise ServiceOpError("unknown-tenant",
                                 f"tenant {tenant_id!r} not on shard "
                                 f"{self.shard_id}")
        return tenant.snapshot_state()

    def _build(self, op: dict) -> dict:
        """Answer an ``attach``/``restore`` op; a tenant that cannot be
        built fails this op alone, never the batch or the shard (nor the
        survivor a crash replays the op onto)."""
        try:
            tenant = (Tenant.from_attach(op["tenant"], op)
                      if op["op"] == "attach"
                      else Tenant.restore_state(op["envelope"]))
        except ServiceOpError as exc:
            return error_response(op, exc.code, exc.detail)
        except Exception as exc:       # noqa: BLE001 - see docstring
            return error_response(op, "internal",
                                  f"cannot build tenant: {exc!r}")
        return ok_response(op, **self._install(tenant))

    def _install(self, tenant: Tenant) -> dict:
        """Place a freshly built tenant; the ``attach``/``restore`` reply."""
        # A rebuilt tenant is a new object: drop the cached verdict so
        # nothing stale can ever answer for it.
        self._verdicts.pop(tenant.tenant_id, None)
        self.tenants[tenant.tenant_id] = tenant
        return {"attached": True, "m": tenant.matrix.m,
                "n": tenant.matrix.n, "shard": self.shard_id,
                "state_hash": tenant.snapshot_state()["state_hash"]}


def shard_main(conn, shard_id: int, front) -> None:
    """Run a :class:`ShardCore` over a duplex Connection until EOF.

    The loop is deliberately boring: one request, one reply, FIFO — the
    front end relies on reply ordering to match futures to commands.
    A SIGKILL here is exactly the crash the parent's snapshot+journal
    recovery absorbs.  ``front`` is the front end's end of the pipe,
    which a forked shard inherits; it is closed first, so that the
    shard sees EOF, and exits, once the front end is gone, killed too.
    """
    front.close()
    core = ShardCore(shard_id)
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            return
        if command == "stop":
            try:
                conn.send(("ok", {"stopped": True}))
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            conn.send(core.handle(command, payload))
        except (BrokenPipeError, OSError):
            return

"""The service wire protocol: newline-delimited JSON requests.

One request per line, one response per line.  Every request carries an
``op`` and (for tenant ops) a ``tenant``; an optional ``id`` is echoed
back verbatim so clients may pipeline.  Responses are ``{"id": ...,
"ok": true, ...payload}`` or ``{"id": ..., "ok": false, "error":
"<code>", "detail": "..."}``.

Tenant operations (batched per tick, see :mod:`repro.service.server`):

=========  ============================================================
op         fields
=========  ============================================================
attach     ``m``/``n`` dims, or ``rows`` (text rows), or ``seed`` (+
           optional ``grant_fraction``/``request_fraction``) for a
           server-side :func:`~repro.rag.generate.random_bitmatrix`
claim      ``process``, ``resource`` — grant if free, else queue the
           request edge (response: ``granted``/``blocked``)
release    ``process``, ``resource`` — free the grant; the
           lowest-index waiter is promoted deterministically
detect     batched Algorithm-1 verdict (``deadlock``, ``iterations``,
           ``passes``, ``deadlocked_processes``, ``op_seq``)
detach     drop the tenant
=========  ============================================================

Admin/introspection ops (answered immediately, never queued): ``ping``,
``stats``, ``shards``, ``migrate`` (``tenant``, ``shard``),
``rebalance``, ``shutdown``.

Protocol v2 adds two optional request fields for resilient clients:

* ``deadline_ms`` — a relative per-request budget; the server sheds an
  op it cannot dispatch within the budget with ``deadline-exceeded``
  instead of serving a stale answer (shedding only happens *before*
  dispatch, so a shed mutation was definitely not applied);
* ``idem`` — an idempotency key on ``claim``/``release`` (and
  ``attach``); a retry carrying the same key is answered from the
  per-tenant dedup window instead of being applied twice.

Error codes are stable strings (:data:`ERROR_CODES`); ``backpressure``
and ``admission-rejected`` are the bounded-queue / capacity responses a
well-behaved client backs off on.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

from repro.errors import ServiceError

#: Bumped on any incompatible wire change; echoed by ``ping``.
#: v2: optional ``deadline_ms``/``idem`` request fields (both ignored
#: harmlessly by a v1 server, so v1 clients interoperate unchanged).
PROTOCOL_VERSION = 2

#: Longest accepted wire line (requests *and* responses).  Anything
#: longer is a framing error: the line is refused with ``bad-request``
#: and the connection is closed, because the remainder of the oversized
#: line would otherwise be misparsed as new messages.
MAX_LINE_BYTES = 1_048_576

#: Ops that mutate or read one tenant and ride the per-tick batches.
TENANT_OPS = frozenset(("attach", "claim", "release", "detect", "detach"))

#: Ops the front end answers immediately.
ADMIN_OPS = frozenset(("ping", "stats", "shards", "migrate", "rebalance",
                       "shutdown"))

#: Tenant ops that change matrix state (journaled for crash recovery).
MUTATING_OPS = frozenset(("claim", "release"))

#: Stable error codes.
ERROR_CODES = frozenset((
    "bad-request",          # malformed JSON / missing or unknown fields
    "unknown-tenant",       # tenant id not attached
    "duplicate-tenant",     # attach over a live tenant id
    "admission-rejected",   # tenant table full
    "backpressure",         # bounded queue full; retry later
    "protocol-violation",   # op violates the resource protocol
    "shard-lost",           # shard died and the op could not be replayed
    "shutting-down",        # server is draining
    "deadline-exceeded",    # op shed: could not dispatch within deadline_ms
    "internal",             # unexpected server-side failure
))


class ServiceOpError(ServiceError):
    """A per-operation failure with a stable wire code."""

    def __init__(self, code: str, detail: str = "") -> None:
        if code not in ERROR_CODES:
            raise ServiceError(f"unknown service error code {code!r}")
        super().__init__(detail or code)
        self.code = code
        self.detail = detail


def loop_time() -> float:
    """The running event loop's clock: the one clock every service
    deadline, timeout and latency reads, server and client alike."""
    return asyncio.get_running_loop().time()


def encode_message(message: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one wire line; raises :class:`ServiceOpError` on bad input.

    Every malformed shape a hostile or chaos-mangled peer can produce —
    truncated JSON, corrupt (non-UTF-8) bytes, oversized lines, scalars
    instead of objects — maps to the stable ``bad-request`` code; the
    caller decides whether the connection can keep its framing.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ServiceOpError(
            "bad-request",
            f"line of {len(line)} bytes exceeds {MAX_LINE_BYTES}")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceOpError("bad-request",
                             f"request is not valid JSON: {exc}") from exc
    except (UnicodeDecodeError, ValueError) as exc:
        # json.loads raises a bare UnicodeDecodeError (not a
        # JSONDecodeError) on corrupt UTF-8 — chaos bit-flips land here.
        raise ServiceOpError("bad-request",
                             f"request is not decodable: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceOpError(
            "bad-request",
            f"request must be a JSON object, got {type(message).__name__}")
    return message


def validate_request(message: dict) -> str:
    """Check the ``op``/``tenant``/v2-field shape; returns the op name."""
    op = message.get("op")
    if not isinstance(op, str):
        raise ServiceOpError("bad-request", "request needs a string 'op'")
    if op not in TENANT_OPS and op not in ADMIN_OPS:
        raise ServiceOpError(
            "bad-request", f"unknown op {op!r}; tenant ops: "
            f"{sorted(TENANT_OPS)}, admin ops: {sorted(ADMIN_OPS)}")
    if op in TENANT_OPS:
        tenant = message.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ServiceOpError(
                "bad-request", f"op {op!r} needs a non-empty 'tenant'")
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is not None:
        if (isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0):
            raise ServiceOpError(
                "bad-request",
                f"'deadline_ms' must be a positive number, "
                f"got {deadline_ms!r}")
    idem = message.get("idem")
    if idem is not None:
        if not isinstance(idem, str) or not idem or len(idem) > 256:
            raise ServiceOpError(
                "bad-request",
                "'idem' must be a non-empty string of <= 256 chars")
    return op


def ok_response(request: Optional[dict] = None, **payload: Any) -> dict:
    response = {"ok": True, **payload}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response


def error_response(request: Optional[dict], code: str,
                   detail: str = "") -> dict:
    if code not in ERROR_CODES:
        raise ServiceError(f"unknown service error code {code!r}")
    response = {"ok": False, "error": code}
    if detail:
        response["detail"] = detail
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response

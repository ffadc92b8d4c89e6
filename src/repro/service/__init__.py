"""repro.service — multi-tenant async deadlock-detection service.

The paper's DDU serves one kernel; this package serves *populations*:
an asyncio front end multiplexes thousands of tenants — each a
(tasks x resources) RAG instance — over a pool of worker shards, and
each tick's ``detect`` requests are answered together: one
Algorithm-1 reduction (``BitMatrix.reduce``) per tenant whose state
moved since its last verdict, the rest from a verdict cache (see
:mod:`repro.rag.batch`).  See ``docs/service.md`` for the wire
protocol, batching-tick semantics, backpressure, and live migration.

Layering:

* :mod:`repro.service.protocol` — newline-delimited JSON wire format,
  stable error codes;
* :mod:`repro.service.tenant` — per-tenant matrix + deterministic
  claim/release policy + checkpoint envelopes;
* :mod:`repro.service.shard` — the worker state machine (in-process or
  behind a ``multiprocessing`` pipe);
* :mod:`repro.service.server` — admission control, tick batching,
  journal-backed crash recovery, live migration;
* :mod:`repro.service.client` — a pipelined asyncio client, plus the
  retrying/reconnecting :class:`ResilientServiceClient`;
* :mod:`repro.service.chaos` — a deterministic fault-injecting wire
  proxy (:class:`ChaosTransport`) driven by replayable
  :class:`NetFaultPlan`\\ s.

``python -m repro.service`` starts a server.
"""

from importlib import import_module

#: Where each exported name lives.  The names resolve on first access
#: (PEP 562), so ``python -m repro.service`` loads neither the client
#: nor the chaos proxy, nor the fault and deadlock-unit packages the
#: resilient client pulls in.
_EXPORTS = {
    "repro.service.protocol": ("ADMIN_OPS", "ERROR_CODES", "MAX_LINE_BYTES",
                               "MUTATING_OPS", "PROTOCOL_VERSION",
                               "TENANT_OPS", "ServiceOpError",
                               "decode_line", "encode_message",
                               "error_response", "ok_response",
                               "validate_request"),
    "repro.service.tenant": ("IDEM_WINDOW", "MAX_TENANT_SIDE",
                             "SNAPSHOT_KIND", "Tenant"),
    "repro.service.shard": ("ShardCore", "shard_main"),
    "repro.service.server": ("DetectionService", "ServiceConfig",
                             "ShardHandle"),
    "repro.service.client": ("CircuitOpenError", "IDEMPOTENT_OPS",
                             "RETRYABLE_CODES", "ResilientServiceClient",
                             "RetryPolicy", "ServiceClient"),
    "repro.service.chaos": ("NET_FAULT_KINDS", "ChaosTransport",
                            "NetFaultPlan", "NetFaultSpec"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "TENANT_OPS",
    "ADMIN_OPS",
    "MUTATING_OPS",
    "ERROR_CODES",
    "ServiceOpError",
    "encode_message",
    "decode_line",
    "validate_request",
    "ok_response",
    "error_response",
    "Tenant",
    "MAX_TENANT_SIDE",
    "SNAPSHOT_KIND",
    "IDEM_WINDOW",
    "ShardCore",
    "shard_main",
    "DetectionService",
    "ServiceConfig",
    "ShardHandle",
    "ServiceClient",
    "ResilientServiceClient",
    "RetryPolicy",
    "CircuitOpenError",
    "RETRYABLE_CODES",
    "IDEMPOTENT_OPS",
    "ChaosTransport",
    "NetFaultPlan",
    "NetFaultSpec",
    "NET_FAULT_KINDS",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value

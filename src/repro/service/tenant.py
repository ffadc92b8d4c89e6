"""Per-tenant state: one (tasks x resources) RAG instance.

A :class:`Tenant` wraps a :class:`~repro.rag.bitmatrix.BitMatrix` (the
fast backend, always — the shard reduces a copy of it) plus the
operation counters the service reports.  Grant policy is deliberately
simple and *derivable from the matrix alone* so a snapshot needs no
auxiliary queue state:

* ``claim(p, q)`` grants immediately iff resource ``q`` is free,
  otherwise records the request edge (the claim is *blocked*);
* ``release(p, q)`` frees the grant and promotes the **lowest-index**
  waiting process — deterministic, so a migrated tenant and its
  unmigrated twin promote identically.

``op_seq`` counts accepted mutations; detect verdicts echo it so an
oracle can replay exactly the prefix a verdict reflects (the campaign's
service checkers do).

Mutations may carry an ``idem`` idempotency key (protocol v2): the
tenant keeps a bounded window of the last :data:`IDEM_WINDOW` applied
keys with their recorded responses, and a retry carrying a seen key is
answered from the window *without touching the matrix* — the
exactly-once contract resilient clients rely on when a response line is
lost to the network.  The window rides along with the tenant: it lives
in the snapshot envelope as an **unhashed sibling** (``"idem"``), so it
survives migration and shard-crash restore, while ``state_hash`` stays
a pure function of the matrix + counters — a chaos-disturbed run hashes
identically to its undisturbed twin.

Snapshots use the :mod:`repro.checkpoint` envelope protocol (kind
``service.tenant``) and nest the matrix's own envelope, so the
migration differential can compare ``state_hash`` before and after a
shard move.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.checkpoint.protocol import open_envelope, snapshot_envelope
from repro.errors import ResourceProtocolError
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import random_bitmatrix
from repro.rag.matrix import CellState
from repro.service.protocol import ServiceOpError

#: Admission sanity bound on tenant dimensions: not a kernel limit,
#: just a guard against absurd attach requests.
MAX_TENANT_SIDE = 512

SNAPSHOT_KIND = "service.tenant"

#: Bounded per-tenant dedup window: the most recent applied
#: idempotency keys (and their recorded responses) a retry can still be
#: answered from.  A retry older than this re-applies — clients bound
#: their retry budgets far below it.
IDEM_WINDOW = 128


def _build_matrix(spec: Mapping[str, Any]) -> BitMatrix:
    """Tenant matrix from an attach request (rows > seed > empty).

    Every malformed spec is a ``bad-request``: a bad cell token, ragged
    or missing rows, ``rows`` that is not a list of strings, or numbers
    that do not parse or are not finite (JSON's ``1e400`` is ``inf``).
    """
    try:
        matrix = _matrix_from_spec(spec)
    except (ResourceProtocolError, TypeError, ValueError,
            ArithmeticError) as exc:
        raise ServiceOpError("bad-request",
                             f"malformed attach: {exc}") from None
    if matrix.m > MAX_TENANT_SIDE or matrix.n > MAX_TENANT_SIDE:
        raise ServiceOpError(
            "bad-request",
            f"tenant matrix {matrix.m}x{matrix.n} exceeds "
            f"{MAX_TENANT_SIDE}x{MAX_TENANT_SIDE}")
    return matrix


def _matrix_from_spec(spec: Mapping[str, Any]) -> BitMatrix:
    rows = spec.get("rows")
    if rows is not None:
        if not (isinstance(rows, list)
                and all(isinstance(row, str) for row in rows)):
            raise TypeError("rows must be a list of strings")
        return BitMatrix.from_rows(rows)
    m = int(spec.get("m", 8))
    n = int(spec.get("n", 8))
    if not (1 <= m <= MAX_TENANT_SIDE and 1 <= n <= MAX_TENANT_SIDE):
        raise ServiceOpError(
            "bad-request",
            f"tenant dims {m}x{n} outside 1..{MAX_TENANT_SIDE}")
    if spec.get("seed") is None:
        return BitMatrix(m, n)
    return random_bitmatrix(
        m, n,
        grant_fraction=float(spec.get("grant_fraction", 0.6)),
        request_fraction=float(spec.get("request_fraction", 0.3)),
        seed=int(spec["seed"]))


class Tenant:
    """One tenant's matrix plus its service-side counters."""

    __slots__ = ("tenant_id", "matrix", "op_seq", "grants", "blocked",
                 "releases", "detects", "idem_seen", "deduped")

    def __init__(self, tenant_id: str, matrix: BitMatrix) -> None:
        self.tenant_id = tenant_id
        self.matrix = matrix
        #: Accepted mutations so far (claims + releases), echoed by
        #: detect verdicts so oracles can replay the exact prefix.
        self.op_seq = 0
        self.grants = 0
        self.blocked = 0
        self.releases = 0
        self.detects = 0
        #: Bounded ``idem -> recorded response`` window (insertion
        #: ordered; oldest evicted past :data:`IDEM_WINDOW`).
        self.idem_seen: dict[str, dict] = {}
        #: Mutations answered from the window instead of re-applied.
        self.deduped = 0

    @classmethod
    def from_attach(cls, tenant_id: str,
                    spec: Mapping[str, Any]) -> "Tenant":
        return cls(tenant_id, _build_matrix(spec))

    # -- op handlers ---------------------------------------------------

    def _indices(self, op: Mapping[str, Any]) -> tuple[int, int, str, str]:
        process = op.get("process")
        resource = op.get("resource")
        try:
            t = self.matrix.process_names.index(process)
        except ValueError:
            raise ServiceOpError(
                "bad-request",
                f"unknown process {process!r} for tenant "
                f"{self.tenant_id!r}") from None
        try:
            s = self.matrix.resource_names.index(resource)
        except ValueError:
            raise ServiceOpError(
                "bad-request",
                f"unknown resource {resource!r} for tenant "
                f"{self.tenant_id!r}") from None
        return s, t, process, resource

    # -- idempotent-retry dedup ----------------------------------------

    def _idem_hit(self, op: Mapping[str, Any]) -> Optional[dict]:
        """The recorded response for a replayed idempotency key, if any."""
        idem = op.get("idem")
        if not idem:
            return None
        recorded = self.idem_seen.get(idem)
        if recorded is None:
            return None
        self.deduped += 1
        return {**recorded, "deduped": True}

    def _idem_record(self, op: Mapping[str, Any], response: dict) -> None:
        idem = op.get("idem")
        if not idem:
            return
        self.idem_seen[idem] = dict(response)
        while len(self.idem_seen) > IDEM_WINDOW:
            self.idem_seen.pop(next(iter(self.idem_seen)))

    def claim(self, op: Mapping[str, Any]) -> dict:
        replayed = self._idem_hit(op)
        if replayed is not None:
            return replayed
        s, t, process, resource = self._indices(op)
        cell = self.matrix.get(s, t)
        if cell is CellState.GRANT:
            raise ServiceOpError(
                "protocol-violation",
                f"{process} already holds {resource}")
        if cell is CellState.REQUEST:
            raise ServiceOpError(
                "protocol-violation",
                f"{process} already waits for {resource}")
        free = self.matrix.row_bwo(s)[1] == 0
        try:
            if free:
                self.matrix.set_grant(s, t)
            else:
                self.matrix.set_request(s, t)
        except ResourceProtocolError as exc:
            raise ServiceOpError("protocol-violation", str(exc)) from exc
        self.op_seq += 1
        if free:
            self.grants += 1
        else:
            self.blocked += 1
        response = {"granted": free, "blocked": not free,
                    "op_seq": self.op_seq}
        self._idem_record(op, response)
        return response

    def release(self, op: Mapping[str, Any]) -> dict:
        replayed = self._idem_hit(op)
        if replayed is not None:
            return replayed
        s, t, process, resource = self._indices(op)
        if self.matrix.get(s, t) is not CellState.GRANT:
            raise ServiceOpError(
                "protocol-violation",
                f"{process} does not hold {resource}")
        self.matrix.clear(s, t)
        promoted: Optional[str] = None
        waiters = self.matrix._row_r[s]
        if waiters:
            # Deterministic promotion: the lowest-index waiter wins.
            low = (waiters & -waiters).bit_length() - 1
            self.matrix.clear(s, low)
            self.matrix.set_grant(s, low)
            promoted = self.matrix.process_names[low]
        self.op_seq += 1
        self.releases += 1
        response = {"released": True, "promoted": promoted,
                    "op_seq": self.op_seq}
        self._idem_record(op, response)
        return response

    def detect_payload(self, deadlock: bool, iterations: int,
                       passes: int, deadlocked: list,
                       batched: int) -> dict:
        """Assemble a detect response from a (batched) reduction."""
        self.detects += 1
        return {"deadlock": deadlock, "iterations": iterations,
                "passes": passes, "deadlocked_processes": list(deadlocked),
                "op_seq": self.op_seq, "batched": batched}

    # -- checkpoint protocol -------------------------------------------

    def snapshot_state(self) -> dict:
        """Versioned envelope; nests the matrix's own envelope.

        Only *recoverable* state is captured: the matrix plus the
        counters journal replay reconstructs.  The ``detects`` tally is
        deliberately excluded — detect is a read-only query, never
        journaled, so including it would make a crash-recovered
        tenant's digest diverge from its uninterrupted twin even though
        every observable response matched.

        The dedup window travels as an *unhashed sibling* key
        (``"idem"``) of the envelope: it must survive migration and
        crash restore (a retry may land after the move), but it must
        not perturb ``state_hash`` — a run whose mutations were retried
        through chaos hashes identically to the undisturbed run that
        never needed a key.
        """
        envelope = snapshot_envelope(SNAPSHOT_KIND, {
            "tenant": self.tenant_id,
            "matrix": self.matrix.snapshot_state(),
            "op_seq": self.op_seq,
            "grants": self.grants,
            "blocked": self.blocked,
            "releases": self.releases,
        })
        if self.idem_seen:
            envelope["idem"] = [[key, dict(response)]
                                for key, response in self.idem_seen.items()]
        return envelope

    @classmethod
    def restore_state(cls, envelope: dict) -> "Tenant":
        state = open_envelope(envelope, kind=SNAPSHOT_KIND)
        tenant = cls(state["tenant"],
                     BitMatrix.restore_state(state["matrix"]))
        tenant.op_seq = int(state["op_seq"])
        tenant.grants = int(state["grants"])
        tenant.blocked = int(state["blocked"])
        tenant.releases = int(state["releases"])
        for key, response in envelope.get("idem", ()):
            tenant.idem_seen[str(key)] = dict(response)
        return tenant

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Tenant {self.tenant_id} "
                f"{self.matrix.m}x{self.matrix.n} ops={self.op_seq}>")

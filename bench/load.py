"""Seeded tenant workloads, the wire-level load generator and the oracle.

Everything the benchmark sends is a function of ``--seed``:

* each tenant's attach spec (``m``/``n``/``seed``) — the server builds
  the tenant itself, exactly as a client would ask it to;
* each tenant's op stream, generated against a local
  :class:`repro.service.tenant.Tenant` so a claim always targets an
  EMPTY cell and a release a held GRANT cell (no operation fails);
* the open-loop arrival schedule (Poisson, one seeded stream per phase)
  and the warm-up's per-tenant mutation counts.

Tenants are pinned to one of the two connections, so each tenant's ops
reach the server in the order they were generated, and the oracle can
replay them in id order after every phase.

The generator speaks NDJSON itself instead of using ``ServiceClient``:
one asyncio protocol per connection, one write per burst of due
requests, and answers matched by ``id``.  That keeps the generator's
per-request cost to a few microseconds, well below the server's.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.rag.matrix import CellState
from repro.service.protocol import ServiceOpError
from repro.service.server import ServiceConfig
from repro.service.tenant import Tenant

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CONNECTIONS = 2
#: Acked mutations between the server's snapshot refreshes of a tenant.
SNAPSHOT_EVERY = ServiceConfig().snapshot_every
now_ns = time.monotonic_ns

_ID = re.compile(rb'"id":(\d+)')
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Workload:
    """One traffic mix: population shape, op mix, rates and limit."""

    name: str
    tenants: int
    side: int
    claim: float
    release: float
    #: Open-loop offered rates (ops/s) of the nominal and peak steps.
    rates: tuple
    #: The latency objective each step is marked against.
    p99_limit_ms: float
    why: str


#: Nominal rates keep the loop-blocking snapshot refreshes under 5% of
#: requests even on a slow host, so p50 and p90 measure the common
#: path and the refreshes show in p99 and in CPU per op.
WORKLOADS = {w.name: w for w in (
    Workload(
        "detect-wide", tenants=64, side=128, claim=0.20, release=0.10,
        rates=(200, 400), p99_limit_ms=100.0,
        why="read path: 64 tenants of 128x128, 70% detect at 200 and 400 "
            "ops/s; batched reduce, verdict cache, big answers and 20-40 ms "
            "snapshot refreshes dominate"),
    Workload(
        "write-heavy", tenants=2048, side=8, claim=0.55, release=0.43,
        rates=(2000, 3000), p99_limit_ms=10.0,
        why="write path: 2048 tenants of 8x8, 98% claim/release at 2000 "
            "and 3000 ops/s; decode, tick wait, journal and heap dominate, "
            "the reduction idles"),
)}


# -- seeded inputs ------------------------------------------------------

def attach_specs(workload: Workload, seed: int) -> list:
    """The attach request of every tenant, in tenant-index order."""
    rng = random.Random(f"{seed}:attach")
    return [{"op": "attach", "tenant": f"t{index}", "m": workload.side,
             "n": workload.side, "seed": rng.getrandbits(31)}
            for index in range(workload.tenants)]


class TenantStream:
    """One tenant's op stream, generated against a local oracle tenant."""

    __slots__ = ("name", "tenant", "rng", "claim", "release")

    def __init__(self, spec: dict, workload: Workload, seed: int) -> None:
        self.name = spec["tenant"]
        self.tenant = Tenant.from_attach(self.name, spec)
        self.rng = random.Random(f"{seed}:ops:{self.name}")
        self.claim = workload.claim
        self.release = workload.claim + workload.release

    def next_op(self, mutate: bool = False) -> dict:
        """The next op; ``mutate`` draws a claim or release only."""
        rng = self.rng
        draw = rng.random() * (self.release if mutate else 1.0)
        if draw >= self.release:
            return self._detect()
        # A claim needs an EMPTY cell and a release a GRANT; a tenant
        # with none of one kind gets the other, and one with neither
        # (a full matrix of requests) gets a detect.
        if draw >= self.claim:
            return self._release() or self._claim() or self._detect()
        return self._claim() or self._release() or self._detect()

    def _claim(self) -> Optional[dict]:
        matrix, rng = self.tenant.matrix, self.rng
        for _ in range(8):
            s, t = rng.randrange(matrix.m), rng.randrange(matrix.n)
            if matrix.get(s, t) is CellState.EMPTY:
                break
        else:
            empty = [(s, t) for s in range(matrix.m) for t in range(matrix.n)
                     if matrix.get(s, t) is CellState.EMPTY]
            if not empty:
                return None
            s, t = rng.choice(empty)
        op = self._op("claim", s, t)
        self.tenant.claim(op)
        return op

    def _release(self) -> Optional[dict]:
        matrix = self.tenant.matrix
        held = [s for s in range(matrix.m) if matrix.row_bwo(s)[1]]
        if not held:
            return None
        s = self.rng.choice(held)
        op = self._op("release", s, matrix.row(s).index(CellState.GRANT))
        self.tenant.release(op)
        return op

    def _detect(self) -> dict:
        return {"op": "detect", "tenant": self.name}

    def _op(self, name: str, s: int, t: int) -> dict:
        matrix = self.tenant.matrix
        return {"op": name, "tenant": self.name,
                "process": matrix.process_names[t],
                "resource": matrix.resource_names[s]}


def open_loop_ops(streams: list, seed: int, name: str, rate: float,
                  seconds: float):
    """Yield ``(due offset ns, tenant index, op)`` for one open-loop block:
    Poisson arrivals at ``rate`` over ``seconds``, uniform over tenants."""
    rng = random.Random(f"{seed}:{name}")
    at = rng.expovariate(rate)
    while at < seconds:
        tenant = rng.randrange(len(streams))
        yield int(at * 1e9), tenant, streams[tenant].next_op()
        at += rng.expovariate(rate)


def encode(op: dict, rid: int) -> bytes:
    op["id"] = rid
    return json.dumps(op, separators=(",", ":")).encode() + b"\n"


# -- the oracle ---------------------------------------------------------

class Oracle:
    """Replays answered ops per tenant and checks every answer.

    Claims and releases are compared field by field against a local
    :class:`Tenant`.  The server answers a tick's detects after all of
    the tick's mutations, so a detect's ``op_seq`` may run ahead of the
    ops sent before it: the oracle holds each detect until its replay
    reaches that ``op_seq``, then compares ``deadlock`` and
    ``deadlocked_processes`` with :meth:`BitMatrix.reduce` on a copy of
    the oracle matrix, cached per ``op_seq``.
    """

    def __init__(self, tenants: list) -> None:
        self.tenants = {tenant.tenant_id: tenant for tenant in tenants}
        self._verdicts: dict = {}
        self._held: dict = {}

    def replay(self, op: dict, answer: dict) -> Optional[str]:
        """None while the ok ``answer`` is consistent, else a description."""
        tenant = self.tenants[op["tenant"]]
        name = op["op"]
        if name == "detect":
            if answer.get("op_seq", -1) < tenant.op_seq:
                return (f"verdict at op_seq {answer.get('op_seq')} misses "
                        f"ops sent before it (op_seq {tenant.op_seq})")
            self._held.setdefault(tenant.tenant_id, []).append(answer)
            return self._settle(tenant)
        try:
            expected = (tenant.claim(op) if name == "claim"
                        else tenant.release(op))
        except ServiceOpError as exc:
            return f"the oracle refuses it ({exc.code}: {exc.detail})"
        problem = _compare(answer, expected)
        return problem or self._settle(tenant)

    def finish(self) -> Optional[str]:
        """A detect still held names an ``op_seq`` the replay never hit."""
        for tenant_id, held in self._held.items():
            if held:
                return (f"tenant {tenant_id}: verdict at op_seq "
                        f"{held[0]['op_seq']} but its ops end at "
                        f"{self.tenants[tenant_id].op_seq}")
        return None

    def _settle(self, tenant: Tenant) -> Optional[str]:
        held = self._held.get(tenant.tenant_id)
        while held and held[0]["op_seq"] <= tenant.op_seq:
            answer = held.pop(0)
            if answer["op_seq"] < tenant.op_seq:
                return f"verdict at op_seq {answer['op_seq']} was skipped"
            problem = _compare(answer, self._verdict(tenant))
            if problem:
                return problem
        return None

    def _verdict(self, tenant: Tenant) -> dict:
        cached = self._verdicts.get(tenant.tenant_id)
        if cached is None or cached["op_seq"] != tenant.op_seq:
            matrix = tenant.matrix.copy()
            matrix.reduce()
            cached = {"deadlock": not matrix.is_empty(),
                      "deadlocked_processes": [
                          matrix.process_names[t] for t in range(matrix.n)
                          if matrix.column_bwo(t) != (0, 0)],
                      "op_seq": tenant.op_seq}
            self._verdicts[tenant.tenant_id] = cached
        return cached


def _compare(answer: dict, expected: dict) -> Optional[str]:
    for key, value in expected.items():
        if answer.get(key) != value:
            return (f"field {key!r}: got {answer.get(key)!r}, "
                    f"expected {value!r}")
    return None


class WrongAnswer(Exception):
    """The server answered an op differently from the oracle."""


# -- phases -------------------------------------------------------------

@dataclass
class Phase:
    """Ids ``first..last-1`` sent between ``start`` and ``end`` (ns)."""

    name: str
    first: int
    last: int
    start: int
    end: int
    cpu_s: float = 0.0
    generator_cpu_s: float = 0.0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Wire(asyncio.Protocol):
    """One load connection: timestamps each answer as it arrives."""

    def __init__(self, session: "Session", index: int) -> None:
        self.session = session
        self.index = index
        self.transport = None
        self._tail = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        stamp = now_ns()
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()
        self.session.answered(self.index, lines, stamp)

    def connection_lost(self, exc) -> None:
        self.session.lost()


class Session:
    """One server process, two connections and every request sent to it.

    Per-request state lives in parallel lists indexed by request id
    (ids are global and increase in send order): ``due``, ``sent`` and
    ``recv`` in ``time.monotonic_ns`` — the same clock the traced server
    stamps with — plus the op and its raw answer line until the oracle
    has checked them.
    """

    def __init__(self, workload: Workload, seed: int, out_dir: Path,
                 traced_out: Optional[Path] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.traced_out = traced_out
        self.specs = attach_specs(workload, seed)
        self.streams: list = []
        self.oracle: Optional[Oracle] = None
        self.due: list = []
        self.sent: list = []
        self.recv: list = []
        self.ops: list = []
        self.kinds: list = []
        self.answers: list = []
        self.failed = 0
        self.outstanding = 0
        self.waiters: dict = {}
        self.refill: Optional[Callable] = None
        self.wires: list = []
        self.proc = None
        self.port = None
        self.setup_s = 0.0
        self._stderr = out_dir / f"{workload.name}.server.stderr"
        self._idle = None

    # -- process lifecycle ----------------------------------------------

    def server_argv(self) -> list:
        service = ["--no-processes", "--shards", "2",
                   "--max-pending", "65536"]
        if self.traced_out is None:
            return [sys.executable, "-m", "repro.service", *service]
        return [sys.executable, str(BENCH / "traced_server.py"),
                "--out", str(self.traced_out), "--", *service]

    async def open(self) -> None:
        """Spawn the server, wait for its ready line, attach everyone."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        started = time.perf_counter()
        with open(self._stderr, "wb") as stderr:
            self.proc = await asyncio.create_subprocess_exec(
                *self.server_argv(), stdout=asyncio.subprocess.PIPE,
                stderr=stderr, env=env, cwd=str(ROOT))
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if not line:
            raise RuntimeError("server exited before its ready line: "
                               + self._stderr.read_text()[-2000:])
        self.port = json.loads(line)["port"]
        loop = asyncio.get_running_loop()
        for index in range(CONNECTIONS):
            _transport, wire = await loop.create_connection(
                lambda index=index: Wire(self, index), "127.0.0.1",
                self.port)
            self.wires.append(wire)
        pending = []
        for index, spec in enumerate(self.specs):
            pending.append(self.request(index % CONNECTIONS, dict(spec)))
        for answer in await asyncio.gather(*pending):
            if answer.get("ok") is not True:
                raise WrongAnswer(f"attach refused: {answer}")
        self.setup_s = time.perf_counter() - started

    async def close(self) -> None:
        """Close the load connections, then shut the server down."""
        for wire in self.wires:
            wire.transport.close()
        self.wires = []
        if self.proc is None:
            return
        try:
            if self.proc.returncode is None:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.port)
                writer.write(b'{"op":"shutdown"}\n')
                await writer.drain()
                await asyncio.wait_for(reader.readline(), 10)
                writer.close()
                await writer.wait_closed()
                await asyncio.wait_for(self.proc.wait(), 30)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()
        stderr = self._stderr.read_text(errors="replace")
        if "Traceback" in stderr or self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited {self.proc.returncode} with: {stderr[-4000:]}")

    def server_cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def server_rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- sending and receiving ------------------------------------------

    def send(self, conn: int, ops: list, due: Optional[list]) -> None:
        """Write ``ops`` on connection ``conn`` as one burst."""
        rid = len(self.sent)
        lines = []
        for op in ops:
            lines.append(encode(op, rid))
            rid += 1
        stamp = now_ns()
        count = len(ops)
        self.sent.extend([stamp] * count)
        self.due.extend(due if due is not None else [stamp] * count)
        self.recv.extend([0] * count)
        self.ops.extend(ops)
        self.kinds.extend(op["op"] for op in ops)
        self.answers.extend([None] * count)
        self.outstanding += count
        self.wires[conn].transport.write(b"".join(lines))

    def request(self, conn: int, op: dict) -> "asyncio.Future":
        """Send one op and return a future for its decoded answer."""
        future = asyncio.get_running_loop().create_future()
        self.waiters[len(self.sent)] = future
        self.send(conn, [op], None)
        return future

    def answered(self, conn: int, lines: list, stamp: int) -> None:
        recv, answers, waiters = self.recv, self.answers, self.waiters
        for line in lines:
            match = _ID.search(line)
            if match is None:
                raise WrongAnswer(f"answer without an id: {line[:200]!r}")
            rid = int(match.group(1))
            recv[rid] = stamp
            answers[rid] = line
            if b'"ok":true' not in line:
                self.failed += 1
            waiter = waiters.pop(rid, None)
            if waiter is not None:
                waiter.set_result(json.loads(line))
        self.outstanding -= len(lines)
        if self.refill is not None:
            self.refill(conn, len(lines))
        if self.outstanding == 0 and self._idle is not None:
            self._idle.set_result(None)
            self._idle = None

    def lost(self) -> None:
        """A connection closed while the session still uses it: fail
        whatever waits on an answer instead of timing out."""
        if not self.wires:
            return
        pending = list(self.waiters.values())
        if self._idle is not None:
            pending.append(self._idle)
        for future in pending:
            if not future.done():
                future.set_exception(ConnectionError("server hung up"))

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait until every request sent so far has been answered."""
        if self.outstanding:
            self._idle = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._idle, timeout)
            except asyncio.TimeoutError:
                self._idle = None

    async def admin(self, op: str) -> dict:
        return await asyncio.wait_for(self.request(0, {"op": op}), 30)

    # -- load shapes ----------------------------------------------------

    def population(self) -> list:
        """The tenant streams, and the oracle from copies of their
        initial matrices; built on first use, as a session that only
        times set-up needs neither."""
        if not self.streams:
            self.streams = [TenantStream(spec, self.workload, self.seed)
                            for spec in self.specs]
            self.oracle = Oracle([
                Tenant(stream.name, stream.tenant.matrix.copy())
                for stream in self.streams])
        return self.streams

    async def open_loop(self, name: str, rate: float,
                        seconds: float) -> Phase:
        """Poisson arrivals at ``rate`` for ``seconds``, then drain."""
        ops = open_loop_ops(self.population(), self.seed, name, rate,
                            seconds)
        first = len(self.sent)
        cpu0, own0 = self._begin()
        start = now_ns() + 1_000_000
        end = start + int(seconds * 1e9)
        pending = next(ops, None)
        while pending is not None:
            stamp = now_ns()
            bursts = [([], []) for _ in range(CONNECTIONS)]
            while pending is not None and start + pending[0] <= stamp:
                offset, tenant, op = pending
                burst, due = bursts[tenant % CONNECTIONS]
                burst.append(op)
                due.append(start + offset)
                pending = next(ops, None)
            for conn, (burst, due) in enumerate(bursts):
                if burst:
                    self.send(conn, burst, due)
            if pending is not None:
                wait = start + pending[0] - now_ns()
                await asyncio.sleep(max(wait, 0) / 1e9)
        last = len(self.sent)
        await asyncio.sleep(max(end - now_ns(), 0) / 1e9)
        await self.drain()
        return self._finish(Phase(name, first, last, start, end), cpu0,
                            own0)

    async def closed_loop(self, name: str, depth: int,
                          source: Callable) -> Phase:
        """Keep ``depth`` requests in flight per connection, taking ops
        from ``source(conn)`` until it returns None on every one."""
        first = len(self.sent)
        cpu0, own0 = self._begin()
        start = now_ns()
        dry = asyncio.get_running_loop().create_future()
        exhausted: set = set()

        def refill(conn: int, count: int) -> None:
            ops = []
            for _ in range(count):
                op = source(conn)
                if op is None:
                    exhausted.add(conn)
                    if len(exhausted) == CONNECTIONS and not dry.done():
                        dry.set_result(None)
                    break
                ops.append(op)
            if ops:
                self.send(conn, ops, None)

        self.refill = refill
        for conn in range(CONNECTIONS):
            refill(conn, depth)
        await dry
        self.refill = None
        last = len(self.sent)
        await self.drain()
        return self._finish(Phase(name, first, last, start, now_ns()),
                            cpu0, own0)

    async def stagger(self, depth: int) -> Phase:
        """Send each tenant a seeded uniform number of mutations below
        the server's snapshot interval.

        Every tenant's journal starts empty at attach, so without this
        all of them would reach their first snapshot refresh together,
        in whichever step happens to be running; staggered, refreshes
        run at their steady-state rate from the first measured second.
        """
        rng = random.Random(f"{self.seed}:stagger")
        queues: list = [[] for _ in range(CONNECTIONS)]
        streams = self.population()
        for index in range(len(streams)):
            queues[index % CONNECTIONS].extend(
                [index] * rng.randrange(SNAPSHOT_EVERY))
        for queue in queues:
            rng.shuffle(queue)

        def source(conn: int) -> Optional[dict]:
            queue = queues[conn]
            if not queue:
                return None
            return streams[queue.pop()].next_op(mutate=True)

        return await self.closed_loop("stagger", depth, source)

    def _begin(self) -> tuple:
        # The generator's garbage is acyclic; a collector pause here would
        # only show up as generator lateness.
        gc.collect()
        gc.disable()
        return self.server_cpu_s(), time.process_time()

    def _finish(self, phase: Phase, cpu0: float, own0: float) -> Phase:
        gc.enable()
        phase.cpu_s = self.server_cpu_s() - cpu0
        phase.generator_cpu_s = time.process_time() - own0
        self.check(phase)
        return phase

    def check(self, phase: Phase) -> None:
        """Replay the phase's ok answers through the oracle, in id order.

        Unanswered and refused ops are failures, counted elsewhere; the
        server applied none of them, so the oracle skips them too.
        """
        for rid in range(phase.first, phase.last):
            op, line = self.ops[rid], self.answers[rid]
            if line is not None and b'"ok":true' in line:
                problem = self.oracle.replay(op, json.loads(line))
                if problem is not None:
                    raise WrongAnswer(f"request {json.dumps(op)} answered "
                                      f"{line.decode()}: {problem}")
            self.ops[rid] = self.answers[rid] = None
        problem = self.oracle.finish()
        if problem is not None:
            raise WrongAnswer(f"after {phase.name}: {problem}")

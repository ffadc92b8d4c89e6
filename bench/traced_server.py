"""Run the detection server with outside-in timing around each layer.

    python bench/traced_server.py --out FILE -- [python -m repro.service args]

Before calling :func:`repro.service.__main__.main`, this launcher wraps
the public functions each request passes through, from outside, and
stamps them with ``time.monotonic_ns`` — the clock the load generator
stamps with, so both sides of the wire line up:

======================================  ==================================
wrapped                                 records
======================================  ==================================
``server.decode_line``                  request entry, decode cost
``server.validate_request``             end of decode
``DetectionService.submit``             admission cost, end of admission
``ShardHandle.request("batch")``        tick hand-off, shard return
``server.encode_message``               encode start/end, response bytes
``ShardCore.handle``                    shard busy time per command
``Tenant.*``, ``PlaneAccumulator.*``,   per-call cost inside the shard
``PlaneReduction.residual``,
``checkpoint.protocol.state_hash``
``gc.callbacks``, a ``call_at`` probe   collector pauses, event-loop lag
======================================  ==================================

Spans stay in memory, in flat ``array('q')`` buffers that hold no Python
objects, so the recorder gives the collector nothing extra to walk; at
exit they are written to ``FILE`` as JSON for ``bench/run.py`` to join
with its own due/sent/receive stamps.  A wrapped name that no longer
exists is skipped, so the trace degrades to fewer layers rather than
failing when the code under it changes.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import gc
import json
import sys
import time
from array import array

from repro.checkpoint import protocol as checkpoint
from repro.rag import batch
from repro.service import __main__ as service_main
from repro.service import server, shard, tenant

now = time.monotonic_ns
LAG_PROBE_S = 0.005

#: Slots of a per-request record, in the order a request reaches them.
DECODE, VALIDATED, SUBMITTED, BATCH, SHARD_DONE, ENCODE, ENCODED, BYTES = \
    range(8)


class Recorder:
    """Every span the wrappers record, kept in memory until exit."""

    def __init__(self) -> None:
        #: One array per slot above, indexed by request id.
        self.stamps = [array("q") for _ in range(BYTES + 1)]
        #: call name -> flat (start_ns, duration_ns, extra) triples.
        self.calls: dict = {}
        #: Flat (start_ns, duration_ns, generation) triples.
        self.gc = array("q")
        #: Flat (at_ns, lateness_ns) pairs of the event-loop probe.
        self.lag = array("q")
        self._gc_start = 0
        self._json_bytes = 0

    def record(self, name: str, start: int, extra: int = 0) -> None:
        calls = self.calls.get(name)
        if calls is None:
            calls = self.calls[name] = array("q")
        calls.extend((start, now() - start, extra))

    def open_request(self, rid, start: int) -> None:
        if not isinstance(rid, int) or rid < 0:
            return
        missing = rid + 1 - len(self.stamps[DECODE])
        if missing > 0:
            grow = array("q", bytes(8 * max(missing, 4096)))
            for slot in self.stamps:
                slot.extend(grow)
        self.stamps[DECODE][rid] = start

    def stamp(self, message, slot: int, value: int) -> None:
        rid = message.get("id")
        if (isinstance(rid, int) and 0 <= rid < len(self.stamps[slot])
                and self.stamps[DECODE][rid]):
            self.stamps[slot][rid] = value

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = now()
        else:
            self.gc.extend((self._gc_start, now() - self._gc_start,
                            info["generation"]))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"stamps": [slot.tolist() for slot in self.stamps],
                       "calls": {name: calls.tolist()
                                 for name, calls in self.calls.items()},
                       "gc": self.gc.tolist(), "lag": self.lag.tolist()},
                      handle)


def _timed(rec: Recorder, owner, attr: str, name: str, extra=None) -> None:
    original = getattr(owner, attr, None)
    if original is None:
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = now()
        result = original(*args, **kwargs)
        rec.record(name, start, extra(*args) if extra else 0)
        return result

    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every layer; the stage stamps come first."""
    decode_line = server.decode_line
    validate_request = server.validate_request
    encode_message = server.encode_message
    submit = server.DetectionService.submit
    request = server.ShardHandle.request
    start_service = server.DetectionService.start

    def traced_decode(line):
        start = now()
        message = decode_line(line)
        rec.record("service.protocol.decode_line", start)
        rec.open_request(message.get("id"), start)
        return message

    def traced_validate(message):
        op = validate_request(message)
        rec.stamp(message, VALIDATED, now())
        return op

    def traced_submit(self, message):
        start = now()
        future = submit(self, message)
        rec.record("service.server.submit", start)
        rec.stamp(message, SUBMITTED, now())
        return future

    def traced_request(self, command, payload, context=None):
        start = now()
        future = request(self, command, payload, context)
        done = now()
        if command == "batch":
            rec.record("service.server.batch", start, len(payload))
            for message in payload:
                rec.stamp(message, BATCH, start)
                rec.stamp(message, SHARD_DONE, done)
        elif command == "snapshot":
            rec.record("service.server.snapshot_refresh", start)
        return future

    def traced_encode(message):
        start = now()
        line = encode_message(message)
        done = now()
        rec.record("service.protocol.encode_message", start, len(line))
        rec.stamp(message, ENCODE, start)
        rec.stamp(message, ENCODED, done)
        rec.stamp(message, BYTES, len(line))
        return line

    async def traced_start(self, *args, **kwargs):
        await start_service(self, *args, **kwargs)
        loop = asyncio.get_running_loop()

        def probe(expected: float) -> None:
            late = loop.time() - expected
            rec.lag.extend((now(), int(late * 1e9)))
            due = loop.time() + LAG_PROBE_S
            loop.call_at(due, probe, due)

        due = loop.time() + LAG_PROBE_S
        loop.call_at(due, probe, due)

    server.decode_line = traced_decode
    server.validate_request = traced_validate
    server.encode_message = traced_encode
    server.DetectionService.submit = traced_submit
    server.ShardHandle.request = traced_request
    server.DetectionService.start = traced_start

    _timed(rec, shard.ShardCore, "handle", "service.shard.handle",
           lambda self, command, payload: int(command == "batch"))
    for name in ("claim", "release", "detect_payload", "snapshot_state"):
        _timed(rec, tenant.Tenant, name, f"service.tenant.{name}")
    accumulator = getattr(batch, "PlaneAccumulator", None)
    _timed(rec, accumulator, "update", "rag.batch.update")
    _timed(rec, accumulator, "add", "rag.batch.add")
    _timed(rec, accumulator, "reduce", "rag.batch.reduce",
           lambda self, slots: len(slots))
    _timed(rec, getattr(batch, "PlaneReduction", None), "residual",
           "rag.batch.residual")

    canonical_json = checkpoint.canonical_json
    state_hash = checkpoint.state_hash

    def traced_canonical(payload):
        text = canonical_json(payload)
        rec._json_bytes = len(text)
        return text

    def traced_hash(state):
        start = now()
        digest = state_hash(state)
        rec.record("checkpoint.state_hash", start, rec._json_bytes)
        return digest

    checkpoint.canonical_json = traced_canonical
    checkpoint.state_hash = traced_hash
    gc.callbacks.append(rec.on_gc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python bench/traced_server.py",
        description="the detection server, traced from outside")
    parser.add_argument("--out", required=True,
                        help="where to write the recorded spans (JSON)")
    parser.add_argument("service_args", nargs=argparse.REMAINDER,
                        help="arguments for python -m repro.service")
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]
    rec = Recorder()
    install(rec)
    code = service_main.main(service_args)
    gc.callbacks.remove(rec.on_gc)
    rec.write(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())

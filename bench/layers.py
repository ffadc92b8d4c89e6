"""Per-stage and per-layer numbers from one traced run.

The traced server (``bench/traced_server.py``) stamps each request at
seven points; the load generator adds three (due, sent, received).
Consecutive stamps bound the nine stages below, so for every request
the stage durations add up exactly to its due-to-answer latency:

=============  ====================================================
stage          from → to
=============  ====================================================
``gen_late``   due → written by the load generator
``inbound``    written → ``decode_line`` entry
``decode``     ``decode_line`` entry → ``validate_request`` return
``admit``      → ``DetectionService.submit`` return
``queue``      → the ``ShardHandle.request("batch")`` carrying it (tick wait)
``shard``      → that request's return (``ShardCore.handle`` of the batch)
``reply``      → ``encode_message`` entry for its response
``encode``     → ``encode_message`` return
``outbound``   → the load generator reads the answer
=============  ====================================================

Per-call costs (``*.us``, bytes) are averaged over every call from the
start of the load on (the set-up's attaches excluded), and the longest
collector pause over the server's whole life; rates and fractions
cover the measured window only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

STAGES = ("gen_late", "inbound", "decode", "admit", "queue", "shard",
          "reply", "encode", "outbound")
#: Every 1-in-N request goes into the Perfetto file, plus the tail.
TRACE_SAMPLE_EVERY = 20
#: Server spans worth a slice in the Perfetto file (the rest are only
#: aggregated: they are too many and too short to read one by one).
TRACE_SPANS = ("service.shard.handle", "rag.batch.reduce",
               "service.tenant.snapshot_state", "checkpoint.state_hash")


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile of an ascending list (0 if empty)."""
    if not values:
        return 0.0
    rank = (len(values) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def triples(flat: list) -> list:
    """``(start_ns, duration_ns, extra)`` records from a flat dump."""
    return list(zip(flat[0::3], flat[1::3], flat[2::3]))


def stage_rows(session, phase, stamps: list) -> tuple:
    """``(rows, e2e_ns)``: per-request stage durations (ns) and every
    answered request's latency; a row is ``(rid, e2e, [stages...])``.
    ``stamps`` are the traced server's per-slot arrays, by request id."""
    server_slots = stamps[:7]
    rows, e2e = [], []
    for rid in range(phase.first, phase.last):
        recv = session.recv[rid]
        if not recv:
            continue
        due = session.due[rid]
        e2e.append(recv - due)
        if rid >= len(server_slots[0]):
            continue
        server = [slot[rid] for slot in server_slots]
        if not all(server):
            continue
        bounds = [due, session.sent[rid], *server, recv]
        rows.append((rid, recv - due,
                     [bounds[i + 1] - bounds[i] for i in range(len(STAGES))]))
    return rows, e2e


def stage_metrics(rows: list, e2e: list) -> tuple:
    """Stage p50/mean/tail in µs, plus the sum error and the p99 (ns)."""
    metrics = {}
    p99 = percentile(sorted(e2e), 99)
    tail = [row for row in rows if row[1] > p99]
    for index, stage in enumerate(STAGES):
        values = sorted(row[2][index] for row in rows)
        metrics[f"stage.{stage}_us.p50"] = percentile(values, 50) / 1e3
        metrics[f"stage.{stage}_us.mean"] = mean(values) / 1e3
        metrics[f"stage.{stage}_us.tail"] = mean(
            row[2][index] for row in tail) / 1e3
    stage_sum = sum(metrics[f"stage.{stage}_us.mean"] for stage in STAGES)
    e2e_mean = mean(e2e) / 1e3
    error = abs(stage_sum - e2e_mean) / e2e_mean if e2e_mean else 1.0
    return metrics, error, p99


def _cost(calls: dict, name: str) -> list:
    return [call[1] for call in calls.get(name, ())]


def _in(records, phase) -> list:
    return [record for record in records
            if phase.start <= record[0] < phase.end]


def _window(calls: dict, name: str, phase) -> list:
    return _in(calls.get(name, ()), phase)


def _shard_totals(answer: dict) -> dict:
    totals: dict = {}
    for entry in answer.get("shards", ()):
        for key in ("skipped_detects", "dirty_tenants", "detect_batches"):
            totals[key] = totals.get(key, 0) + entry.get(key, 0)
    return totals


def verdict_cache(before: dict, after: dict) -> tuple:
    """``(verdict_hit_ratio, dirty_per_reduce)`` from two ``shards``
    admin answers: detects answered from the per-tenant verdict cache
    over all per-tick tenant detects, and tenants per reduction."""
    first, second = _shard_totals(before), _shard_totals(after)
    delta = {key: second.get(key, 0) - first.get(key, 0) for key in second}
    hits, dirty = delta.get("skipped_detects", 0), delta.get(
        "dirty_tenants", 0)
    reductions = delta.get("detect_batches", 0)
    return (hits / (hits + dirty) if hits + dirty else 0.0,
            dirty / reductions if reductions else 0.0)


def layer_metrics(session, phase, server: dict, side: int, cache: tuple,
                  load_start: int) -> dict:
    """Every non-stage per-layer metric of the traced window; per-call
    costs count the calls made from ``load_start`` (ns) on."""
    calls = {name: [call for call in triples(flat) if call[0] >= load_start]
             for name, flat in server["calls"].items()}
    ops = phase.last - phase.first
    window_ns = phase.end - phase.start
    handle = calls.get("service.shard.handle", ())
    batch_handles = sorted(call[1] for call in handle if call[2])
    batches = _window(calls, "service.server.batch", phase)
    reduces = calls.get("rag.batch.reduce", ())
    words = -(-side // 64)
    snapshots = _cost(calls, "service.tenant.snapshot_state")
    hashes = calls.get("checkpoint.state_hash", ())
    pauses = triples(server["gc"])
    lag = sorted(record[1] for record in _in(
        list(zip(server["lag"][0::2], server["lag"][1::2])), phase))
    sizes = server["stamps"][7]
    answered_bytes = [sizes[rid] for rid in range(
        phase.first, min(phase.last, len(sizes))) if sizes[rid]]
    return {
        "service.protocol.decode_line.us":
            mean(_cost(calls, "service.protocol.decode_line")) / 1e3,
        "service.protocol.encode_message.us":
            mean(_cost(calls, "service.protocol.encode_message")) / 1e3,
        "service.protocol.bytes_per_response": mean(answered_bytes),
        "service.server.submit.us":
            mean(_cost(calls, "service.server.submit")) / 1e3,
        "service.server.batch_ops": mean(call[2] for call in batches),
        "service.server.snapshot_refresh_per_kop": 1e3 * len(_window(
            calls, "service.server.snapshot_refresh", phase)) / ops,
        "service.shard.handle_batch.us.p50":
            percentile(batch_handles, 50) / 1e3,
        "service.shard.handle_batch.us.p99":
            percentile(batch_handles, 99) / 1e3,
        "service.shard.busy_frac": sum(
            call[1] for call in handle
            if phase.start <= call[0] < phase.end) / window_ns,
        "service.shard.verdict_hit_ratio": cache[0],
        "service.shard.dirty_per_reduce": cache[1],
        "service.tenant.claim.us":
            mean(_cost(calls, "service.tenant.claim")) / 1e3,
        "service.tenant.release.us":
            mean(_cost(calls, "service.tenant.release")) / 1e3,
        "service.tenant.detect_payload.us":
            mean(_cost(calls, "service.tenant.detect_payload")) / 1e3,
        "service.tenant.snapshot_state.us.mean": mean(snapshots) / 1e3,
        "service.tenant.snapshot_state.us.max":
            max(snapshots, default=0) / 1e3,
        "checkpoint.state_hash.us": mean(call[1] for call in hashes) / 1e3,
        "checkpoint.state_hash.bytes": mean(call[2] for call in hashes),
        "rag.batch.update.us": mean(_cost(calls, "rag.batch.update")) / 1e3,
        "rag.batch.add.us": mean(_cost(calls, "rag.batch.add")) / 1e3,
        "rag.batch.reduce.us.p50":
            percentile(sorted(call[1] for call in reduces), 50) / 1e3,
        "rag.batch.reduce.us.p99":
            percentile(sorted(call[1] for call in reduces), 99) / 1e3,
        "rag.batch.reduce.tenants": mean(call[2] for call in reduces),
        "rag.batch.reduce.bytes":
            mean(4 * call[2] * side * words * 8 for call in reduces),
        "rag.batch.residual.us":
            mean(_cost(calls, "rag.batch.residual")) / 1e3,
        "rag.batch.repacks_per_kop":
            1e3 * len(_window(calls, "rag.batch.add", phase)) / ops,
        "runtime.gc.pause_ms.max":
            max((pause[1] for pause in pauses), default=0) / 1e6,
        "runtime.gc.busy_frac":
            sum(pause[1] for pause in _in(pauses, phase)) / window_ns,
        "runtime.loop.lag_ms.p99": percentile(lag, 99) / 1e6,
    }


def write_perfetto(path: Path, session, phase, server: dict, rows: list,
                   p99_ns: float) -> int:
    """Write a Chrome/Perfetto ``trace_event`` file; returns the number
    of requests in it (every tail request and 1 in TRACE_SAMPLE_EVERY)."""
    events = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "requests (stages, by request id)"}},
        {"ph": "M", "pid": 2, "name": "process_name",
         "args": {"name": "server thread"}},
        {"ph": "M", "pid": 2, "tid": 1, "name": "thread_name",
         "args": {"name": "layers"}},
        {"ph": "M", "pid": 2, "tid": 2, "name": "thread_name",
         "args": {"name": "gc"}},
    ]
    kept = 0
    for rid, e2e, stages in rows:
        if e2e <= p99_ns and rid % TRACE_SAMPLE_EVERY:
            continue
        kept += 1
        op = session.kinds[rid]
        at = session.due[rid]
        common = {"cat": "request", "id": rid, "pid": 1, "tid": 1}
        events.append({**common, "ph": "b", "name": f"{op} #{rid}",
                       "ts": at / 1e3,
                       "args": {"e2e_us": e2e / 1e3,
                                "tail": e2e > p99_ns}})
        for stage, duration in zip(STAGES, stages):
            events.append({**common, "ph": "b", "name": stage,
                           "ts": at / 1e3})
            at += duration
            events.append({**common, "ph": "e", "name": stage,
                           "ts": at / 1e3})
        events.append({**common, "ph": "e", "name": f"{op} #{rid}",
                       "ts": at / 1e3})
    for name in TRACE_SPANS:
        for start, duration, _extra in _in(
                triples(server["calls"].get(name, [])), phase):
            events.append({"ph": "X", "pid": 2, "tid": 1, "name": name,
                           "ts": start / 1e3, "dur": duration / 1e3})
    for start, duration, generation in _in(triples(server["gc"]), phase):
        events.append({"ph": "X", "pid": 2, "tid": 2,
                       "name": f"gc gen{generation}",
                       "ts": start / 1e3, "dur": duration / 1e3})
    lag = zip(server["lag"][0::2], server["lag"][1::2])
    for at, late in _in(list(lag), phase):
        events.append({"ph": "C", "pid": 2, "name": "loop lag ms",
                       "ts": at / 1e3, "args": {"lag": late / 1e6}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return kept

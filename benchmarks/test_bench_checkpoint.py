"""Benchmark guard: checkpointing costs under 5% of a Table 5 run.

A checkpoint-aware run pays one snapshot of its working state (RAG +
DDU register file) every :data:`~repro.checkpoint.scenario.DEFAULT_CADENCE`
events, so a Table 5 run of ``E`` grant/release events incurs
``E / DEFAULT_CADENCE`` saves in the steady state.  The guard measures
the in-memory snapshot cost (serialize + canonical JSON + sha256) on
the real Jini census state, amortizes it at the default cadence, and
requires the total to stay below 5% of the uninterrupted
``table5_ddu_vs_pdda.run()`` wall time.  Restore is a once-per-crash
cost, not a per-run cost: it is bounded by the run it replaces
(resuming must be cheaper than re-running from scratch).

The durable-write cost (``write_snapshot``: tmp file + fsync + rename)
is dominated by device fsync latency, not by the protocol, so it is
measured and reported in the record but not gated — a CI runner's disk
should not fail the build.  The record is written to
``BENCH_checkpoint.json`` at the repo root (CI uploads it as an
artifact).

A second guard times the service's tenant copy — the snapshot and
restore every attach, refresh and shard move pays — on a 128x128
tenant, and requires each to stay at least
:data:`MIN_TENANT_SPEEDUP` times faster than the same work through the
per-cell :class:`~repro.rag.matrix.StateMatrix` reference.  A ratio of
two timings on one host does not depend on the host's speed.  Both
guards merge their figures into the one record.
"""

import json
import statistics
import time
from pathlib import Path

from benchmarks.conftest import bench_once
from repro.apps.jini import run_jini_app
from repro.checkpoint.protocol import open_envelope, write_snapshot
from repro.checkpoint.scenario import DEFAULT_CADENCE
from repro.deadlock.ddu import DDU
from repro.experiments import table5_ddu_vs_pdda
from repro.framework.builder import build_system
from repro.rag.generate import random_state
from repro.rag.graph import RAG
from repro.rag.matrix import StateMatrix
from repro.service.tenant import SNAPSHOT_KIND as TENANT_KIND
from repro.service.tenant import Tenant

RECORD_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_checkpoint.json"

GRANT_RELEASE = ("resource_granted", "resource_released")

#: The detect-wide tenant shape of the service benchmark.
TENANT_SIDE = 128
#: Tenant snapshot and restore must each beat the per-cell reference
#: by at least this factor.
MIN_TENANT_SPEEDUP = 5.0


def _update_record(fields: dict) -> None:
    """Merge one guard's figures into ``BENCH_checkpoint.json``."""
    record = (json.loads(RECORD_PATH.read_text())
              if RECORD_PATH.exists() else {})
    record.update(fields)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")


def _capture_events(config):
    """(actor, kind, resource) grant/release timeline of one config."""
    system = build_system(config)
    run_jini_app(config, system=system)
    return [(rec.actor, rec.kind, rec.details["resource"])
            for rec in system.soc.trace.filter(
                predicate=lambda r: r.kind in GRANT_RELEASE)]


def _table5_event_count() -> int:
    """Grant/release events across both Table 5 configs."""
    return sum(len(_capture_events(config))
               for config in ("RTOS1", "RTOS2"))


def _jini_working_state():
    """Mid-run working state at the true Jini census size."""
    events = _capture_events("RTOS2")
    processes = sorted({actor for actor, _, _ in events})
    resources = sorted({res for _, _, res in events})
    rag = RAG(processes, resources)
    for actor, kind, resource in events[:len(events) // 2]:
        if kind == "resource_granted":
            rag.grant(resource, actor)
        else:
            rag.release(actor, resource)
    ddu = DDU(len(resources), len(processes))
    ddu.load(StateMatrix.from_rag(rag))
    ddu.detect()
    return rag, ddu


def _best(fn, loops=300, repeats=5) -> float:
    """Per-call seconds: best of ``repeats`` timed loops."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return min(samples)


def _snapshot_restore_costs() -> dict:
    """In-memory protocol cost per save and per restore (seconds)."""
    rag, ddu = _jini_working_state()
    rag_envelope = rag.snapshot_state()
    ddu_envelope = ddu.snapshot_state()
    return {
        "save": _best(
            lambda: (rag.snapshot_state(), ddu.snapshot_state())),
        "restore": _best(
            lambda: (RAG.restore_state(rag_envelope),
                     DDU.restore_state(ddu_envelope))),
    }


def _durable_write_cost(tmp_dir: Path, loops: int = 30) -> float:
    """Seconds per atomic on-disk save (reported, not gated)."""
    rag, ddu = _jini_working_state()
    path = tmp_dir / "bench-checkpoint.json"
    start = time.perf_counter()
    for _ in range(loops):
        write_snapshot(path, rag.snapshot_state())
        write_snapshot(path, ddu.snapshot_state())
    return (time.perf_counter() - start) / loops


def test_bench_checkpoint_under_5_percent_of_table5(benchmark, tmp_path):
    def clean_run_seconds():
        table5_ddu_vs_pdda.run()                      # warm
        samples = []
        for _ in range(9):
            start = time.perf_counter()
            table5_ddu_vs_pdda.run()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    clean_seconds = bench_once(benchmark, clean_run_seconds)

    events = _table5_event_count()
    assert events > 0
    costs = _snapshot_restore_costs()
    # Steady-state: a run of E events incurs E / cadence saves.
    saves_per_run = events / DEFAULT_CADENCE
    overhead = saves_per_run * costs["save"]

    assert overhead < 0.05 * clean_seconds, (
        f"checkpoint overhead {overhead * 1e6:.0f}us "
        f"({saves_per_run:.2f} saves/run x {costs['save'] * 1e6:.0f}us) "
        f"exceeds 5% of the {clean_seconds * 1e3:.2f}ms Table 5 run")
    # Restore replaces a from-scratch re-run; it must be cheaper.
    assert costs["restore"] < clean_seconds, (
        f"restore {costs['restore'] * 1e6:.0f}us costs more than the "
        f"{clean_seconds * 1e3:.2f}ms run it replaces")

    record = {
        "benchmark": "checkpoint_overhead",
        "workload": "table5_ddu_vs_pdda",
        "cadence_steps": DEFAULT_CADENCE,
        "events_per_run": events,
        "saves_per_run": saves_per_run,
        "save_cost_us": costs["save"] * 1e6,
        "restore_cost_us": costs["restore"] * 1e6,
        "durable_write_cost_us": _durable_write_cost(tmp_path) * 1e6,
        "estimated_overhead_us": overhead * 1e6,
        "clean_run_ms": clean_seconds * 1e3,
        "overhead_fraction": overhead / clean_seconds,
        "bound": 0.05,
    }
    _update_record(record)
    benchmark.extra_info["checkpoint_overhead"] = record


def test_bench_snapshot_roundtrip_cost(benchmark):
    """Absolute snapshot->restore->rehash cycle time on a 16x16 state
    (the campaign's largest default census), reported for trending."""
    rag = random_state(16, 16, seed=42)

    def cycle():
        envelope = rag.snapshot_state()
        clone = RAG.restore_state(envelope)
        return clone.snapshot_state()["state_hash"]

    digest = bench_once(benchmark, cycle)
    assert digest == rag.snapshot_state()["state_hash"]


def _reference_tenant_restore(envelope: dict) -> StateMatrix:
    """What :meth:`Tenant.restore_state` does, with the matrix rebuilt
    one cell at a time."""
    state = open_envelope(envelope, kind=TENANT_KIND)
    return StateMatrix.restore_state(state["matrix"])


def test_bench_tenant_snapshot_restore_vs_reference(benchmark):
    spec = {"m": TENANT_SIDE, "n": TENANT_SIDE, "seed": 5}
    tenant = Tenant.from_attach("bench", spec)
    reference = Tenant("bench", StateMatrix.from_matrix(tenant.matrix))
    envelope = tenant.snapshot_state()
    assert (reference.snapshot_state()["state"]["matrix"]["state_hash"]
            == envelope["state"]["matrix"]["state_hash"])

    def cycle():
        return Tenant.restore_state(tenant.snapshot_state())

    restored = bench_once(benchmark, cycle)
    assert restored.snapshot_state()["state_hash"] == envelope["state_hash"]

    snapshot = _best(tenant.snapshot_state, loops=20)
    restore = _best(lambda: Tenant.restore_state(envelope), loops=20)
    snapshot_ref = _best(reference.snapshot_state, loops=3)
    restore_ref = _best(lambda: _reference_tenant_restore(envelope),
                        loops=3)
    fields = {
        "tenant_side": TENANT_SIDE,
        "tenant_snapshot_us": snapshot * 1e6,
        "tenant_restore_us": restore * 1e6,
        "tenant_snapshot_reference_us": snapshot_ref * 1e6,
        "tenant_restore_reference_us": restore_ref * 1e6,
        "tenant_snapshot_speedup": snapshot_ref / snapshot,
        "tenant_restore_speedup": restore_ref / restore,
        "tenant_min_speedup": MIN_TENANT_SPEEDUP,
    }
    _update_record(fields)
    benchmark.extra_info["tenant_snapshot_restore"] = fields
    assert fields["tenant_snapshot_speedup"] >= MIN_TENANT_SPEEDUP, (
        f"{TENANT_SIDE}x{TENANT_SIDE} tenant snapshot "
        f"{snapshot * 1e6:.0f}us is not {MIN_TENANT_SPEEDUP:.0f}x faster "
        f"than the per-cell reference's {snapshot_ref * 1e6:.0f}us")
    assert fields["tenant_restore_speedup"] >= MIN_TENANT_SPEEDUP, (
        f"{TENANT_SIDE}x{TENANT_SIDE} tenant restore "
        f"{restore * 1e6:.0f}us is not {MIN_TENANT_SPEEDUP:.0f}x faster "
        f"than the per-cell reference's {restore_ref * 1e6:.0f}us")

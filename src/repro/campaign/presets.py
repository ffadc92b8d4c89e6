"""Built-in campaigns: ready-made specs for the CLI and CI.

* ``smoke`` — every checker once over small grids; seconds, not
  minutes.  The default for ``python -m repro.campaign run``.
* ``claims`` — the paper's three headline claims (PDDA === oracle,
  DDU === structural, DAU avoidance outcomes) over several hundred
  randomized states; the benchmark and soak substrate.
* ``chaos`` — deliberately includes a crashing and a hanging scenario
  among honest ones, to demonstrate worker isolation and timeouts.
* ``kernels-large`` — 64x64-128x128 matrices through the bitmask fast
  path (see :mod:`repro.rag.bitmatrix`): oracle agreement at every
  size, plus backend-differential scenarios at 64x64, the largest size
  where the per-cell reference matrix is still quick enough to re-run.
* ``service`` — the multi-tenant detection service against a local
  per-tenant oracle, including mid-stream migration and shard-crash
  scenarios (see :mod:`repro.service`).
* ``service-chaos`` — the same oracle discipline with a deterministic
  fault-injecting proxy on the wire and the resilient client doing the
  talking: all eight wire fault kinds, mixed storms, and a shard crash
  under chaos (see :mod:`repro.service.chaos`).
* ``service-shard-kill`` — a real server with worker-process shards,
  one SIGKILLed mid-run, every reply checked against the local oracle
  and the rebalance against the stats: 100 tenants under wire chaos
  and 1,000 tenants.  Run it as
  ``python -m repro.campaign soak --builtin service-shard-kill
  --seed-root 42 --workers 4 --kills 1``.
* ``memory-pressure`` — the SoCDMMU ground down: shadow-model CoW
  storms and fragmentation churn, exhaustion-and-recovery through the
  full OOM ladder (reclaim-retry, RTOS7 -> RTOS5 degradation, scrubbed
  fail-back) under injected refcount/ghost faults, and a SoCDMMU vs
  SoftwareHeap differential (see ``docs/memory_pressure.md``).
"""

from __future__ import annotations

from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.errors import ConfigurationError


def _smoke() -> CampaignSpec:
    return CampaignSpec(name="smoke", scenarios=(
        ScenarioSpec(name="pdda-random", generator="rag.random",
                     checker="pdda-vs-oracle",
                     params={"m": [3, 5], "n": [3, 5]}, repeats=4),
        ScenarioSpec(name="ddu-random", generator="rag.random",
                     checker="ddu-vs-structural",
                     params={"m": [4], "n": [4, 6]}, repeats=4),
        ScenarioSpec(name="ddu-structured", generator="rag.chain",
                     checker="ddu-vs-structural",
                     params={"length": [2, 5, 9]}),
        ScenarioSpec(name="dau-traffic", generator="census",
                     checker="dau-invariants",
                     params={"m": 5, "n": 5, "events": [40]}, repeats=4),
        ScenarioSpec(name="multiunit", generator="multiunit.random",
                     checker="multiunit-vs-projection",
                     params={"m": 4, "n": 4, "max_units": [1, 3]},
                     repeats=4),
        ScenarioSpec(name="recovery", generator="rag.random",
                     checker="recovery-converges",
                     params={"m": 5, "n": 5, "grant_fraction": 0.85,
                             "request_fraction": 0.5,
                             "strategy": ["lowest-priority",
                                          "fewest-resources"]},
                     repeats=4),
        ScenarioSpec(name="sim", generator="preset",
                     checker="sim-run-completes",
                     params={"preset": ["RTOS1", "RTOS2", "RTOS3",
                                        "RTOS4", "RTOS5", "RTOS6",
                                        "RTOS7"]}),
    ))


def _claims() -> CampaignSpec:
    return CampaignSpec(name="claims", scenarios=(
        ScenarioSpec(name="pdda-oracle", generator="rag.random",
                     checker="pdda-vs-oracle",
                     params={"m": [3, 5, 8], "n": [3, 5, 8],
                             "grant_fraction": [0.5, 0.8]},
                     repeats=8),
        ScenarioSpec(name="pdda-free", generator="rag.deadlock_free",
                     checker="pdda-vs-oracle",
                     params={"m": [4, 6], "n": [4, 6]}, repeats=6),
        ScenarioSpec(name="ddu-structural", generator="rag.random",
                     checker="ddu-vs-structural",
                     params={"m": [4, 6], "n": [4, 6],
                             "grant_fraction": [0.6, 0.9]},
                     repeats=6),
        ScenarioSpec(name="dau-avoidance", generator="census",
                     checker="dau-invariants",
                     params={"m": [4, 5], "n": [4, 5],
                             "events": [60]}, repeats=4),
        ScenarioSpec(name="recovery", generator="rag.random",
                     checker="recovery-converges",
                     params={"m": [5, 7], "n": [5, 7],
                             "grant_fraction": 0.85,
                             "request_fraction": 0.5,
                             "strategy": ["lowest-priority",
                                          "fewest-resources",
                                          "youngest-request"]},
                     repeats=4),
    ))


def _chaos() -> CampaignSpec:
    return CampaignSpec(name="chaos", scenarios=(
        ScenarioSpec(name="honest", generator="rag.random",
                     checker="pdda-vs-oracle",
                     params={"m": 5, "n": 5}, repeats=6),
        ScenarioSpec(name="crash", generator="census",
                     checker="chaos.crash", params={"m": 2, "n": 2}),
        ScenarioSpec(name="hang", generator="census",
                     checker="chaos.hang",
                     params={"m": 2, "n": 2, "seconds": 30.0}),
    ))


def _kernels_large() -> CampaignSpec:
    return CampaignSpec(name="kernels-large", scenarios=(
        ScenarioSpec(name="pdda-large-random", generator="rag.random",
                     checker="pdda-vs-oracle",
                     params={"m": [64, 96, 128], "n": [64, 96, 128],
                             "grant_fraction": [0.6, 0.9],
                             "request_fraction": 0.4},
                     repeats=2),
        ScenarioSpec(name="pdda-large-worst", generator="rag.worst_case",
                     checker="pdda-vs-oracle",
                     params={"m": [64, 128], "n": [64, 128]}),
        ScenarioSpec(name="pdda-large-free", generator="rag.deadlock_free",
                     checker="pdda-vs-oracle",
                     params={"m": [96], "n": [96]}, repeats=2),
        ScenarioSpec(name="ddu-large", generator="rag.random",
                     checker="ddu-vs-structural",
                     params={"m": [64, 128], "n": [64],
                             "grant_fraction": [0.6, 0.9]},
                     repeats=2),
        ScenarioSpec(name="backends-random", generator="rag.random",
                     checker="pdda-backends-agree",
                     params={"m": [64], "n": [64],
                             "grant_fraction": [0.5, 0.8],
                             "request_fraction": 0.4},
                     repeats=2),
        # Sides past one machine word: the checker holds the bitmask
        # kernel bit-identical to the reference on wide matrices.
        ScenarioSpec(name="backends-multiword", generator="rag.random",
                     checker="pdda-backends-agree",
                     params={"m": [65, 100, 128], "n": [65, 128],
                             "grant_fraction": [0.6],
                             "request_fraction": 0.4}),
        ScenarioSpec(name="backends-worst", generator="rag.worst_case",
                     checker="pdda-backends-agree",
                     params={"m": [64, 96], "n": [64]}),
        ScenarioSpec(name="backends-free", generator="rag.deadlock_free",
                     checker="pdda-backends-agree",
                     params={"m": [64], "n": [64]}, repeats=2),
    ))


def _faults() -> CampaignSpec:
    """Hardware fault injection and graceful degradation.

    Unit-level scenarios grind the never-a-wrong-verdict invariant per
    fault model; the ``rtos*`` scenarios run faulted full systems and
    assert the expected degradation events — including at least one
    complete RTOS2 -> RTOS1 and RTOS4 -> RTOS3 failover *and* fail-back.
    """
    return CampaignSpec(name="faults", scenarios=(
        ScenarioSpec(name="detect-storm", generator="census",
                     checker="faults.detection-verdicts",
                     params={"m": 4, "n": 4, "model": "cycle-storm",
                             "duration": [4, 8], "events": 60},
                     repeats=2),
        ScenarioSpec(name="detect-upsets", generator="census",
                     checker="faults.detection-verdicts",
                     params={"m": 4, "n": 4, "events": 60,
                             "model": ["matrix-transient", "matrix-stuck",
                                       "command-drop", "command-corrupt",
                                       "status-stale", "unit-hang"]},
                     repeats=2),
        ScenarioSpec(name="avoid-traffic", generator="census",
                     checker="faults.avoidance-verdicts",
                     params={"m": 4, "n": 4, "events": 60,
                             "model": ["command-drop", "command-corrupt",
                                       "unit-hang"]},
                     repeats=2),
        ScenarioSpec(name="bus-retries", generator="census",
                     checker="faults.bus-retries",
                     params={"m": 2, "n": 2, "transfers": [6, 10]}),
        ScenarioSpec(name="rtos2-storm", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS2", "model": "cycle-storm",
                             "duration": 4, "rounds": 2,
                             "expect": [["anomaly:verdict", "failover",
                                         "failback"]]}),
        ScenarioSpec(name="rtos2-hang", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS2", "model": "unit-hang",
                             "duration": 2, "rounds": 2,
                             "expect": [["anomaly:hang", "failover",
                                         "failback", "watchdog-trip"]]}),
        ScenarioSpec(name="rtos2-port", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS2", "model": "unit-port",
                             "duration": 2, "rounds": 2,
                             "expect": [["anomaly:bus", "retry"]]}),
        ScenarioSpec(name="rtos4-hang", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS4", "model": "unit-hang",
                             "unit": "dau", "duration": 2, "rounds": 2,
                             "expect": [["anomaly:hang", "failover",
                                         "failback", "watchdog-trip"]]}),
        ScenarioSpec(name="rtos4-corrupt", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS4", "model": "command-corrupt",
                             "unit": "dau", "duration": 2, "rounds": 2,
                             "expect": [["anomaly:verdict", "failover",
                                         "failback"]]}),
        ScenarioSpec(name="rtos6-interrupt", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS6", "model": "soclc-drop",
                             "duration": 2, "rounds": 2,
                             "expect": [["interrupt-lost",
                                         "interrupt-redelivered"]]}),
        ScenarioSpec(name="rtos7-table", generator="preset.faulty",
                     checker="faults.degrades-gracefully",
                     params={"preset": "RTOS7", "rounds": 3,
                             "model": ["socdmmu-leak", "socdmmu-steal"],
                             "expect": [["audit-repair"]]}),
    ))


def _service() -> CampaignSpec:
    """The multi-tenant detection service against a local oracle.

    Every scenario drives a real :class:`DetectionService` (in-process
    shards, batched detects) and compares each response — grants,
    promotions, ``op_seq``, verdicts with iteration/pass counts —
    against a local per-tenant replay; the ``migrating`` and
    ``crashing`` scenarios interrupt the stream with live migrations
    and a shard kill, which must not perturb a single response.
    """
    return CampaignSpec(name="service", scenarios=(
        ScenarioSpec(name="steady", generator="service.population",
                     checker="service.vs-local",
                     params={"tenants": [4, 8], "m": 8, "n": 8,
                             "events": 25}, repeats=2),
        ScenarioSpec(name="wide", generator="service.population",
                     checker="service.vs-local",
                     params={"tenants": 6, "m": [16, 32], "n": 16,
                             "events": 20}),
        # 128x128 tenants end-to-end: the oracle replay catches any
        # divergence from the solo kernel at full width.
        ScenarioSpec(name="wide-multiword", generator="service.population",
                     checker="service.vs-local",
                     params={"tenants": 3, "m": 128, "n": 128,
                             "events": 12}),
        ScenarioSpec(name="migrating", generator="service.population",
                     checker="service.vs-local",
                     params={"tenants": 6, "m": 8, "n": 8,
                             "events": 24, "migrate": True}, repeats=2),
        ScenarioSpec(name="crashing", generator="service.population",
                     checker="service.vs-local",
                     params={"tenants": 6, "m": 8, "n": 8,
                             "events": 24, "crash": True}, repeats=2),
    ))


def _service_chaos() -> CampaignSpec:
    """The service behind a misbehaving wire (see ``service.chaos.*``).

    Every scenario puts a :class:`~repro.service.chaos.ChaosTransport`
    between a :class:`ResilientServiceClient` and a real service, and
    cross-checks every answered request — plus each tenant's closing
    ``state_hash`` — against the local oracle twin: retries, reconnects
    and dedups are expected; a single divergent response fails the
    scenario.  Covers all eight wire fault kinds individually, three
    mixed plans, the full all-kinds storm, and a shard crash *under*
    chaos (journal replay must dedup retried mutations too).
    """
    kinds = ["delay", "drop", "duplicate", "reorder", "truncate",
             "corrupt", "reset", "slow_loris"]
    return CampaignSpec(name="service-chaos", scenarios=(
        # One scenario per fault kind (x2 repeats = 16 scenarios).
        ScenarioSpec(name="kind", generator="service.population",
                     checker="service.chaos-vs-local",
                     params={"tenants": 3, "m": 8, "n": 8, "events": 10,
                             "chaos": [[kind] for kind in kinds]},
                     repeats=2),
        ScenarioSpec(name="mixed-loss", generator="service.population",
                     checker="service.chaos-vs-local",
                     params={"tenants": 3, "m": 8, "n": 8, "events": 10,
                             "chaos": [["drop", "duplicate", "delay"]]},
                     repeats=2),
        ScenarioSpec(name="mixed-mangle", generator="service.population",
                     checker="service.chaos-vs-local",
                     params={"tenants": 3, "m": 8, "n": 8, "events": 10,
                             "chaos": [["truncate", "corrupt",
                                        "slow_loris"]]},
                     repeats=2),
        ScenarioSpec(name="mixed-disconnect",
                     generator="service.population",
                     checker="service.chaos-vs-local",
                     params={"tenants": 3, "m": 8, "n": 8, "events": 10,
                             "chaos": [["reset", "delay",
                                        "slow_loris"]]},
                     repeats=2),
        ScenarioSpec(name="all-kinds", generator="service.population",
                     checker="service.chaos-vs-local",
                     params={"tenants": 3, "m": 8, "n": 8, "events": 12,
                             "chaos": [kinds]},
                     repeats=2),
        ScenarioSpec(name="crash-under-chaos",
                     generator="service.population",
                     checker="service.chaos-vs-local",
                     params={"tenants": 4, "m": 8, "n": 8, "events": 12,
                             "chaos": [["drop", "reset"]],
                             "crash": True},
                     repeats=2),
    ))


def _service_shard_kill() -> CampaignSpec:
    """A real server loses a worker shard mid-run (``service.shard-kill``).

    Each scenario starts ``python -m repro.service`` with process
    shards, SIGKILLs the busiest shard halfway through, and checks every
    reply against the local oracle and the rebalance against the
    stats: 100 tenants on 2 shards under drop/duplicate/reset wire
    chaos, and 1,000 tenants on 4 shards.
    """
    return CampaignSpec(name="service-shard-kill", scenarios=(
        ScenarioSpec(name="chaos", generator="service.population",
                     checker="service.shard-kill",
                     params={"tenants": 100, "shards": 2, "m": 12, "n": 12,
                             "chaos": [["drop", "duplicate", "reset"]]},
                     repeats=2),
        ScenarioSpec(name="1k-tenants", generator="service.population",
                     checker="service.shard-kill",
                     params={"tenants": 1000, "shards": 4, "m": 12,
                             "n": 12},
                     repeats=2),
    ))


def _memory_pressure() -> CampaignSpec:
    """The SoCDMMU under adversarial memory pressure.

    ``cow-storm`` and ``fragmentation`` grind the allocator datapath
    against an independent shadow model (no double-grant, refcounts
    exact, audits lose no block); ``exhaustion-*`` walk the whole OOM
    ladder — reclaim-retry off a dead task, failover to the software
    heap, scrub-probed fail-back — with and without injected
    refcount/ghost faults; ``vs-software`` holds the SoCDMMU and the
    RTOS5 software heap to the same seeded script op-for-op.
    """
    return CampaignSpec(name="memory-pressure", scenarios=(
        ScenarioSpec(name="cow-storm", generator="preset.pressure",
                     checker="memory.cow-storm",
                     params={"blocks": [24, 48], "block_kb": 4,
                             "ops": 4000, "owners": 6}, repeats=3),
        ScenarioSpec(name="fragmentation", generator="preset.pressure",
                     checker="memory.cow-storm",
                     params={"blocks": 16, "block_kb": 4, "ops": 2500,
                             "owners": 4, "hold_max": 12,
                             "corrupt_every": 97}, repeats=3),
        ScenarioSpec(name="exhaustion-recovery",
                     generator="preset.pressure",
                     checker="memory.exhaustion-recovery",
                     params={"blocks": [12, 20], "block_kb": 4,
                             "model": "none"}, repeats=2),
        ScenarioSpec(name="exhaustion-faulted",
                     generator="preset.pressure",
                     checker="memory.exhaustion-recovery",
                     params={"blocks": 16, "block_kb": 4,
                             "model": ["socdmmu-refcount",
                                       "socdmmu-exhaust",
                                       "socdmmu-mixed"]}, repeats=2),
        ScenarioSpec(name="vs-software", generator="preset.pressure",
                     checker="memory.vs-software",
                     params={"blocks": 64, "block_kb": 4, "ops": 120},
                     repeats=2),
    ))


BUILTIN_CAMPAIGNS = {
    "smoke": _smoke,
    "claims": _claims,
    "chaos": _chaos,
    "faults": _faults,
    "kernels-large": _kernels_large,
    "service": _service,
    "service-chaos": _service_chaos,
    "service-shard-kill": _service_shard_kill,
    "memory-pressure": _memory_pressure,
}


def builtin_campaign(name: str) -> CampaignSpec:
    """Look up a built-in campaign by name."""
    try:
        return BUILTIN_CAMPAIGNS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown built-in campaign {name!r}; available: "
            f"{sorted(BUILTIN_CAMPAIGNS)}") from None

"""Scenario generators and checkers (the campaign's registries).

A *generator* builds the subject under test — a RAG, a multi-unit
system, a process/resource census, or a whole built RTOS/MPSoC — from a
scenario's parameter dict and its private seeded RNG.  A *checker*
grinds the subject against one of the paper's claims and returns a
:class:`CheckOutcome`.  Both registries are keyed by short stable names
so scenarios serialize to JSON and replay anywhere.

Every generator and checker takes ``(params, rng)`` /
``(subject, params, rng)`` with a :class:`random.Random` owned by the
scenario (seeded from the run's seed root, see
:func:`repro.campaign.spec.derive_seed`); none touches the ambient
``random`` module, which is what makes campaigns bit-for-bit
replayable.

The ``chaos.*`` checkers are deliberate fault injectors (hard process
exit, hang) used to test — and demonstrate — the runner's worker-crash
isolation and per-task timeout handling.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.deadlock.dau import DAU
from repro.deadlock.ddu import DDU, iteration_bound
from repro.deadlock.pdda import pdda_detect
from repro.deadlock.recovery import apply_plan, plan_recovery
from repro.errors import AllocationError, ConfigurationError, ServiceError
from repro.framework.builder import build_system
from repro.rag.bitmatrix import FAST_BACKEND, REFERENCE_BACKEND
from repro.rag.generate import (
    chain_state,
    cycle_state,
    deadlock_free_state,
    random_multiunit_state,
    random_state,
    worst_case_state,
)

#: name -> fn(params, rng) -> subject
GENERATORS: dict[str, Callable] = {}
#: name -> fn(subject, params, rng) -> CheckOutcome
CHECKERS: dict[str, Callable] = {}


def generator(name: str) -> Callable:
    def register(fn: Callable) -> Callable:
        GENERATORS[name] = fn
        return fn
    return register


def checker(name: str) -> Callable:
    def register(fn: Callable) -> Callable:
        CHECKERS[name] = fn
        return fn
    return register


def lookup(kind: str, name: str) -> Callable:
    registry = GENERATORS if kind == "generator" else CHECKERS
    try:
        return registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: "
            f"{sorted(registry)}") from None


@dataclass(frozen=True)
class CheckOutcome:
    """What one checker concluded about one scenario."""

    ok: bool
    #: "pass" or "fail" — infrastructure verdicts ("error", "timeout",
    #: "crash") are assigned by the runner, never by a checker.
    verdict: str
    #: Algorithm steps taken (reduction iterations, decisions, ...).
    steps: int = 0
    #: Modelled cost in bus cycles (hardware or software model).
    cycles: float = 0.0
    detail: str = ""


def _passed(steps: int = 0, cycles: float = 0.0,
            detail: str = "") -> CheckOutcome:
    return CheckOutcome(ok=True, verdict="pass", steps=steps,
                        cycles=cycles, detail=detail)


def _failed(detail: str, steps: int = 0,
            cycles: float = 0.0) -> CheckOutcome:
    return CheckOutcome(ok=False, verdict="fail", steps=steps,
                        cycles=cycles, detail=detail)


# -- generators ---------------------------------------------------------------

@generator("rag.random")
def _gen_rag_random(params: Mapping[str, Any], rng: random.Random):
    return random_state(int(params.get("m", 5)), int(params.get("n", 5)),
                        grant_fraction=params.get("grant_fraction", 0.6),
                        request_fraction=params.get("request_fraction", 0.3),
                        rng=rng)


@generator("rag.deadlock_free")
def _gen_rag_free(params: Mapping[str, Any], rng: random.Random):
    return deadlock_free_state(int(params.get("m", 5)),
                               int(params.get("n", 5)), rng=rng)


@generator("rag.cycle")
def _gen_rag_cycle(params: Mapping[str, Any], rng: random.Random):
    return cycle_state(int(params.get("length", 4)))


@generator("rag.chain")
def _gen_rag_chain(params: Mapping[str, Any], rng: random.Random):
    return chain_state(int(params.get("length", 4)))


@generator("rag.worst_case")
def _gen_rag_worst(params: Mapping[str, Any], rng: random.Random):
    return worst_case_state(int(params.get("m", 5)),
                            int(params.get("n", 5)))


@generator("multiunit.random")
def _gen_multiunit(params: Mapping[str, Any], rng: random.Random):
    return random_multiunit_state(
        int(params.get("m", 4)), int(params.get("n", 4)),
        max_units=int(params.get("max_units", 1)),
        grant_fraction=params.get("grant_fraction", 0.6),
        request_fraction=params.get("request_fraction", 0.3),
        rng=rng)


@generator("census")
def _gen_census(params: Mapping[str, Any], rng: random.Random):
    """Bare (processes, resources, priorities) names, no state."""
    m = int(params.get("m", 5))
    n = int(params.get("n", 5))
    processes = tuple(f"p{t + 1}" for t in range(n))
    resources = tuple(f"q{s + 1}" for s in range(m))
    priorities = {p: i + 1 for i, p in enumerate(processes)}
    return (processes, resources, priorities)


@generator("preset")
def _gen_preset(params: Mapping[str, Any], rng: random.Random):
    """A built RTOS/MPSoC from a Table 3 preset (RTOS1..RTOS7)."""
    return build_system(params.get("preset", "RTOS2"))


# -- checkers: the paper's claims ---------------------------------------------

@checker("pdda-vs-oracle")
def _check_pdda(rag, params: Mapping[str, Any],
                rng: random.Random) -> CheckOutcome:
    """PDDA === structural cycle oracle, within the proven step bound."""
    oracle = rag.has_cycle()
    result = pdda_detect(rag)
    bound = iteration_bound(rag.num_resources, rag.num_processes)
    if result.deadlock != oracle:
        return _failed(f"PDDA says {result.deadlock}, oracle says "
                       f"{oracle}", steps=result.iterations,
                       cycles=result.software_cycles)
    if result.iterations > bound:
        return _failed(f"{result.iterations} iterations exceeds the "
                       f"O(min(m,n)) bound {bound}",
                       steps=result.iterations,
                       cycles=result.software_cycles)
    return _passed(steps=result.iterations,
                   cycles=result.software_cycles,
                   detail=f"deadlock={result.deadlock}")


@checker("ddu-vs-structural")
def _check_ddu(rag, params: Mapping[str, Any],
               rng: random.Random) -> CheckOutcome:
    """The DDU cycle model agrees with the oracle and with PDDA."""
    ddu = DDU(rag.num_resources, rag.num_processes)
    ddu.load(rag)
    hw = ddu.detect()
    oracle = rag.has_cycle()
    sw = pdda_detect(rag)
    if hw.deadlock != oracle:
        return _failed(f"DDU says {hw.deadlock}, oracle says {oracle}",
                       steps=hw.iterations, cycles=hw.cycles)
    if hw.deadlock != sw.deadlock or hw.iterations != sw.iterations:
        return _failed(
            f"DDU ({hw.deadlock}, {hw.iterations} iters) disagrees with "
            f"PDDA ({sw.deadlock}, {sw.iterations} iters)",
            steps=hw.iterations, cycles=hw.cycles)
    if hw.iterations > ddu.iteration_bound:
        return _failed(f"{hw.iterations} iterations exceeds the unit "
                       f"bound {ddu.iteration_bound}",
                       steps=hw.iterations, cycles=hw.cycles)
    return _passed(steps=hw.iterations, cycles=hw.cycles,
                   detail=f"deadlock={hw.deadlock}")


@checker("pdda-backends-agree")
def _check_backends(rag, params: Mapping[str, Any],
                    rng: random.Random) -> CheckOutcome:
    """The bitmask backend is bit-identical to the reference matrix.

    Runs PDDA on the frontier-sweep :class:`repro.rag.bitmatrix.BitMatrix`
    and on the cell-object reference, and demands the same verdict,
    iteration/pass counts, modelled cycles and residual edges.  This is
    the campaign-side differential oracle for the one fast kernel.
    """
    reference = pdda_detect(rag, backend=REFERENCE_BACKEND)
    got = pdda_detect(rag, backend=FAST_BACKEND)
    ref_counts = (reference.deadlock, reference.iterations,
                  reference.passes, reference.software_cycles)
    counts = (got.deadlock, got.iterations, got.passes,
              got.software_cycles)
    if counts != ref_counts:
        return _failed(f"{FAST_BACKEND} {counts} != reference {ref_counts}",
                       steps=got.iterations, cycles=got.software_cycles)
    if got.residual != reference.residual:
        return _failed(
            f"residual matrices differ: {FAST_BACKEND} vs reference",
            steps=got.iterations, cycles=got.software_cycles)
    return _passed(steps=got.iterations, cycles=got.software_cycles,
                   detail=f"deadlock={got.deadlock} passes={got.passes}")


def _avoidance_traffic(census, events: int, rng: random.Random, rag_of,
                       decide, withdraw=None) -> tuple:
    """``events`` random legal ops on ``rag_of()``, each settled with
    every ``ask_release`` it causes honored (at most 10·|P|·|R|
    decisions), after which the RAG must be deadlock-free.
    ``decide(op, process, resource)`` returns the ``ask_release`` pairs
    or a failure message; ``withdraw`` adds pending-request withdrawals
    to the ops.  Returns the decisions made and the first failure.
    """
    processes, resources, _priorities = census
    bound = 10 * len(processes) * len(resources)
    decisions = 0
    for step in range(events):
        rag = rag_of()
        ops: list = []
        for p in processes:
            held = set(rag.held_by(p))
            pending = set(rag.requests_of(p))
            ops.extend(("request", p, r) for r in resources
                       if r not in held and r not in pending)
            ops.extend(("release", p, r) for r in sorted(held))
            if withdraw is not None:
                ops.extend(("withdraw", p, r) for r in sorted(pending))
        if not ops:
            break
        demands = [rng.choice(ops)]
        if demands[0][0] == "withdraw":
            withdraw(*demands[0][1:])
            continue
        cascade = 0
        while demands:
            cascade += 1
            if cascade > bound:
                return decisions, "ask_release cascade did not converge"
            op, proc, res = demands.pop(0)
            decisions += 1
            asked = decide(op, proc, res)
            if isinstance(asked, str):
                return decisions, asked
            demands.extend(("release", q_proc, q_res)
                           for q_proc, q_res in asked
                           if rag_of().holder_of(q_res) == q_proc)
        if pdda_detect(rag_of()).deadlock:
            return decisions, (f"RAG deadlocked after event {step} with "
                               "every ask_release honored")
    return decisions, None


@checker("dau-invariants")
def _check_dau(census, params: Mapping[str, Any],
               rng: random.Random) -> CheckOutcome:
    """Drive a DAU with random traffic from cooperative tasks.

    Tasks honor every ``ask_release`` demand (Assumption 3), so after
    each decision cascade the RAG must be deadlock-free again — the
    paper's avoidance outcome — and every decision must respect the
    Table 2 worst-case step bound and publish a coherent status
    register.
    """
    processes, resources, priorities = census
    dau = DAU(processes, resources, priorities)
    max_cycles = 0.0

    def decide(op: str, proc: str, res: str):
        nonlocal max_cycles
        decision = dau.write_command(f"PE_{proc}", op, proc, res)
        max_cycles = max(max_cycles, decision.cycles)
        if decision.cycles > dau.worst_case_steps:
            return (f"decision cost {decision.cycles} exceeds worst-case "
                    f"bound {dau.worst_case_steps}")
        status = dau.read_status(proc)
        if status.busy or not status.done:
            return f"status register of {proc} not settled after a decision"
        flags = [status.successful, status.pending, status.give_up]
        if sum(flags) != 1:
            return (f"incoherent status flags for {proc}: "
                    f"successful={status.successful} "
                    f"pending={status.pending} give_up={status.give_up}")
        return decision.ask_release

    decisions, failure = _avoidance_traffic(
        census, int(params.get("events", 60)), rng, lambda: dau.rag,
        decide, withdraw=dau.withdraw)
    if failure:
        return _failed(failure, steps=decisions, cycles=max_cycles)
    return _passed(steps=decisions, cycles=max_cycles,
                   detail=f"{decisions} decisions, max "
                          f"{max_cycles:g} cycles")


@checker("multiunit-vs-projection")
def _check_multiunit(system, params: Mapping[str, Any],
                     rng: random.Random) -> CheckOutcome:
    """Coffman detection is deterministic; single-unit states must
    agree with PDDA through the RAG projection."""
    first = system.detect()
    second = system.copy().detect()
    if first != second:
        return _failed("detection is not deterministic",
                       steps=first.operations)
    stuck = [p for p in first.deadlocked_processes
             if not any(system.outstanding_request(p, q) > 0
                        for q in system.resources)]
    if stuck:
        return _failed(f"deadlocked processes without outstanding "
                       f"requests: {stuck}", steps=first.operations)
    single_unit = all(system.total_units(q) == 1 for q in system.resources)
    if single_unit:
        sw = pdda_detect(system.to_rag())
        if sw.deadlock != first.deadlock:
            return _failed(
                f"multi-unit detection says {first.deadlock}, PDDA on "
                f"the projection says {sw.deadlock}",
                steps=first.operations)
    return _passed(steps=first.operations,
                   detail=f"deadlock={first.deadlock} "
                          f"single_unit={single_unit}")


@checker("recovery-converges")
def _check_recovery(rag, params: Mapping[str, Any],
                    rng: random.Random) -> CheckOutcome:
    """Recovery planning breaks every cycle, for every strategy."""
    detection = pdda_detect(rag)
    if not detection.deadlock:
        return _passed(detail="no deadlock to recover from")
    strategy = params.get("strategy", "lowest-priority")
    priorities = {p: i + 1 for i, p in enumerate(rag.processes)}
    plan = plan_recovery(rag, priorities, strategy)
    scratch = rag.copy()
    apply_plan(scratch, plan)          # raises if a cycle survives
    if pdda_detect(scratch).deadlock:
        return _failed(f"residual deadlock after plan {plan.victims}",
                       steps=len(plan.steps), cycles=plan.cost)
    return _passed(steps=len(plan.steps), cycles=plan.cost,
                   detail=f"victims={','.join(plan.victims)}")


def _worker(ctx, work: float, rounds: int = 1, resources: tuple = (),
            lock: str | None = None, malloc: int = 0):
    """``rounds`` x (acquire ``resources`` in order, ``lock``, malloc
    ``malloc`` bytes, compute ``work``, free, unlock, release in
    reverse); every piece but the compute is optional."""
    for _ in range(rounds):
        for resource in resources:
            yield from ctx.acquire(resource)
        if lock is not None:
            yield from ctx.lock(lock)
        address = (yield from ctx.malloc(malloc)) if malloc else None
        yield from ctx.compute(work)
        if malloc:
            yield from ctx.free(address)
        if lock is not None:
            yield from ctx.unlock(lock)
        for resource in reversed(resources):
            yield from ctx.release_resource(resource)


def _run_workers(system, draw: Callable, horizon: float) -> tuple:
    """Task ``p<i>`` = :func:`_worker` with ``draw()``'s arguments at
    priority ``i`` on ``PE<i>``, run to ``horizon``.  Returns the end
    time and a failure if a task never finished or leaked, else None."""
    kernel = system.kernel
    processes = tuple(f"p{i + 1}" for i in range(system.config.num_pes))
    for index, name in enumerate(processes):
        task = draw()
        kernel.create_task(lambda ctx, task=task: _worker(ctx, **task),
                           name, index + 1, f"PE{index + 1}")
    end = kernel.run(until=horizon)
    if not kernel.finished():
        unfinished = [name for name in processes
                      if not kernel.finished(name)]
        return end, _failed(f"tasks never finished: {unfinished}",
                            cycles=end)
    if kernel.leaks:
        return end, _failed(f"finished with leaks: {kernel.leaks}",
                            cycles=end)
    return end, None


@checker("sim-run-completes")
def _check_sim(system, params: Mapping[str, Any],
               rng: random.Random) -> CheckOutcome:
    """A randomized full-system workload runs to completion.

    One task per PE performs globally-ordered resource acquisition (so
    the workload itself is deadlock-free), dynamic allocation and
    computation; the run must finish every task before the horizon with
    no leaked resources.
    """
    resources = tuple(system.config.peripherals)
    if system.config.soclc:
        # The SoCLC binds named locks to hardware cells up front;
        # ceiling 1 = the highest task priority in this workload.
        for i in range(4):
            system.lock_manager.register_lock(f"L{i}", kind="long",
                                              ceiling=1)

    def draw() -> dict:
        task = {"work": float(rng.randint(500, 3000)), "malloc": 4096}
        if system.resource_service is None:
            task["lock"] = f"L{rng.randint(0, 3)}"
        else:
            count = rng.randint(1, min(3, len(resources)))
            task["resources"] = tuple(sorted(rng.sample(resources, count),
                                             key=resources.index))
        return task

    end, failure = _run_workers(system, draw,
                                float(params.get("horizon", 2_000_000)))
    return failure or _passed(steps=system.config.num_pes, cycles=end,
                              detail=f"{system.name} finished at {end:g}")


# -- service checkers (the repro.service front end) ---------------------------

@generator("service.population")
def _gen_service_population(params: Mapping[str, Any],
                            rng: random.Random):
    """Attach specs for a tenant population, seeded from the scenario.

    Returns a tuple of ``(tenant_id, spec)`` pairs; every tenant gets
    its own derived seed, so the population is reproducible from the
    campaign's seed root alone.
    """
    tenants = int(params.get("tenants", 6))
    m = int(params.get("m", 8))
    n = int(params.get("n", 8))
    return tuple(
        (f"t{i}", {"seed": rng.randrange(2 ** 31), "m": m, "n": n,
                   "grant_fraction": params.get("grant_fraction", 0.6),
                   "request_fraction": params.get("request_fraction",
                                                  0.3)})
        for i in range(tenants))


async def replay_op(client, oracle, tenant: str, kind: str,
                    process: str | None = None,
                    resource: str | None = None) -> str | None:
    """Send one tenant op and check the reply against the local oracle.

    ``oracle`` is the tenant's local :class:`~repro.service.tenant.Tenant`
    twin.  A ``claim`` or ``release`` is applied to it before the request
    goes out, so it tracks the mutation prefix the service accepted: the
    reply must fail with the same error code, or else agree on
    ``granted`` (claim) or ``promoted`` (release), then on ``op_seq``.
    A ``detect`` reply must agree with a solo :meth:`BitMatrix.reduce`
    of the twin's matrix on the verdict, the iteration and pass counts
    and ``op_seq``.  ``client`` is anything with an awaitable
    ``request(op, **fields)`` — a ``ServiceClient`` or a
    ``ResilientServiceClient``.  Returns a mismatch message, or ``None``
    when the reply matches.
    """
    from repro.service import ServiceOpError

    if kind == "detect":
        reply = await client.request("detect", tenant=tenant)
        solo = oracle.matrix.copy()
        iterations, passes = solo.reduce()
        expected = (not solo.is_empty(), iterations, passes, oracle.op_seq)
        got = (reply["deadlock"], reply["iterations"], reply["passes"],
               reply["op_seq"])
        return (None if got == expected else
                f"{tenant} detect: service {got} != oracle {expected}")
    op = {"process": process, "resource": resource}
    apply = oracle.claim if kind == "claim" else oracle.release
    try:
        expected, expected_code = apply(op), None
    except ServiceOpError as exc:
        expected, expected_code = None, exc.code
    try:
        got, got_code = await client.request(kind, tenant=tenant, **op), None
    except ServiceOpError as exc:
        got, got_code = None, exc.code
    if got_code != expected_code:
        return (f"{tenant} {kind}: service error {got_code} != oracle "
                f"{expected_code}")
    if expected is not None:
        for key in ("granted" if kind == "claim" else "promoted", "op_seq"):
            if got[key] != expected[key]:
                return (f"{tenant} {kind}: {key} {got[key]!r} != oracle "
                        f"{expected[key]!r}")
    return None


async def _start_service(params: Mapping[str, Any]):
    """A real TCP :class:`DetectionService` with in-process shards."""
    from repro.service import DetectionService, ServiceConfig

    service = DetectionService(ServiceConfig(
        shards=int(params.get("shards", 2)), use_processes=False,
        tick_interval=0.001, snapshot_every=8))
    await service.start(host="127.0.0.1", port=0)
    return service


def _draw_op(script: random.Random, oracle) -> tuple:
    """A scripted claim (60%) or release (40%) of a random cell of the
    tenant ``oracle``'s matrix, as ``(kind, process, resource)``."""
    process = f"p{script.randrange(1, oracle.matrix.n + 1)}"
    resource = f"q{script.randrange(1, oracle.matrix.m + 1)}"
    return ("release" if script.random() < 0.4 else "claim",
            process, resource)


async def _replay_stream(client, service, population,
                         params: Mapping[str, Any], events: int,
                         script_seed: int) -> tuple[dict, int, str | None]:
    """Attach ``population``, then check a seeded op stream op by op.

    Each of ``events`` steps sends every tenant one op through
    :func:`replay_op`: a ``detect`` on every fifth step, else a scripted
    claim or release (:func:`_draw_op`).  At the midpoint,
    ``params["migrate"]`` live-migrates every tenant to the next shard
    and ``params["crash"]`` kills the first tenant's shard; neither may
    perturb a single reply.  Returns the oracle twins, the ops checked
    and the first mismatch (``None`` when every reply matched).
    """
    import asyncio

    from repro.service.tenant import Tenant

    shards = int(params.get("shards", 2))
    oracles: dict = {}
    for tenant_id, spec in population:
        await client.attach(tenant_id, **spec)
        oracles[tenant_id] = Tenant.from_attach(tenant_id, spec)
    script = random.Random(script_seed)
    steps = 0
    for step in range(events):
        for tenant_id, _spec in population:
            oracle = oracles[tenant_id]
            kind, process, resource = (
                ("detect", None, None) if step and step % 5 == 0
                else _draw_op(script, oracle))
            mismatch = await replay_op(client, oracle, tenant_id, kind,
                                       process, resource)
            steps += 1
            if mismatch:
                return oracles, steps, f"step {step}: {mismatch}"
        if step != events // 2:
            continue
        if params.get("migrate"):
            for tenant_id, _spec in population:
                record = service.tenants[tenant_id]
                await client.request("migrate", tenant=tenant_id,
                                     shard=(record.shard_id + 1) % shards)
        if params.get("crash") and shards > 1:
            await asyncio.sleep(0.01)
            service.shards[service.tenants[population[0][0]].shard_id].crash()
    return oracles, steps, None


@checker("service.vs-local")
def _check_service(population, params: Mapping[str, Any],
                   rng: random.Random, kinds: tuple | None = None,
                   events: int = 30) -> CheckOutcome:
    """The service's every response matches a local oracle replay.

    Spins a real :class:`~repro.service.server.DetectionService` (TCP,
    in-process shards), attaches the generated population, and drives a
    seeded claim/release/detect stream (:func:`_replay_stream`) through
    a pipelined client; :func:`replay_op` checks every grant bit,
    promotion, ``op_seq`` and batched detect verdict against a local
    :class:`~repro.service.tenant.Tenant` twin.  ``service.chaos-vs-local``
    runs it with wire fault ``kinds`` (see :func:`_check_service_chaos`).
    """
    import asyncio

    plan = None if kinds is None else _wire_plan(kinds, rng)
    events = int(params.get("events", events))
    script_seed = rng.randrange(2 ** 31)

    async def scenario() -> CheckOutcome:
        service = await _start_service(params)
        proxy, [client] = await _wire_clients(service.tcp_port, plan,
                                              ["chaos-client"])
        try:
            oracles, steps, mismatch = await _replay_stream(
                client, service, population, params, events, script_seed)
            if mismatch:
                return _failed(mismatch, steps=steps)
            if plan is None:
                stats = await client.stats()
                return _passed(
                    steps=steps, cycles=float(stats["batches"]),
                    detail=(f"{len(population)} tenants x {events} events, "
                            f"{stats['batches']:g} batches, "
                            f"migrations={stats['migrations']:g}, "
                            f"crashes={stats['shard_crashes']:g}"))
            # Exactly-once differential: the migrate round-trip
            # re-hashes each tenant server-side; it must equal the
            # oracle twin that saw every mutation exactly once.
            alive = [handle.shard_id for handle in service.shards
                     if handle.alive]
            for tenant_id, _spec in population:
                record = service.tenants[tenant_id]
                target = next((s for s in alive
                               if s != record.shard_id),
                              record.shard_id)
                reply = await client.request(
                    "migrate", tenant=tenant_id, shard=target)
                steps += 1
                expected_hash = oracles[tenant_id].snapshot_state()[
                    "state_hash"]
                if reply["state_hash"] != expected_hash:
                    return _failed(
                        f"{tenant_id} state_hash diverged after chaos: "
                        f"{reply['state_hash'][:12]} != oracle "
                        f"{expected_hash[:12]}", steps=steps)
            if not any(proxy.fired.values()):
                return _failed(
                    f"chaos plan {plan.name!r} never fired", steps=steps)
            return _passed(
                steps=steps,
                detail=(f"{len(population)} tenants x {events} events "
                        f"under {'+'.join(kinds)}, "
                        f"plan={plan.plan_hash()[:12]}, "
                        f"crash={bool(params.get('crash'))}"))
        finally:
            await _close_wire(proxy, [client])
            await service.stop()

    return asyncio.run(scenario())


def _wire_retry_policy():
    """The retrying client's policy for every checker that talks through
    a chaos proxy: short attempts, many of them, and a circuit that opens
    late and closes on the first clean answer."""
    from repro.service.client import RetryPolicy
    return RetryPolicy(
        deadline_ms=4000.0, request_timeout_s=0.4, max_attempts=14,
        backoff_base_s=0.004, backoff_cap_s=0.04, fail_threshold=8,
        recover_after=1, cooldown_s=0.02)


def _net_chaos_specs(kinds: tuple) -> tuple:
    """One periodic :class:`NetFaultSpec` bundle per named wire fault.

    Every kind fires *periodically* (``every``) rather than once:
    chaos-transport visit counters restart per connection, so a
    one-shot spec at a small visit would bite every reconnect attempt
    and livelock a retrying client.  The periods are co-prime-ish so
    mixed plans interleave rather than pile onto the same visit.
    """
    from repro.service import NetFaultSpec
    table = {
        "delay": NetFaultSpec("delay", direction="both", at=2, every=5,
                              params={"delay_s": 0.01}),
        "drop": NetFaultSpec("drop", direction="s2c", at=3, every=7),
        "duplicate": NetFaultSpec("duplicate", direction="c2s", at=1,
                                  every=4),
        "reorder": NetFaultSpec("reorder", direction="s2c", at=6,
                                every=31),
        "truncate": NetFaultSpec("truncate", direction="s2c", at=4,
                                 every=9),
        "corrupt": NetFaultSpec("corrupt", direction="s2c", at=5,
                                every=11, params={"span": 6}),
        "reset": NetFaultSpec("reset", direction="c2s", at=17,
                              every=29),
        "slow_loris": NetFaultSpec("slow_loris", direction="s2c", at=2,
                                   every=13, params={"pause_s": 0.02}),
    }
    try:
        return tuple(table[kind] for kind in kinds)
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown chaos kind {exc.args[0]!r}; known: "
            f"{sorted(table)}") from None


def _wire_plan(kinds: tuple, rng: random.Random):
    """The :class:`NetFaultPlan` of wire fault ``kinds`` (see
    :func:`_net_chaos_specs`), its seed drawn from ``rng``."""
    from repro.service import NetFaultPlan
    return NetFaultPlan(name=f"wire-{'+'.join(kinds)}",
                        seed=rng.randrange(2 ** 31),
                        specs=_net_chaos_specs(kinds))


async def _wire_clients(port: int, plan, tags: list) -> tuple:
    """``(proxy, clients)``, one client per tag for the server on
    ``port``: retrying clients behind a chaos proxy for ``plan``, or
    with none, plain ones (no proxy) that fail a reply after 30 s
    rather than wait for the runner's timeout."""
    from repro.service import (
        ChaosTransport,
        ResilientServiceClient,
        ServiceClient,
    )

    if plan is None:
        clients = [await ServiceClient.connect_tcp("127.0.0.1", port)
                   for _ in tags]
        for client in clients:
            client.request_timeout_s = 30.0
        return None, clients
    proxy = ChaosTransport(plan, target_port=port)
    await proxy.start()
    return proxy, [ResilientServiceClient.tcp(
        "127.0.0.1", proxy.listen_port, policy=_wire_retry_policy(),
        seed=plan.seed + index, tag=tag) for index, tag in enumerate(tags)]


async def _close_wire(proxy, clients: list) -> None:
    for client in clients:
        await client.close()
    if proxy is not None:
        await proxy.stop()


@checker("service.chaos-vs-local")
def _check_service_chaos(population, params: Mapping[str, Any],
                         rng: random.Random) -> CheckOutcome:
    """Under wire chaos, every *answered* request matches the oracle.

    Same oracle-replay discipline as ``service.vs-local``, but the
    client talks through a :class:`~repro.service.chaos.ChaosTransport`
    misbehaving per ``params["chaos"]`` (fault kind names, see
    :func:`_net_chaos_specs`), and it is the
    :class:`~repro.service.client.ResilientServiceClient` doing the
    talking: timeouts, reconnects and idempotent retries are *expected*
    — what must never happen is a response that diverges from the local
    :class:`~repro.service.tenant.Tenant` twin.  The closing
    ``migrate`` round-trip compares every tenant's ``state_hash``
    against the oracle's: the exactly-once proof that no retried
    mutation applied twice, even with ``params["crash"]`` killing a
    shard mid-stream (journal replay must dedup too).

    Digest-deterministic: steps count logical operations, and the
    detail line carries only plan-derived values — never retry or
    timing tallies, which vary run to run.
    """
    return _check_service(population, params, rng,
                          tuple(params.get("chaos", ("drop",))), events=10)


def _die_with(launcher: int):
    """A ``preexec_fn`` that SIGKILLs the child when ``launcher`` dies.

    Linux only (``prctl(PR_SET_PDEATHSIG)``); elsewhere ``None``.  libc
    is looked up before the fork, so the child only makes the call.
    """
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    pr_set_pdeathsig = 1

    def arm() -> None:
        prctl(pr_set_pdeathsig, int(signal.SIGKILL))
        if os.getppid() != launcher:   # it died before the prctl
            os.kill(os.getpid(), signal.SIGKILL)

    return arm


def _spawn_server(shards: int, stderr) -> subprocess.Popen:
    """``python -m repro.service`` with ``shards`` worker processes.

    A subprocess, because campaign workers are daemonic and so may not
    fork the shard processes themselves.  It stays in the caller's
    process group, so a kill of the whole group takes it too, and it
    is SIGKILLed when its launcher dies alone (an OOM kill, say); its
    shards then see EOF and exit.
    """
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
        env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--shards", str(shards),
         "--port", "0"], stdout=subprocess.PIPE, stderr=stderr, env=env,
        preexec_fn=_die_with(os.getpid()))


def _stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (the server drains and stops its shards), then SIGKILL."""
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


#: Each ``service.shard-kill`` tenant's op count, and the connections
#: the population shares.
_SHARD_KILL_OPS = 10
_SHARD_KILL_CLIENTS = 8


async def _shard_kill_run(population, port: int, params: Mapping[str, Any],
                          plan) -> CheckOutcome:
    """Phase 1, the SIGKILL, phase 2 and the rebalance checks."""
    import asyncio

    from repro.service import ServiceClient
    from repro.service.tenant import Tenant

    shards = int(params.get("shards", 4))
    ops = _SHARD_KILL_OPS
    oracles: dict = {}

    async def stream(index: int) -> str | None:
        """One tenant: attach, then its own seeded op stream."""
        tenant_id, spec = population[index]
        client = clients[index % len(clients)]
        oracle = oracles[tenant_id] = Tenant.from_attach(tenant_id, spec)
        script = random.Random(spec["seed"])
        try:
            await client.attach(tenant_id, **spec)
            for step in range(ops):
                kind, process, resource = (
                    _draw_op(script, oracle) if step % 4 != 3
                    else ("detect", None, None))
                mismatch = await replay_op(client, oracle, tenant_id, kind,
                                           process, resource)
                if mismatch:
                    return f"step {step}: {mismatch}"
        except (ServiceError, asyncio.TimeoutError) as exc:
            return f"{tenant_id}: {type(exc).__name__}: {exc}"
        return None

    async def recheck(index: int) -> str | None:
        """A phase-1 tenant's verdict after the kill."""
        tenant_id = population[index][0]
        try:
            mismatch = await replay_op(clients[index % len(clients)],
                                       oracles[tenant_id], tenant_id,
                                       "detect")
        except (ServiceError, asyncio.TimeoutError) as exc:
            return f"post-kill detect of {tenant_id}: {exc!r}"
        return mismatch and f"post-kill {mismatch}"

    # The admin connection talks straight to the server: the pid lookup
    # and the stats must not be lost to injected faults.
    admin = await ServiceClient.connect_tcp("127.0.0.1", port)
    proxy, clients = await _wire_clients(port, plan, [
        f"kill{index}" for index in range(_SHARD_KILL_CLIENTS)])
    try:
        half = len(population) // 2
        failures = [f for f in await asyncio.gather(
            *(stream(index) for index in range(half))) if f]
        if failures:
            return _failed(f"before the kill: {failures[0]} "
                           f"({len(failures)} tenant(s) failed)")
        # SIGKILL the busiest shard, and wait for the front end to see
        # it, so no phase-2 attach is placed on the dead shard.
        victim = max((shard for shard in (await admin.shards())["shards"]
                      if shard["alive"]), key=lambda shard: shard["tenants"])
        os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while (await admin.shards())["shards"][victim["shard"]]["alive"]:
            if time.monotonic() > deadline:
                return _failed(f"shard {victim['shard']} was SIGKILLed, "
                               "but the server still calls it alive")
            await asyncio.sleep(0.005)
        rehomed = (await admin.stats())["rebalanced_tenants"]
        if rehomed != victim["tenants"]:
            return _failed(f"{victim['tenants']} tenants lived on the dead "
                           f"shard, {rehomed:g} were rehomed")
        # Phase 2 attaches and drives the second half through the
        # recovery, while every phase-1 tenant detects once more.
        failures = [f for f in await asyncio.gather(
            *(stream(index) for index in range(half, len(population))),
            *(recheck(index) for index in range(half))) if f]
        steps = len(population) * ops + half
        if failures:
            return _failed(f"after the kill: {failures[0]} "
                           f"({len(failures)} tenant(s) failed)",
                           steps=steps)
        stats = await admin.stats()
        alive = [shard for shard in (await admin.shards())["shards"]
                 if shard["alive"]]
        homed = sum(shard["tenants"] for shard in alive)
        problems = [
            (stats["shard_crashes"] != 1,
             f"{stats['shard_crashes']:g} shard crashes, not 1"),
            (len(alive) != shards - 1,
             f"{len(alive)} live shards, not {shards - 1}"),
            (homed != len(population) or stats["tenants"] != homed,
             f"{len(population)} tenants, {stats['tenants']:g} attached, "
             f"{homed} homed on live shards"),
            (proxy is not None and not any(proxy.fired.values()),
             "the chaos plan never fired"),
        ]
        for failed, detail in problems:
            if failed:
                return _failed(detail, steps=steps)
        return _passed(
            steps=steps,
            detail=(f"{len(population)} tenants x {ops} ops on {shards} "
                    f"shards, {victim['tenants']} rehomed"
                    + (f", plan={plan.plan_hash()[:12]}" if plan else "")))
    finally:
        await _close_wire(proxy, clients)
        await admin.close()


@checker("service.shard-kill")
def _check_shard_kill(population, params: Mapping[str, Any],
                      rng: random.Random) -> CheckOutcome:
    """A real server loses a worker shard mid-run; no reply goes wrong.

    Starts ``python -m repro.service`` with ``params["shards"]`` worker
    processes and drives the population over 8 parallel connections:
    each tenant attaches, then runs its own seeded stream of 10 claims,
    releases and detects, every reply checked by :func:`replay_op`
    against a local :class:`~repro.service.tenant.Tenant` twin.  After
    the first half of the population has run, the busiest shard is
    SIGKILLed by the pid the ``shards`` admin op names.  The second half then runs
    through the recovery while each first-half tenant detects again.
    The rebalance must be clean: one shard crash, every tenant of the
    dead shard rehomed, the survivors homing every tenant.

    With ``params["chaos"]`` (wire fault kinds, see
    :func:`_net_chaos_specs`) the tenants talk through a
    :class:`~repro.service.chaos.ChaosTransport` with the retrying
    client, and the plan must fire.

    Digest-deterministic: steps count logical ops, and the detail line
    carries only the population's shape, the dead shard's tenant count
    (placement is least-loaded and the first half has finished before
    the kill) and the plan hash — no request, retry or timing tallies.
    The server is stopped on every exit, a timeout included.
    """
    import asyncio

    kinds = tuple(params.get("chaos", ()))
    plan = _wire_plan(kinds, rng) if kinds else None
    with tempfile.TemporaryFile() as stderr, \
            _spawn_server(int(params.get("shards", 4)), stderr) as server:
        try:
            line = server.stdout.readline()
            if not line:
                server.wait()
                stderr.seek(0)
                tail = stderr.read().decode(errors="replace")[-2000:]
                return _failed(f"server exited {server.returncode} before "
                               f"its ready line: {tail}")
            return asyncio.run(_shard_kill_run(
                population, json.loads(line)["port"], params, plan))
        finally:
            _stop_server(server)


# -- chaos checkers (fault injection for the runner itself) -------------------

def _first_run(params: Mapping[str, Any], note: str) -> bool:
    """False once ``params["marker"]`` names an existing file; else True,
    after writing ``note`` to the marker when one is given."""
    marker = params.get("marker", "")
    if marker and os.path.exists(marker):
        return False
    if marker:
        with open(marker, "w") as handle:
            handle.write(f"{note}\n")
    return True


@checker("chaos.crash")
@checker("chaos.crash_once")
def _check_crash(subject, params: Mapping[str, Any],
                 rng: random.Random) -> CheckOutcome:
    """Kill the worker process outright (no Python unwinding).

    With ``params["marker"]`` it crashes once: the marker file is
    written before the crash, and a run that finds it passes — which
    exercises the runner's crash-retry recovery path end to end.
    """
    if not _first_run(params, "crashed"):
        return _passed(detail="survived the retry")
    os._exit(int(params.get("exit_code", 66)))


@checker("chaos.hang")
def _check_hang(subject, params: Mapping[str, Any],
                rng: random.Random) -> CheckOutcome:
    """Busy-hang long enough to trip any per-task timeout."""
    time.sleep(float(params.get("seconds", 3600.0)))
    return _failed("hang completed without a timeout")


@checker("chaos.interrupt")
@checker("chaos.interrupt_once")
def _check_interrupt(subject, params: Mapping[str, Any],
                     rng: random.Random) -> CheckOutcome:
    """Interrupt the shard worker (Ctrl-C / SIGTERM delivery).

    With ``params["sigterm"]`` the worker signals itself (exercising
    the runner's SIGTERM -> KeyboardInterrupt handler); otherwise the
    checker raises KeyboardInterrupt directly.  Either way the runner
    must record a retryable worker loss, not lose the campaign.  With
    ``params["marker"]`` it interrupts once, as ``chaos.crash`` crashes.
    """
    if not _first_run(params, "interrupted"):
        return _passed(detail="survived the interrupt retry")
    if params.get("sigterm"):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5.0)  # pragma: no cover - signal lands first
    raise KeyboardInterrupt


# -- fault-injection scenarios (the faults campaign) ---------------------------

def _fault_specs(model: str, params: Mapping[str, Any],
                 rng: random.Random, m: int, n: int) -> tuple:
    """Build one named fault model's specs from the scenario's RNG.

    ``cycle-storm`` is the guaranteed-anomaly model: four stuck cells
    form the cycle ``q1 -> p_n -> q2 -> p1 -> q1`` in the unit's
    reduction lattice.  A cycle is never terminal, so the hardware
    verdict is *deadlock* regardless of the authoritative RAG — every
    cross-check disagrees while the specs are active, which is what
    deterministically drives failover (and, once the specs lapse,
    scrub-probed fail-back).
    """
    from repro.faults import FaultSpec
    at = int(params.get("at", 0))
    duration = int(params.get("duration", 2))
    unit = str(params.get("unit", "ddu"))
    values = ("r", "g", ".")
    if model == "matrix-transient":
        return tuple(
            FaultSpec("ddu.matrix", "transient", at=rng.randrange(24),
                      params={"row": rng.randrange(m),
                              "col": rng.randrange(n),
                              "value": rng.choice(values)})
            for _ in range(int(params.get("count", 6))))
    if model == "matrix-stuck":
        return (FaultSpec("ddu.matrix", "stuck", at=at, duration=duration,
                          params={"row": rng.randrange(m),
                                  "col": rng.randrange(n),
                                  "value": rng.choice(values)}),)
    if model == "cycle-storm":
        if m < 2 or n < 2:
            raise ConfigurationError("cycle-storm needs a 2x2 unit")
        cells = (((0, n - 1), "g"), ((1, n - 1), "r"),
                 ((1, 0), "g"), ((0, 0), "r"))
        return tuple(
            FaultSpec("ddu.matrix", "stuck", at=at, duration=duration,
                      params={"row": row, "col": col, "value": value})
            for (row, col), value in cells)
    if model == "command-drop":
        return (FaultSpec(f"{unit}.command", "drop", at=at,
                          duration=duration),)
    if model == "command-corrupt":
        return (FaultSpec(f"{unit}.command", "corrupt", at=at,
                          duration=duration,
                          params={"row": rng.randrange(m),
                                  "col": rng.randrange(n),
                                  "value": rng.choice(("r", "g"))}),)
    if model == "status-stale":
        return (FaultSpec("ddu.status", "stale", at=at,
                          duration=duration),)
    if model == "unit-hang":
        return (FaultSpec(f"{unit}.hang", "hang", at=at,
                          duration=duration),)
    if model == "unit-port":
        return (FaultSpec(f"{unit}.port", "error", at=at,
                          duration=duration),
                FaultSpec(f"{unit}.port", "timeout",
                          at=at + duration + 2,
                          params={"extra_cycles": 32}))
    if model == "soclc-drop":
        return (FaultSpec("soclc.interrupt", "drop", at=at,
                          duration=duration),)
    if model == "socdmmu-leak":
        return (FaultSpec("socdmmu.table", "leak", at=at,
                          duration=duration,
                          params={"block": rng.randrange(max(1, m))}),)
    if model == "socdmmu-steal":
        return (FaultSpec("socdmmu.table", "steal", at=at,
                          duration=duration),)
    if model == "socdmmu-refcount":
        return tuple(
            FaultSpec("socdmmu.refcount",
                      rng.choice(("inflate", "deflate")),
                      at=at + index * 3, duration=duration,
                      params={"block": rng.randrange(max(1, m)),
                              "delta": rng.randint(1, 3)})
            for index in range(int(params.get("count", 3))))
    if model == "socdmmu-exhaust":
        return (FaultSpec("socdmmu.exhaust", "ghost", at=at,
                          duration=max(duration, 2),
                          params={"blocks": int(params.get(
                              "ghost_blocks", 2))}),)
    if model == "socdmmu-mixed":
        return (_fault_specs("socdmmu-refcount", params, rng, m, n)
                + _fault_specs("socdmmu-exhaust", params, rng, m, n))
    raise ConfigurationError(f"unknown fault model {model!r}")


def _campaign_policy(**overrides):
    """The campaign-tuned resilience policy: check every invocation,
    fail over after two anomalies, scrub early, fail back after two
    clean probes; ``overrides`` replace single fields."""
    from repro.faults import ResiliencePolicy
    return ResiliencePolicy(**{
        "max_retries": 2, "sample_every": 1, "fail_threshold": 2,
        "recover_after": 2, "scrub_after": 3, **overrides})


@generator("preset.faulty")
def _gen_preset_faulty(params: Mapping[str, Any], rng: random.Random):
    """A built preset with a seeded fault plan installed.

    Hooks are armed on every hardware model the preset has, and
    resilience (cross-checks, health FSM, failover) is enabled with
    :func:`_campaign_policy`.
    """
    from repro.faults import FaultPlan, install_fault_plan
    system = build_system(params.get("preset", "RTOS2"))
    model = str(params.get("model", "matrix-transient"))
    plan = FaultPlan(
        name=f"{system.name}-{model}",
        specs=_fault_specs(model, params, rng,
                           len(system.config.peripherals),
                           system.config.num_pes))
    install_fault_plan(system, plan, policy=_campaign_policy())
    return system


def _mutate_rag(rag, rng: random.Random) -> None:
    """One random legal RAG mutation (may create or clear deadlocks)."""
    ops = []
    for p in rag.processes:
        held = set(rag.held_by(p))
        pending = set(rag.requests_of(p))
        for q in rag.resources:
            if q in held:
                ops.append(("release", p, q))
            elif q in pending:
                if rag.is_available(q):
                    ops.append(("promote", p, q))
                else:
                    ops.append(("withdraw", p, q))
            else:
                ops.append(("request", p, q))
    op, p, q = rng.choice(ops)
    if op == "release":
        rag.release(p, q)
    elif op == "promote":
        rag.remove_request(p, q)
        rag.grant(q, p)
    elif op == "withdraw":
        rag.remove_request(p, q)
    else:
        rag.add_request(p, q)


def _rng_state_payload(rng: random.Random) -> list:
    """``random.Random.getstate()`` as a JSON-safe value."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _restore_rng(rng: random.Random, payload) -> None:
    version, internal, gauss_next = payload
    rng.setstate((version, tuple(internal), gauss_next))


@checker("faults.detection-verdicts")
def _check_fault_detection(census, params: Mapping[str, Any],
                           rng: random.Random,
                           checkpoint=None) -> CheckOutcome:
    """Injected DDU faults cost latency, never a wrong verdict.

    Drives a mutating RAG through a :class:`ResilientDetector` whose
    DDU hosts the scenario's fault model; the published verdict must
    match the software PDDA oracle on *every* invocation — before,
    during and after failover/fail-back.

    Checkpoint-aware: with a :class:`ScenarioCheckpoint` (see
    ``execute_scenario``), the full mid-scenario state — RAG, detector
    (including its DDU and health FSM), fault injector visit counters,
    and the scenario RNG — is saved every ``checkpoint_every`` events;
    a crashed worker's retry restores it and finishes with *exactly*
    the outcome of an uninterrupted run, fault history included.  The
    ``crash_at_step`` chaos param hard-kills the worker at that event
    on the first attempt only (a restored run never re-crashes).
    """
    from repro.faults import FaultInjector, FaultPlan, ResilientDetector
    from repro.rag.graph import RAG
    processes, resources, priorities = census
    model = str(params.get("model", "cycle-storm"))
    events = int(params.get("events", 60))
    crash_at = params.get("crash_at_step")
    saved = checkpoint.load() if checkpoint is not None else None
    if saved is not None:
        rag = RAG.restore_state(saved["rag"])
        detector = ResilientDetector.restore_state(saved["detector"])
        injector = FaultInjector.restore_state(saved["injector"])
        detector.ddu.faults = injector
        _restore_rng(rng, saved["rng"])
        start_step = int(saved["step"])
    else:
        rag = RAG(processes, resources)
        ddu = DDU(len(resources), len(processes),
                  backend=params.get("backend"))
        injector = FaultInjector(FaultPlan(
            name=f"detect-{model}",
            specs=_fault_specs(model, params, rng,
                               len(resources), len(processes))))
        ddu.faults = injector
        detector = ResilientDetector(ddu, _campaign_policy(max_retries=1))
        start_step = 0
    for step in range(start_step, events):
        if (crash_at is not None and saved is None
                and step == int(crash_at)):
            os._exit(81)
        _mutate_rag(rag, rng)
        outcome = detector.detect(rag)
        oracle = pdda_detect(rag).deadlock
        if outcome.deadlock != oracle:
            return _failed(
                f"published verdict {outcome.deadlock} != oracle "
                f"{oracle} at step {step} (mode={detector.mode})",
                steps=step)
        if checkpoint is not None and checkpoint.due(step + 1):
            checkpoint.save({
                "step": step + 1,
                "rng": _rng_state_payload(rng),
                "rag": rag.snapshot_state(),
                "detector": detector.snapshot_state(),
                "injector": injector.snapshot_state(),
            })
    if not injector.records:
        return _failed(f"fault model {model!r} never fired")
    return _passed(
        steps=events, cycles=float(detector.invocations),
        detail=(f"{len(injector.records)} injections, "
                f"{detector.failovers} failovers, "
                f"{detector.failbacks} failbacks, "
                f"mode={detector.mode}"))


#: Opt in to mid-scenario checkpointing (see ``execute_scenario``).
_check_fault_detection.accepts_checkpoint = True


@checker("faults.avoidance-verdicts")
def _check_fault_avoidance(census, params: Mapping[str, Any],
                           rng: random.Random) -> CheckOutcome:
    """Injected DAU faults never publish an unvalidated decision.

    Random request/release traffic through a :class:`ResilientAvoider`
    with every honored ``ask_release`` fed back (see
    :func:`_avoidance_traffic`); whichever core is authoritative after
    each settled event, its RAG must be deadlock-free.
    """
    from repro.faults import FaultInjector, FaultPlan, ResilientAvoider
    processes, resources, priorities = census
    model = str(params.get("model", "command-corrupt"))
    dau = DAU(processes, resources, priorities)
    injector = FaultInjector(FaultPlan(
        name=f"avoid-{model}",
        specs=_fault_specs(model, {**dict(params), "unit": "dau"}, rng,
                           len(resources), len(processes))))
    dau.faults = injector
    dau.ddu.faults = injector
    avoider = ResilientAvoider(dau, _campaign_policy())
    decisions, failure = _avoidance_traffic(
        census, int(params.get("events", 60)), rng,
        lambda: avoider.active_core.rag,
        lambda op, proc, res: avoider.decide(
            f"PE_{proc}", op, proc, res).decision.ask_release)
    if failure:
        return _failed(f"{failure} (mode={avoider.mode})", steps=decisions)
    if not injector.records:
        return _failed(f"fault model {model!r} never fired")
    return _passed(
        steps=decisions, cycles=float(avoider.invocations),
        detail=(f"{len(injector.records)} injections, "
                f"{avoider.failovers} failovers, "
                f"{avoider.failbacks} failbacks, "
                f"mode={avoider.mode}"))


@checker("faults.bus-retries")
def _check_bus_retries(census, params: Mapping[str, Any],
                       rng: random.Random) -> CheckOutcome:
    """Bus error/timeout faults are survivable with bounded retry.

    Two masters stream transactions over a faulted bus; every
    ``BusError`` is retried with backoff, all traffic completes, and
    both fault kinds (including a master-filtered one) must have fired.
    """
    from repro.errors import BusError
    from repro.faults import FaultInjector, FaultPlan, FaultSpec
    from repro.mpsoc.bus import SystemBus
    from repro.sim.engine import Engine
    engine = Engine()
    bus = SystemBus(engine, name="bus.dut")
    injector = FaultInjector(FaultPlan(name="bus-chaos", specs=(
        FaultSpec("bus.dut", "error", at=1, duration=2),
        FaultSpec("bus.dut", "timeout", at=5, duration=2,
                  params={"extra_cycles": 32}),
        FaultSpec("bus.dut", "error", at=4, duration=1, master="M2"),
    )))
    bus.faults = injector
    transfers = int(params.get("transfers", 6))
    completed: list = []
    failed: list = []

    def master(name: str):
        for _ in range(transfers):
            for attempt in range(4):
                try:
                    yield from bus.transaction(name, words=2)
                    break
                except BusError:
                    yield 10.0 * (attempt + 1)
            else:
                failed.append(name)
                return
        completed.append(name)

    engine.spawn(master("M1"), name="M1")
    engine.spawn(master("M2"), name="M2")
    engine.run()
    if failed or sorted(completed) != ["M1", "M2"]:
        return _failed(f"masters did not complete: done={completed} "
                       f"failed={failed}", cycles=engine.now)
    kinds = {record.kind for record in injector.records}
    if kinds != {"error", "timeout"}:
        return _failed(f"expected error+timeout injections, saw "
                       f"{sorted(kinds)}", cycles=engine.now)
    if not bus.error_transactions:
        return _failed("no bus transaction ever errored")
    return _passed(steps=bus.total_transactions, cycles=engine.now,
                   detail=(f"{len(injector.records)} injections over "
                           f"{bus.total_transactions} transactions"))


@checker("faults.degrades-gracefully")
def _check_degrade(system, params: Mapping[str, Any],
                   rng: random.Random) -> CheckOutcome:
    """A faulted full system finishes a deadlock-free workload.

    The fault plan installed by ``preset.faulty`` may cost retries,
    watchdog waits, failovers and scrubs — but every task must finish,
    nothing may leak, no wrong deadlock verdict may be published, and
    the event kinds named in ``params["expect"]`` must all have been
    observed (e.g. a full failover *and* fail-back).
    """
    # Each task repeats one of three loops: a full sweep of the
    # resources in global order (heavy detection/avoidance traffic, so
    # failover *and* fail-back fit in one scenario), contention on one
    # shared SoCLC lock, or malloc/compute/free through the SoCDMMU.
    if system.config.soclc:
        system.lock_manager.register_lock("L0", kind="long", ceiling=1)
    if system.resource_service is not None:
        task = {"resources": tuple(system.config.peripherals)}
    elif system.config.soclc:
        task = {"lock": "L0"}
    else:
        task = {"malloc": 8192}
    rounds = int(params.get("rounds", 2))
    end, failure = _run_workers(
        system, lambda: {**task, "rounds": rounds,
                         "work": float(rng.randint(300, 1200))},
        float(params.get("horizon", 4_000_000)))
    if failure:
        return failure
    observed: set = set()
    service = system.resource_service
    if service is not None:
        observed.update(event for _, event in service.fault_events)
        if service.stats.deadlock_found_at is not None:
            return _failed(
                "an injected fault produced a deadlock verdict on a "
                "deadlock-free workload", cycles=end)
        resilient = getattr(service, "resilient", None)
    else:
        resilient = None
    lock_manager = system.lock_manager
    lost = getattr(lock_manager, "lost_interrupts", 0)
    redelivered = getattr(lock_manager, "redelivered_interrupts", 0)
    if lost:
        observed.add("interrupt-lost")
        if lost != redelivered:
            return _failed(
                f"{lost} grant interrupts lost but only {redelivered} "
                "redelivered", cycles=end)
    if redelivered:
        observed.add("interrupt-redelivered")
    if getattr(system.heap, "audit_repairs", 0):
        observed.add("audit-repair")
    injector = system.fault_injector
    if injector is None or not injector.records:
        return _failed("the fault plan never fired", cycles=end)
    expect = set(params.get("expect", ()))
    missing = expect - observed
    if missing:
        return _failed(
            f"expected fault events missing: {sorted(missing)}; "
            f"observed {sorted(observed)}", cycles=end)
    if resilient is not None and "failback" in expect \
            and resilient.mode != "hardware":
        return _failed("unit never failed back to hardware", cycles=end)
    return _passed(
        steps=len(injector.records), cycles=end,
        detail=(f"{system.name} finished at {end:g} with "
                f"{len(injector.records)} injections; "
                f"events={sorted(observed)}"))


# -- memory-pressure checkers (the SoCDMMU under stress) ----------------------

@generator("preset.pressure")
def _gen_preset_pressure(params: Mapping[str, Any], rng: random.Random):
    """A small-pool RTOS7 tuned for memory pressure.

    ``blocks``/``block_kb`` shrink the SoCDMMU pool so exhaustion is
    reachable in a few dozen allocations; ``model`` optionally installs
    a seeded ``socdmmu-refcount`` / ``socdmmu-exhaust`` /
    ``socdmmu-mixed`` (or table leak/steal) fault plan.  Resilience —
    audits, the OOM ladder, the health FSM — is armed unless
    ``resilience`` is false.
    """
    from dataclasses import replace
    from repro.faults import FaultPlan, install_fault_plan
    from repro.framework.config import preset
    blocks = int(params.get("blocks", 24))
    block_bytes = int(params.get("block_kb", 4)) * 1024
    config = replace(preset("RTOS7"), socdmmu_blocks=blocks,
                     socdmmu_block_bytes=block_bytes)
    system = build_system(config)
    model = str(params.get("model", "none"))
    specs = () if model == "none" else _fault_specs(
        model, params, rng, blocks, system.config.num_pes)
    plan = FaultPlan(name=f"memory-pressure-{model}", specs=specs)
    policy = (_campaign_policy(
        audit_every=int(params.get("audit_every", 1)))
        if params.get("resilience", True) else None)
    install_fault_plan(system, plan, policy=policy)
    return system


@checker("memory.cow-storm")
def _check_cow_storm(system, params: Mapping[str, Any],
                     rng: random.Random, checkpoint=None) -> CheckOutcome:
    """A shadow-model CoW/fragmentation grind never reaches a wrong state.

    Drives the :class:`BlockAllocator` datapath directly — alloc,
    share, write-fault, free, teardown — against an independent shadow
    model (physical block -> set of (owner, virtual) references).  On
    every operation the allocator's answers must match the shadow
    exactly: an allocation may only hand out blocks the shadow says are
    free (no double-grant), refcounts must equal the shadow's reference
    counts, and every ``corrupt_every`` ops a seeded refcount/owner
    corruption followed by an audit must leave ``verify()`` empty with
    no block lost.  The teardown sweep must return the pool to fully
    free.

    Checkpoint-aware: the allocator payload, the shadow model, and the
    scenario RNG round-trip through the campaign checkpoint, so a
    killed worker resumes mid-storm with an identical trajectory
    (``crash_at_step`` hard-kills the first attempt, as in
    ``faults.detection-verdicts``).
    """
    from repro.socdmmu.allocator import BlockAllocator
    allocator = system.heap.allocator
    ops = int(params.get("ops", 3000))
    owners = [f"t{i}" for i in range(int(params.get("owners", 5)))]
    hold_max = int(params.get("hold_max", 0))  # 0 = no occupancy floor
    corrupt_every = int(params.get("corrupt_every", 0))
    crash_at = params.get("crash_at_step")
    saved = checkpoint.load() if checkpoint is not None else None
    if saved is not None:
        system.heap.allocator = allocator = BlockAllocator.from_payload(
            saved["allocator"])
        refs = {int(physical): {tuple(ref) for ref in ref_list}
                for physical, ref_list in saved["refs"]}
        _restore_rng(rng, saved["rng"])
        start_op = int(saved["op"])
        counts = dict(saved["counts"])
    else:
        refs = {}
        start_op = 0
        counts = {"allocs": 0, "shares": 0, "copies": 0, "frees": 0,
                  "repairs": 0}

    def shadow_free() -> int:
        return allocator.num_blocks - len(refs)

    def live_refs() -> list:
        return sorted(ref for ref_set in refs.values()
                      for ref in ref_set)

    def mismatch(op: int, what: str) -> CheckOutcome:
        return _failed(f"op {op}: {what}", steps=op)

    for op in range(start_op, ops):
        if (crash_at is not None and saved is None
                and op == int(crash_at)):
            os._exit(82)
        live = live_refs()
        choice = rng.random()
        want_alloc = hold_max and len(refs) < hold_max
        if not live or choice < 0.35 or want_alloc:
            owner = rng.choice(owners)
            blocks = rng.randint(1, 3)
            if shadow_free() < blocks:
                try:
                    allocator.allocate(owner, blocks)
                except AllocationError:
                    continue
                return mismatch(op, f"allocate({blocks}) succeeded with "
                                    f"{shadow_free()} shadow-free blocks")
            virtuals = allocator.allocate(owner, blocks)
            counts["allocs"] += 1
            for virtual in virtuals:
                physical = allocator.translate(owner, virtual)
                if physical in refs:
                    return mismatch(
                        op, f"double-grant: physical {physical} handed "
                            f"to {owner} while referenced by "
                            f"{sorted(refs[physical])}")
                if allocator.refcount_of(physical) != 1:
                    return mismatch(
                        op, f"fresh block {physical} has refcount "
                            f"{allocator.refcount_of(physical)}")
                refs[physical] = {(owner, virtual)}
        elif choice < 0.55:
            owner, virtual = rng.choice(live)
            new_owner = rng.choice(owners)
            physical = allocator.translate(owner, virtual)
            new_virtual = allocator.share(owner, virtual, new_owner)
            counts["shares"] += 1
            refs[physical].add((new_owner, new_virtual))
            if allocator.translate(new_owner, new_virtual) != physical:
                return mismatch(op, "share mapped the wrong physical")
            if allocator.refcount_of(physical) != len(refs[physical]):
                return mismatch(
                    op, f"refcount[{physical}] is "
                        f"{allocator.refcount_of(physical)}, shadow says "
                        f"{len(refs[physical])}")
        elif choice < 0.75:
            owner, virtual = rng.choice(live)
            physical = allocator.translate(owner, virtual)
            shared = len(refs[physical]) > 1
            if shared and shadow_free() == 0:
                try:
                    allocator.write_fault(owner, virtual)
                except AllocationError:
                    continue
                return mismatch(op, "CoW copy succeeded with no free block")
            copied = allocator.write_fault(owner, virtual)
            if copied != shared:
                return mismatch(
                    op, f"write_fault copied={copied}, shadow shared="
                        f"{shared} for physical {physical}")
            if copied:
                counts["copies"] += 1
                target = allocator.translate(owner, virtual)
                if target in refs:
                    return mismatch(
                        op, f"CoW copy landed on referenced block {target}")
                refs[physical].discard((owner, virtual))
                refs[target] = {(owner, virtual)}
        else:
            owner, virtual = rng.choice(live)
            physical = allocator.translate(owner, virtual)
            allocator.deallocate(owner, virtual)
            counts["frees"] += 1
            refs[physical].discard((owner, virtual))
            if not refs[physical]:
                del refs[physical]
                if allocator.owner_of(physical) is not None:
                    return mismatch(
                        op, f"last free left block {physical} owned by "
                            f"{allocator.owner_of(physical)!r}")
        if corrupt_every and (op + 1) % corrupt_every == 0:
            block = rng.randrange(allocator.num_blocks)
            if rng.random() < 0.5:
                allocator.corrupt_refcount(block, rng.randint(0, 5))
            else:
                allocator.corrupt(block, rng.choice([None, "<ghost>"]
                                                    + owners))
            counts["repairs"] += allocator.audit()
            violations = allocator.verify()
            if violations:
                return mismatch(op, f"verify after audit: {violations}")
        if allocator.free_blocks != shadow_free():
            return mismatch(
                op, f"{allocator.free_blocks} free blocks, shadow says "
                    f"{shadow_free()}")
        if checkpoint is not None and checkpoint.due(op + 1):
            checkpoint.save({
                "op": op + 1,
                "rng": _rng_state_payload(rng),
                "allocator": allocator.snapshot_payload(),
                "refs": sorted(
                    [physical, sorted(list(ref) for ref in ref_set)]
                    for physical, ref_set in refs.items()),
                "counts": dict(counts),
            })
    for owner in owners:
        allocator.deallocate_all(owner)
    allocator.audit()
    if allocator.verify():
        return _failed(f"teardown verify: {allocator.verify()}", steps=ops)
    if allocator.free_blocks != allocator.num_blocks:
        return _failed(
            f"teardown lost blocks: {allocator.free_blocks} free of "
            f"{allocator.num_blocks}", steps=ops)
    return _passed(
        steps=ops,
        detail=(f"{counts['allocs']} allocs, {counts['shares']} shares, "
                f"{counts['copies']} copies, {counts['frees']} frees, "
                f"{counts['repairs']} repairs"))


#: Opt in to mid-scenario checkpointing (see ``execute_scenario``).
_check_cow_storm.accepts_checkpoint = True


def _pressure_victim(ctx, size_bytes: int, die: bool):
    """Malloc, then terminate holding the handle.

    ``die=True`` raises (the kernel's fault-isolation teardown reclaims
    the handle immediately); ``die=False`` finishes normally still
    holding it, which only the OOM ladder's lazy terminated-owner sweep
    can recover.
    """
    yield from ctx.malloc(size_bytes)
    yield from ctx.compute(200.0)
    if die:
        raise RuntimeError("victim dies holding G_blocks")


def _pressure_driver(ctx, heap, report: list):
    """The scripted exhaustion ladder: fill, reclaim, degrade, fail back.

    Runs the whole OOM story in one deterministic task: CoW warm-up,
    fill the pool, recover one allocation by reclaiming the dead
    victim's blocks, drive two persistent-exhaustion ladders into
    failover, free the hogs, churn the software fallback until scrubs
    fail the unit back, and end with a clean hardware allocation.
    Failures are appended to ``report`` (checked after the run).
    """
    allocator = heap.allocator
    block_bytes = allocator.block_bytes
    policy = heap.resilience

    def expect(condition: bool, message: str) -> None:
        if not condition:
            report.append(f"at {ctx.now:g}: {message}")

    yield from ctx.sleep(4000.0)  # let both victims terminate
    # The crashed victim's handle was reclaimed by the kernel's
    # fault-isolation teardown the moment it died.
    teardown_reclaimed = heap.reclaimed_blocks
    expect(teardown_reclaimed > 0,
           "kernel teardown never reclaimed the crashed victim")
    # CoW warm-up: fork + split + free while there is still room.
    parent = yield from heap.malloc(ctx, 2 * block_bytes)
    fork = yield from heap.fork_handle(ctx, parent)
    copied = yield from heap.write_fault(ctx, fork, 0)
    expect(copied, "write fault on a forked handle made no copy")
    yield from heap.free(ctx, fork)
    yield from heap.free(ctx, parent)
    # Fill the pool (the ghost model may cost recovered OOMs here).
    hogs = []
    while allocator.free_blocks > 0:
        span = min(4, allocator.free_blocks)
        handle = yield from heap.malloc(ctx, span * block_bytes)
        hogs.append(handle)
    expect(allocator.free_blocks == 0, "fill loop left free blocks")
    # Reclaim-then-retry: the ladder's lazy sweep recovers the handle
    # the *finished* victim still holds.
    reclaim_handle = yield from heap.malloc(ctx, block_bytes)
    expect(heap.reclaimed_blocks > teardown_reclaimed,
           "OOM ladder never swept the finished victim's blocks")
    expect(heap.oom_recoveries > 0, "reclaim-retry never recovered")
    hogs.append(reclaim_handle)
    while allocator.free_blocks > 0:
        handle = yield from heap.malloc(ctx, block_bytes)
        hogs.append(handle)
    # Persistent exhaustion: two failed ladders trip the health FSM.
    soft = []
    soft.append((yield from heap.malloc(ctx, block_bytes)))
    soft.append((yield from heap.malloc(ctx, block_bytes)))
    expect(heap.mode == "software",
           f"unit still {heap.mode!r} after persistent exhaustion")
    expect(heap.failovers == 1, f"failovers == {heap.failovers}")
    # Free the hogs (hardware frees still work while degraded) ...
    for handle in hogs:
        yield from heap.free(ctx, handle)
    # ... then churn the fallback until scrub probes fail the unit back.
    for _ in range(2 * max(1, policy.scrub_after)):
        soft.append((yield from heap.malloc(ctx, block_bytes)))
    expect(heap.mode == "hardware",
           f"unit never failed back (mode={heap.mode!r}, "
           f"scrubs={heap.scrubs})")
    expect(heap.failbacks == 1, f"failbacks == {heap.failbacks}")
    final = yield from heap.malloc(ctx, block_bytes)
    yield from heap.free(ctx, final)
    for address in soft:
        yield from heap.free(ctx, address)


@checker("memory.exhaustion-recovery")
def _check_exhaustion(system, params: Mapping[str, Any],
                      rng: random.Random) -> CheckOutcome:
    """Exhaustion always ends in recovery, never in a wrong state.

    One scripted driver task walks the whole OOM ladder (see
    :func:`_pressure_driver`) on a small pool while a victim task dies
    holding G_blocks; optional ``socdmmu-*`` fault models ghost free
    blocks and skew refcounts along the way.  Afterwards: every OOM was
    recovered (reclaim-retry, a served fallback, or a failover that
    failed back), the tables verify clean, no block is lost, and the
    software fallback holds nothing.
    """
    kernel = system.kernel
    heap = system.heap
    kernel.isolate_task_failures = True
    horizon = float(params.get("horizon", 6_000_000))
    victim_blocks = int(params.get("victim_blocks", 2))
    report: list = []
    victim_bytes = victim_blocks * heap.allocator.block_bytes
    kernel.create_task(
        lambda ctx: _pressure_victim(ctx, victim_bytes, die=True),
        "victim-dead", 1, "PE1")
    kernel.create_task(
        lambda ctx: _pressure_victim(ctx, victim_bytes, die=False),
        "victim-lazy", 2, "PE1")
    kernel.create_task(
        lambda ctx: _pressure_driver(ctx, heap, report),
        "driver", 3, "PE2")
    end = kernel.run(until=horizon)
    if not kernel.finished("driver"):
        return _failed("the driver never finished", cycles=end)
    if report:
        return _failed("; ".join(report), cycles=end)
    if heap.oom_events == 0:
        return _failed("the scenario never exhausted the pool", cycles=end)
    recoveries = heap.oom_recoveries + heap.software_served
    if recoveries == 0:
        return _failed(f"{heap.oom_events} OOMs, none recovered",
                       cycles=end)
    if heap.failovers != heap.failbacks:
        return _failed(
            f"{heap.failovers} failovers vs {heap.failbacks} failbacks",
            cycles=end)
    violations = heap.allocator.verify()
    if violations:
        return _failed(f"tables verify dirty: {violations}", cycles=end)
    if heap.allocator.used_blocks != 0:
        return _failed(
            f"{heap.allocator.used_blocks} blocks still owned after "
            "teardown", cycles=end)
    fallback = heap._fallback
    if fallback is not None and fallback.in_use_bytes:
        return _failed(
            f"software fallback still holds {fallback.in_use_bytes} "
            "bytes", cycles=end)
    injector = system.fault_injector
    fired = len(injector.records) if injector is not None else 0
    if str(params.get("model", "none")) != "none" and fired == 0:
        return _failed("the fault model never fired", cycles=end)
    return _passed(
        steps=heap.stats.malloc_calls, cycles=end,
        detail=(f"{heap.oom_events} OOMs, {heap.oom_recoveries} "
                f"recovered, {heap.reclaimed_blocks} blocks reclaimed, "
                f"{heap.failovers} failover(s), {heap.scrubs} scrubs, "
                f"{heap.audit_repairs} repairs, {fired} injections"))


def _vs_software_driver(ctx, heap, script: list, trace: list):
    """Run one seeded alloc/free script, recording per-op outcomes.

    Appends ``("ok"|"oom", mm_cycle_delta)`` per op so two heap
    services can be compared op-for-op.  Held allocations are tracked
    by script slot; a final sweep frees everything.
    """
    held: dict[int, int] = {}
    for op, slot, size_bytes in script:
        before = heap.stats.mm_cycles
        if op == "malloc":
            try:
                held[slot] = yield from heap.malloc(ctx, size_bytes)
            except AllocationError:
                trace.append(("oom", heap.stats.mm_cycles - before))
                continue
            trace.append(("ok", heap.stats.mm_cycles - before))
        else:
            address = held.pop(slot, None)
            if address is None:
                trace.append(("skip", 0.0))
                continue
            yield from heap.free(ctx, address)
            trace.append(("ok", heap.stats.mm_cycles - before))
    for slot in sorted(held):
        yield from heap.free(ctx, held[slot])


@checker("memory.vs-software")
def _check_vs_software(system, params: Mapping[str, Any],
                       rng: random.Random) -> CheckOutcome:
    """SoCDMMU and SoftwareHeap agree on outcomes; the unit is flat.

    The same seeded malloc/free script runs against the RTOS7 unit and
    a freshly built RTOS5 software heap.  Both must produce the same
    per-op success pattern and end empty; the SoCDMMU's per-malloc
    management cost must be *constant* (the Tables 11-12 determinism
    claim) and its worst case no slower than the software heap's worst
    case.
    """
    ops = int(params.get("ops", 80))
    block_bytes = system.heap.allocator.block_bytes
    # Bound the live set so both heaps can always serve the script; the
    # exhaustion differential is memory.exhaustion-recovery's job.
    slots = int(params.get("slots", 8))
    script, live = [], set()
    for _ in range(ops):
        slot = rng.randrange(slots)
        if slot in live:
            script.append(("free", slot, 0))
            live.discard(slot)
        else:
            script.append(("malloc", slot,
                           rng.randint(1, 3) * block_bytes))
            live.add(slot)
    traces = {}
    software = build_system("RTOS5")
    for label, target in (("hardware", system), ("software", software)):
        trace: list = []
        target.kernel.create_task(
            lambda ctx, heap=target.heap, t=trace:
                _vs_software_driver(ctx, heap, script, t),
            "driver", 1, "PE1")
        end = target.kernel.run(until=float(params.get(
            "horizon", 4_000_000)))
        if not target.kernel.finished("driver"):
            return _failed(f"{label} driver never finished", cycles=end)
        traces[label] = trace
    hw, sw = traces["hardware"], traces["software"]
    pattern_hw = [kind for kind, _ in hw]
    pattern_sw = [kind for kind, _ in sw]
    if pattern_hw != pattern_sw:
        first = next(i for i, (a, b) in enumerate(
            zip(pattern_hw, pattern_sw)) if a != b)
        return _failed(
            f"outcome divergence at op {first}: hardware "
            f"{pattern_hw[first]} vs software {pattern_sw[first]}")
    hw_mallocs = [delta for (kind, delta), (op, _s, _b) in zip(hw, script)
                  if kind == "ok" and op == "malloc"]
    sw_mallocs = [delta for (kind, delta), (op, _s, _b) in zip(sw, script)
                  if kind == "ok" and op == "malloc"]
    if not hw_mallocs:
        return _failed("script produced no successful mallocs")
    if max(hw_mallocs) != min(hw_mallocs):
        return _failed(
            f"SoCDMMU malloc cost varies: {min(hw_mallocs)} .. "
            f"{max(hw_mallocs)} cycles")
    if max(hw_mallocs) > max(sw_mallocs):
        return _failed(
            f"SoCDMMU worst case {max(hw_mallocs)} cycles exceeds the "
            f"software heap's {max(sw_mallocs)}")
    if system.heap.allocator.used_blocks != 0:
        return _failed(
            f"{system.heap.allocator.used_blocks} blocks leaked by the "
            "hardware run")
    if software.heap.in_use_bytes != 0:
        return _failed(
            f"{software.heap.in_use_bytes} bytes leaked by the software run")
    return _passed(
        steps=len(script),
        cycles=float(sum(delta for _, delta in hw)),
        detail=(f"{len(hw_mallocs)} mallocs agree; unit flat at "
                f"{max(hw_mallocs):g} cycles vs software worst "
                f"{max(sw_mallocs):g}"))

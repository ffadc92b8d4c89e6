"""Deadlock-managed resource allocation (configurations RTOS1-RTOS4).

This is the software layer the paper partitions: processes ask the RTOS
for peripherals (VI, IDCT, DSP, WI); the RTOS tracks requests and grants
and runs a deadlock algorithm on every event.  Four back-ends:

=======  ===========================================  ==================
Config   Algorithm                                    Execution
=======  ===========================================  ==================
RTOS1    PDDA detection (Algorithms 1-2)              software on the PE
RTOS2    PDDA detection                               DDU hardware unit
RTOS3    DAA avoidance (Algorithm 3)                  software on the PE
RTOS4    DAA avoidance                                DAU hardware unit
=======  ===========================================  ==================

Software back-ends serialize on a kernel mutex and burn the calling PE
for the full algorithm run time; hardware back-ends serialize on the
unit's command port and cost a couple of bus transactions plus the
unit's few busy cycles — that asymmetry is where the application-level
speedups of Tables 5, 7 and 9 come from.

Granted resource names that match an MPSoC peripheral are bound to it
(ownership assignment), so peripheral use is protocol-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, Iterable, Mapping, Optional

from repro import calibration
from repro.deadlock.daa import Action, AvoidanceCore, Decision
from repro.deadlock.ddu import DDU
from repro.deadlock.pdda import pdda_detect
from repro.errors import ConfigurationError
from repro.rag.graph import RAG
from repro.rtos.kernel import Kernel, TaskContext
from repro.sim.process import SimResource


class NotificationKind(enum.Enum):
    GRANT = "grant"
    GIVE_UP = "give-up"


@dataclass(frozen=True)
class ResourceNotification:
    """Asynchronous message from the resource service to a task."""

    kind: NotificationKind
    resource: str
    #: For GIVE_UP: who wants the resource (informational).
    on_behalf_of: Optional[str] = None
    livelock: bool = False


@dataclass(frozen=True)
class GrantOutcome:
    """Synchronous outcome of a request/release service call."""

    granted: bool
    pending: bool = False
    must_give_up: bool = False
    deadlock_detected: bool = False
    decision: Optional[Decision] = None


@dataclass
class ServiceStats:
    """Per-service measurement record for the experiment harnesses."""

    invocations: int = 0
    algorithm_cycles: list = field(default_factory=list)
    deadlock_found_at: Optional[float] = None
    deadlock_algorithm_cycles: Optional[float] = None

    @property
    def total_algorithm_cycles(self) -> float:
        return sum(self.algorithm_cycles)

    @property
    def mean_algorithm_cycles(self) -> float:
        if not self.algorithm_cycles:
            return 0.0
        return self.total_algorithm_cycles / len(self.algorithm_cycles)


class ResourceService:
    """Common machinery: grant delivery, peripheral binding, charging."""

    #: True when the algorithm runs in a hardware unit.
    hardware = False
    #: Fault-injection site of the unit's command/status port (set by
    #: the hardware-backed subclasses).
    port_site: Optional[str] = None

    def __init__(self, kernel: Kernel, resources: Iterable[str],
                 api_cycles: int = calibration.RTOS_RESOURCE_API_CYCLES
                 ) -> None:
        self.kernel = kernel
        self.resources = tuple(resources)
        self.api_cycles = api_cycles
        self.stats = ServiceStats()
        #: Fault injector hook for the unit-port sites (repro.faults).
        self.faults = None
        #: Resilient wrapper; None = the fault-free fast path.
        self.resilient = None
        self.watchdog = None
        #: (engine time, event string) history of the resilient path.
        self.fault_events: list = []
        self._gate = SimResource(kernel.engine, "resource.gate")
        self._grant_waits: dict[tuple[str, str], object] = {}
        # Grants *delivered* to tasks.  The algorithm core's state is
        # updated when a decision is computed, but the decision only
        # reaches the task after the algorithm's cycle cost has been
        # paid — wait_grant must test delivery, not core state.
        self._delivered: set = set()
        #: Fires the first time a deadlock is detected (harness hook).
        self.deadlock_event = kernel.engine.event(name="deadlock.detected")
        metrics = kernel.obs.metrics
        self._m_invocations = metrics.counter(
            "deadlock.invocations", "deadlock-algorithm runs")
        self._m_algo_cycles = metrics.histogram(
            "deadlock.algorithm_cycles", "modelled cycles per algorithm run")
        self._m_detected = metrics.counter(
            "deadlock.detected", "deadlocks reported by the algorithm")

    # -- to be provided by subclasses -------------------------------------------

    def holder_of(self, resource: str) -> Optional[str]:
        raise NotImplementedError

    def request(self, ctx: TaskContext, resource: str) -> Generator:
        raise NotImplementedError

    def release(self, ctx: TaskContext, resource: str) -> Generator:
        raise NotImplementedError

    def withdraw(self, ctx: TaskContext, resource: str) -> Generator:
        raise NotImplementedError

    # -- grant delivery ------------------------------------------------------------

    def wait_grant(self, ctx: TaskContext, resource: str) -> Generator:
        """Block until a pending request of this task is granted."""
        key = (ctx.task.name, resource)
        if key in self._delivered:
            return
        event = self.kernel.engine.event(name=f"grant.{resource}.{ctx.name}")
        self._grant_waits[key] = event
        yield from self.kernel.block_on(ctx.task, event)

    def _deliver_grant(self, process: str, resource: str) -> None:
        self._delivered.add((process, resource))
        self._bind_peripheral(process, resource)
        task = self.kernel.tasks.get(process)
        if task is not None:
            task.held_resources.append(resource)
            self.kernel.notify_task(task, ResourceNotification(
                NotificationKind.GRANT, resource))
        self.kernel.trace.record(self.kernel.engine.now, process,
                                 "resource_granted", resource=resource)
        event = self._grant_waits.pop((process, resource), None)
        if event is not None:
            event.set(resource)

    def _record_release(self, process: str, resource: str) -> None:
        self._delivered.discard((process, resource))
        self._unbind_peripheral(process, resource)
        task = self.kernel.tasks.get(process)
        if task is not None and resource in task.held_resources:
            task.held_resources.remove(resource)
        self.kernel.trace.record(self.kernel.engine.now, process,
                                 "resource_released", resource=resource)

    def _ask_release(self, pairs: Iterable, on_behalf_of: str,
                     livelock: bool = False) -> None:
        for process, resource in pairs:
            task = self.kernel.tasks.get(process)
            if task is None:
                continue
            self.kernel.notify_task(task, ResourceNotification(
                NotificationKind.GIVE_UP, resource,
                on_behalf_of=on_behalf_of, livelock=livelock))
            self.kernel.trace.record(self.kernel.engine.now, process,
                                     "asked_to_release", resource=resource,
                                     on_behalf_of=on_behalf_of)

    def _bind_peripheral(self, process: str, resource: str) -> None:
        peripheral = self.kernel.soc.peripherals.get(resource)
        if peripheral is not None:
            peripheral.assign(process)

    def _unbind_peripheral(self, process: str, resource: str) -> None:
        peripheral = self.kernel.soc.peripherals.get(resource)
        if peripheral is not None and peripheral.owner == process:
            peripheral.unassign(process)

    # -- cost charging ----------------------------------------------------------------

    def _charge(self, ctx: TaskContext, cycles: float) -> Generator:
        """Pay for one algorithm invocation (already holding the gate)."""
        if self.hardware:
            # Command write to the unit, unit busy time, status read.
            yield from ctx.pe.bus_write()
            yield cycles
            yield from ctx.pe.bus_read()
        else:
            # The calling PE runs the algorithm itself.
            yield from ctx.pe.execute(cycles)

    # -- resilient charging (active only when enable_resilience ran) -------------

    def _fault_event(self, event: str) -> None:
        self.fault_events.append((self.kernel.engine.now, event))

    def _log_fault_events(self, events: Iterable[str]) -> None:
        now = self.kernel.engine.now
        for event in events:
            self.fault_events.append((now, event))

    def _unit_bus(self, ctx: TaskContext, op: str) -> Generator:
        """One transaction on the unit's port, with bounded retry.

        Port faults (``ddu.port`` / ``dau.port``) hit only the
        service's own command/status traffic, never the workload's
        memory transactions.  An ERROR response is retried with
        backoff; exhausting the budget costs latency only — the next
        cross-check still validates the verdict itself.
        """
        policy = self.resilient.policy
        for attempt in range(policy.max_retries + 1):
            if attempt:
                self._fault_event("retry")
                yield from ctx.pe.execute(
                    policy.retry_backoff_cycles * attempt)
            error = False
            if self.faults is not None:
                for spec in self.faults.fire(self.port_site, key=op):
                    if spec.kind == "timeout":
                        yield int(spec.params.get("extra_cycles", 16))
                    elif spec.kind == "error":
                        error = True
            if op == "write":
                yield from ctx.pe.bus_write()
            else:
                yield from ctx.pe.bus_read()
            if not error:
                return
            self._fault_event("anomaly:bus")
            mode_before = self.resilient.mode
            self.resilient.note_bus_error()
            if self.resilient.mode != mode_before:
                self._fault_event("failover")
        self._fault_event("bus-unreachable")

    def _await_timeout(self, ctx: TaskContext, budget: float) -> Generator:
        """Wait out a hung unit under a watchdog."""
        if self.watchdog is None:
            yield budget
            return
        watch = self.watchdog.arm(f"{self.port_site}.{ctx.task.name}",
                                  budget)
        yield budget + 1
        if not self.watchdog.disarm(watch):
            self._fault_event("watchdog-trip")

    def _pay(self, ctx: TaskContext, outcome) -> Generator:
        """Pay a resilient invocation's charge segments in order."""
        for charge in outcome.charges:
            kind = charge.kind
            if kind == "bus_write":
                yield from self._unit_bus(ctx, "write")
            elif kind == "bus_read":
                yield from self._unit_bus(ctx, "read")
            elif kind == "bus_burst":
                yield from ctx.pe.bus_burst(words=max(1, int(charge.cycles)))
            elif kind == "unit":
                yield charge.cycles
            elif kind == "timeout":
                yield from self._await_timeout(ctx, charge.cycles)
            else:
                # software / backoff both run on the calling PE.
                yield from ctx.pe.execute(charge.cycles)

    def _note_invocation(self, cycles: float) -> None:
        self.stats.invocations += 1
        self.stats.algorithm_cycles.append(cycles)
        if self.kernel.obs.enabled:
            self._m_invocations.inc()
            self._m_algo_cycles.observe(cycles)

    def _note_deadlock(self, algorithm_cycles: float) -> None:
        if self.kernel.obs.enabled:
            self._m_detected.inc()
        if self.stats.deadlock_found_at is None:
            self.stats.deadlock_found_at = self.kernel.engine.now
            self.stats.deadlock_algorithm_cycles = algorithm_cycles
            self.kernel.trace.record(self.kernel.engine.now, "service",
                                     "deadlock_detected")
            self.deadlock_event.set(self.kernel.engine.now)


class _WithdrawMixin:
    """Shared withdraw path for the resource services.

    Concrete services provide ``_do_withdraw(process, resource)`` to
    remove the pending request from their algorithm state.
    """

    def withdraw(self, ctx: TaskContext, resource: str) -> Generator:
        """Cancel the calling task's pending request for ``resource``."""
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        self._do_withdraw(ctx.task.name, resource)
        self._grant_waits.pop((ctx.task.name, resource), None)
        self.kernel.trace.record(self.kernel.engine.now, ctx.task.name,
                                 "request_withdrawn", resource=resource)
        self._gate.release(ctx.task.name)
        return GrantOutcome(granted=False)


class DetectionResourceService(_WithdrawMixin, ResourceService):
    """RTOS1 / RTOS2: availability+priority grants, detection after events.

    Requests are granted when the resource is free, otherwise queued by
    priority; PDDA runs after every request and release command.  When
    it reports a deadlock the service records the detection time — the
    Table 5 application measurement stops there (the application cannot
    finish once deadlocked).
    """

    def __init__(self, kernel: Kernel, processes: Iterable[str],
                 resources: Iterable[str], priorities: Mapping[str, int],
                 use_ddu: bool = False) -> None:
        super().__init__(kernel, resources)
        self.rag = RAG(processes, resources)
        self.priorities = dict(priorities)
        self.hardware = use_ddu
        self.ddu = (DDU(self.rag.num_resources, self.rag.num_processes,
                        obs=kernel.obs)
                    if use_ddu else None)
        self._m_sw_detections = kernel.obs.metrics.counter(
            "matrix.fastpath.sw_detections",
            "software PDDA runs (on the bitmask backend)")

    port_site = "ddu.port"

    def enable_resilience(self, policy=None):
        """Arm cross-checking, retry and DDU->software failover.

        Only meaningful for RTOS2: RTOS1 already *is* the software
        path.  Returns the :class:`ResilientDetector` for inspection.
        """
        if self.ddu is None:
            raise ConfigurationError(
                "resilience wraps the DDU; RTOS1 has no unit to fail")
        from repro.faults.health import ResiliencePolicy
        from repro.faults.resilient import ResilientDetector
        from repro.rtos.watchdog import Watchdog
        policy = policy if policy is not None else ResiliencePolicy()
        self.resilient = ResilientDetector(self.ddu, policy,
                                           obs=self.kernel.obs)
        self.watchdog = Watchdog(self.kernel)
        return self.resilient

    def holder_of(self, resource: str) -> Optional[str]:
        return self.rag.holder_of(resource)

    def _do_withdraw(self, process: str, resource: str) -> None:
        # Idempotent: recovery may already have withdrawn the edge.
        if resource in self.rag.requests_of(process):
            self.rag.remove_request(process, resource)

    def _detect(self) -> tuple[bool, float]:
        """Run detection on the current state; returns (deadlock, cycles)."""
        if self.ddu is not None:
            self.ddu.load(self.rag)
            result = self.ddu.detect()
            return result.deadlock, result.cycles
        if self.kernel.obs.enabled:
            self._m_sw_detections.inc()
        result = pdda_detect(self.rag)
        return result.deadlock, result.software_cycles

    def _detect_and_charge(self, ctx: TaskContext) -> Generator:
        """One detection invocation: run, record, pay.  Returns deadlock."""
        if self.resilient is not None:
            outcome = self.resilient.detect(self.rag)
            self._note_invocation(outcome.cycles)
            self._log_fault_events(outcome.events)
            span = self.kernel.obs.begin(ctx.task.name, "detect",
                                         cycles=outcome.cycles,
                                         deadlock=outcome.deadlock,
                                         hardware=outcome.hardware)
            try:
                yield from self._pay(ctx, outcome)
            finally:
                self.kernel.obs.end(span)
            if outcome.deadlock:
                self._note_deadlock(outcome.cycles)
            return outcome.deadlock
        deadlock, cycles = self._detect()
        self._note_invocation(cycles)
        span = self.kernel.obs.begin(ctx.task.name, "detect",
                                     cycles=cycles, deadlock=deadlock)
        try:
            yield from self._charge(ctx, cycles)
        finally:
            self.kernel.obs.end(span)
        if deadlock:
            self._note_deadlock(cycles)
        return deadlock

    def request(self, ctx: TaskContext, resource: str) -> Generator:
        # Detection runs on *every* resource allocation event (Section
        # 4.1): once when the request edge appears and again when a
        # grant edge appears, so an immediately-granted request costs
        # two invocations — this is how the Table 4 scenario reaches
        # its ~10 invocations.
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        self.rag.add_request(ctx.task.name, resource)
        deadlock = yield from self._detect_and_charge(ctx)
        granted = False
        if self.rag.is_available(resource):
            self.rag.remove_request(ctx.task.name, resource)
            self.rag.grant(resource, ctx.task.name)
            granted = True
            deadlock = (yield from self._detect_and_charge(ctx)) or deadlock
            self._deliver_grant(ctx.task.name, resource)
        self._gate.release(ctx.task.name)
        return GrantOutcome(granted=granted, pending=not granted,
                            deadlock_detected=deadlock)

    def release(self, ctx: TaskContext, resource: str) -> Generator:
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        self.rag.release(ctx.task.name, resource)
        self._record_release(ctx.task.name, resource)
        deadlock = yield from self._detect_and_charge(ctx)
        waiters = sorted(self.rag.waiters_for(resource),
                         key=lambda p: self.priorities[p])
        if waiters:
            granted_to = waiters[0]
            self.rag.remove_request(granted_to, resource)
            self.rag.grant(resource, granted_to)
            deadlock = (yield from self._detect_and_charge(ctx)) or deadlock
            self._deliver_grant(granted_to, resource)
        self._gate.release(ctx.task.name)
        return GrantOutcome(granted=True, deadlock_detected=deadlock)


class AvoidanceResourceService(_WithdrawMixin, ResourceService):
    """RTOS3 / RTOS4: every event goes through Algorithm 3.

    Wraps an :class:`~repro.deadlock.daa.AvoidanceCore` (the software
    DAA or the DAU) and converts its :class:`Decision` into task-level
    effects: grants are delivered, give-up demands are sent as
    notifications (Assumption 3's mechanism).
    """

    port_site = "dau.port"

    def __init__(self, kernel: Kernel, core: AvoidanceCore,
                 hardware: bool = False) -> None:
        super().__init__(kernel, core.rag.resources)
        self.core = core
        self.hardware = hardware

    def enable_resilience(self, policy=None):
        """Arm cross-checking and DAU -> SoftwareDAA twin failover.

        Only meaningful for RTOS4: RTOS3's core is already software.
        Returns the :class:`ResilientAvoider` for inspection.
        """
        if not self.hardware:
            raise ConfigurationError(
                "resilience wraps the DAU; RTOS3 has no unit to fail")
        from repro.faults.health import ResiliencePolicy
        from repro.faults.resilient import ResilientAvoider
        from repro.rtos.watchdog import Watchdog
        policy = policy if policy is not None else ResiliencePolicy()
        self.resilient = ResilientAvoider(self.core, policy,
                                          obs=self.kernel.obs)
        self.watchdog = Watchdog(self.kernel)
        return self.resilient

    @property
    def _active_core(self):
        if self.resilient is not None:
            return self.resilient.active_core
        return self.core

    def holder_of(self, resource: str) -> Optional[str]:
        return self._active_core.rag.holder_of(resource)

    def _do_withdraw(self, process: str, resource: str) -> None:
        core = self._active_core
        if resource in core.rag.requests_of(process):
            core.withdraw(process, resource)

    def _decide_and_pay(self, ctx: TaskContext, op: str,
                        resource: str) -> Generator:
        """Resilient path: decide via the wrapper, pay its charges."""
        outcome = self.resilient.decide(ctx.pe.name, op, ctx.task.name,
                                        resource)
        self._note_invocation(outcome.cycles)
        self._log_fault_events(outcome.events)
        span = self.kernel.obs.begin(ctx.task.name, f"avoid.{op}",
                                     cycles=outcome.cycles,
                                     hardware=outcome.hardware)
        try:
            yield from self._pay(ctx, outcome)
        finally:
            self.kernel.obs.end(span)
        return outcome.decision

    def request(self, ctx: TaskContext, resource: str) -> Generator:
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        if self.resilient is not None:
            decision = yield from self._decide_and_pay(ctx, "request",
                                                       resource)
            if decision.action is Action.GRANTED:
                self._deliver_grant(ctx.task.name, resource)
            if (decision.ask_release
                    and decision.action is not Action.GIVE_UP):
                self._ask_release(decision.ask_release,
                                  on_behalf_of=ctx.task.name,
                                  livelock=decision.livelock)
            self._gate.release(ctx.task.name)
            return GrantOutcome(
                granted=decision.action is Action.GRANTED,
                pending=decision.action is Action.PENDING,
                must_give_up=decision.action is Action.GIVE_UP,
                decision=decision)
        decision = self.core.request(ctx.task.name, resource)
        self._note_invocation(decision.cycles)
        yield from self._charge(ctx, decision.cycles)
        if decision.action is Action.GRANTED:
            self._deliver_grant(ctx.task.name, resource)
        if decision.ask_release and decision.action is not Action.GIVE_UP:
            self._ask_release(decision.ask_release,
                              on_behalf_of=ctx.task.name,
                              livelock=decision.livelock)
        self._gate.release(ctx.task.name)
        return GrantOutcome(
            granted=decision.action is Action.GRANTED,
            pending=decision.action is Action.PENDING,
            must_give_up=decision.action is Action.GIVE_UP,
            decision=decision)

    def release(self, ctx: TaskContext, resource: str) -> Generator:
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        if self.resilient is not None:
            decision = yield from self._decide_and_pay(ctx, "release",
                                                       resource)
            self._record_release(ctx.task.name, resource)
            if decision.granted_to is not None:
                self._deliver_grant(decision.granted_to, resource)
            if decision.ask_release:
                self._ask_release(decision.ask_release,
                                  on_behalf_of=ctx.task.name,
                                  livelock=decision.livelock)
            self._gate.release(ctx.task.name)
            return GrantOutcome(granted=True, decision=decision)
        decision = self.core.release(ctx.task.name, resource)
        self._note_invocation(decision.cycles)
        self._record_release(ctx.task.name, resource)
        yield from self._charge(ctx, decision.cycles)
        if decision.granted_to is not None:
            self._deliver_grant(decision.granted_to, resource)
        if decision.ask_release:
            self._ask_release(decision.ask_release,
                              on_behalf_of=ctx.task.name,
                              livelock=decision.livelock)
        self._gate.release(ctx.task.name)
        return GrantOutcome(granted=True, decision=decision)


class MultiUnitResourceService(_WithdrawMixin, ResourceService):
    """Pooled resources through the kernel (the multi-unit extension).

    Wraps a :class:`~repro.deadlock.multiunit_avoidance.MultiUnitAvoider`
    so tasks can request several units of a resource class
    (``ctx.request("DMA", units=2)``).  Grant delivery fires when a
    task's outstanding request for the class is fully satisfied.
    Resource classes are pools, not single peripherals, so no
    peripheral ownership binding is applied.
    """

    def __init__(self, kernel: Kernel, avoider,
                 hardware: bool = False) -> None:
        super().__init__(kernel, avoider.system.resources)
        self.core = avoider
        self.hardware = hardware

    def holder_of(self, resource: str):
        raise NotImplementedError(
            "pooled resources have unit counts, not single holders; "
            "use core.system.allocation_of()")

    def _bind_peripheral(self, process: str, resource: str) -> None:
        pass

    def _unbind_peripheral(self, process: str, resource: str) -> None:
        pass

    def _do_withdraw(self, process: str, resource: str) -> None:
        outstanding = self.core.system.outstanding_request(process,
                                                           resource)
        if outstanding:
            self.core.system.withdraw(process, resource, outstanding)

    def wait_grant(self, ctx: TaskContext, resource: str) -> Generator:
        """Block until the task's outstanding request is fully granted."""
        system = self.core.system
        if (system.outstanding_request(ctx.task.name, resource) == 0
                and system.allocation_of(ctx.task.name, resource) > 0):
            return
        key = (ctx.task.name, resource)
        event = self.kernel.engine.event(name=f"grant.{resource}.{ctx.name}")
        self._grant_waits[key] = event
        yield from self.kernel.block_on(ctx.task, event)

    def request(self, ctx: TaskContext, resource: str,
                units: int = 1) -> Generator:
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        decision = self.core.request(ctx.task.name, resource, units)
        self._note_invocation(decision.cycles)
        yield from self._charge(ctx, decision.cycles)
        if decision.action is Action.GRANTED:
            self._deliver_grant(ctx.task.name, resource)
        if decision.ask_release and decision.action is not Action.GIVE_UP:
            self._ask_release(decision.ask_release,
                              on_behalf_of=ctx.task.name,
                              livelock=decision.livelock)
        self._gate.release(ctx.task.name)
        return GrantOutcome(
            granted=decision.action is Action.GRANTED,
            pending=decision.action is Action.PENDING,
            must_give_up=decision.action is Action.GIVE_UP,
            decision=decision)

    def release(self, ctx: TaskContext, resource: str,
                units: int = 0) -> Generator:
        """Release ``units`` (0 = everything held) of a class."""
        system = self.core.system
        held = system.allocation_of(ctx.task.name, resource)
        amount = units if units else held
        yield from ctx.pe.execute(self.api_cycles)
        yield from self._gate.acquire(ctx.task.name)
        decision = self.core.release(ctx.task.name, resource, amount)
        self._note_invocation(decision.cycles)
        self._record_release(ctx.task.name, resource)
        yield from self._charge(ctx, decision.cycles)
        if decision.granted_to is not None and \
                system.outstanding_request(decision.granted_to,
                                           resource) == 0:
            self._deliver_grant(decision.granted_to, resource)
        if decision.ask_release:
            self._ask_release(decision.ask_release,
                              on_behalf_of=ctx.task.name,
                              livelock=decision.livelock)
        self._gate.release(ctx.task.name)
        return GrantOutcome(granted=True, decision=decision)


def make_resource_service(kernel: Kernel, config: str,
                          processes: Iterable[str],
                          resources: Iterable[str],
                          priorities: Mapping[str, int]) -> ResourceService:
    """Build the resource service for a Table 3 configuration name.

    ``config`` is one of ``"RTOS1"`` (software PDDA), ``"RTOS2"`` (DDU),
    ``"RTOS3"`` (software DAA), ``"RTOS4"`` (DAU).
    """
    from repro.deadlock.daa import SoftwareDAA
    from repro.deadlock.dau import DAU

    config = config.upper()
    if config == "RTOS1":
        return DetectionResourceService(kernel, processes, resources,
                                        priorities, use_ddu=False)
    if config == "RTOS2":
        return DetectionResourceService(kernel, processes, resources,
                                        priorities, use_ddu=True)
    if config == "RTOS3":
        core = SoftwareDAA(processes, resources, priorities)
        return AvoidanceResourceService(kernel, core, hardware=False)
    if config == "RTOS4":
        core = DAU(processes, resources, priorities, obs=kernel.obs)
        return AvoidanceResourceService(kernel, core, hardware=True)
    raise ConfigurationError(
        f"unknown deadlock configuration {config!r} "
        "(expected RTOS1..RTOS4)")

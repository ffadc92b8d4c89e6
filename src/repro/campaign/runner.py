"""The sharded campaign runner.

Scenarios are dealt round-robin onto ``workers`` shards; each shard is
one ``multiprocessing`` worker process that executes its scenarios
serially and streams one result record per scenario back through its
own pipe.  The parent waits on every pipe and every worker's process
sentinel in one loop, which first runs and retries share.  Fault
handling:

* **per-task timeout** — each scenario is armed with a ``SIGALRM``
  interval timer inside the worker; a scenario that overruns yields a
  ``"timeout"`` verdict and the shard moves on;
* **worker crash isolation** — a worker that dies mid-scenario (hard
  ``os._exit``, segfault, OOM kill) loses only its *unreported*
  scenarios; its sentinel tells the parent it died, and the parent
  keeps every record already streamed, and re-runs the missing
  scenarios one per fresh process with bounded retry and exponential
  backoff.  A retry has no deadline beyond ``task_timeout``, just as a
  first attempt has none.  Scenarios that keep killing their process
  are recorded with verdict ``"crash"``;
* **interrupt / SIGTERM as worker loss** — a ``KeyboardInterrupt`` or
  ``SIGTERM`` delivered to a shard worker (cluster preemption, operator
  Ctrl-C reaching the process group) is not a scenario verdict: the
  worker reports itself *lost* naming the scenario it was on, the loss
  is recorded in the run manifest (``worker_losses``), and the
  unreported scenarios go down the same retry path as a crash;
* **graceful partial results** — the result list is complete in every
  case: one record per expanded scenario, sorted by scenario id.

Verdicts and the steps/cycles measurements depend only on the spec and
the seed root — never on worker count, shard layout, or wall-clock —
so two runs of the same campaign produce identical result JSONL modulo
the :data:`TIMING_FIELDS`.
"""

from __future__ import annotations

import multiprocessing
import random
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Mapping, Optional, Union

from pathlib import Path

from repro.campaign.checkers import lookup
from repro.campaign.spec import CampaignSpec, Scenario
from repro.errors import ReproError
from repro.obs import (
    FlightRecorder,
    Observability,
    blackbox_to_perfetto,
    build_profile,
    clear_live_systems,
    live_systems,
    merge_profiles,
    set_default_enabled,
)

#: Record fields that carry wall-clock or placement information; strip
#: them (see :func:`strip_timing`) before comparing two runs for
#: reproducibility.
TIMING_FIELDS = ("duration", "start", "shard", "attempts")

#: True when the platform has per-process interval timers.  Windows has
#: neither ``SIGALRM`` nor ``setitimer``; there the per-task timeout
#: degrades to a documented no-op — scenarios run unguarded, while
#: worker-crash isolation and retry still apply — instead of an
#: ``AttributeError`` inside every worker.
HAS_SIGALRM = hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")

#: Verdicts that count as scenario failures.
FAILURE_VERDICTS = ("fail", "error", "timeout", "crash")


def strip_timing(record: Mapping[str, Any]) -> dict:
    """A record with placement/wall-clock fields removed."""
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


@dataclass
class ScenarioResult:
    """One scenario's outcome, as stored in the result JSONL."""

    scenario_id: str
    seed: int
    generator: str
    checker: str
    params: dict
    verdict: str          # pass | fail | error | timeout | crash
    ok: bool
    steps: int = 0
    cycles: float = 0.0
    detail: str = ""
    duration: float = 0.0   # wall seconds spent on the final attempt
    start: float = 0.0      # wall seconds since campaign start
    shard: int = 0
    attempts: int = 1

    def to_record(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "seed": self.seed,
            "generator": self.generator,
            "checker": self.checker,
            "params": dict(self.params),
            "verdict": self.verdict,
            "ok": self.ok,
            "steps": self.steps,
            "cycles": self.cycles,
            "detail": self.detail,
            "duration": self.duration,
            "start": self.start,
            "shard": self.shard,
            "attempts": self.attempts,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ScenarioResult":
        return cls(**{k: record[k] for k in (
            "scenario_id", "seed", "generator", "checker", "params",
            "verdict", "ok", "steps", "cycles", "detail", "duration",
            "start", "shard", "attempts")})


class _ScenarioTimeout(Exception):
    pass


def _alarm_handler(signum, frame):  # pragma: no cover - fires in workers
    raise _ScenarioTimeout()


def execute_scenario(scenario: Scenario,
                     checkpoint_dir: Optional[str] = None
                     ) -> ScenarioResult:
    """Run one scenario in-process (the worker and replay path).

    Builds the scenario's private RNG from its derived seed, runs
    generator then checker, and maps any :class:`ReproError` (or other
    exception) to an ``"error"`` verdict — a checker bug must not take
    down a shard.

    When ``checkpoint_dir`` is set and the checker opted in (an
    ``accepts_checkpoint`` attribute), the checker is handed a
    :class:`~repro.checkpoint.scenario.ScenarioCheckpoint` so it can
    save mid-scenario state at its cadence and restore after a crash;
    the checkpoint file is cleared once the scenario completes.
    """
    generate = lookup("generator", scenario.generator)
    check = lookup("checker", scenario.checker)
    rng = random.Random(scenario.seed)
    checkpoint = None
    if checkpoint_dir and getattr(check, "accepts_checkpoint", False):
        from repro.checkpoint.scenario import (
            DEFAULT_CADENCE,
            ScenarioCheckpoint,
        )
        checkpoint = ScenarioCheckpoint(
            checkpoint_dir, scenario.scenario_id,
            cadence=int(scenario.params.get("checkpoint_every",
                                            DEFAULT_CADENCE)))
    try:
        subject = generate(dict(scenario.params), rng)
        if checkpoint is not None:
            outcome = check(subject, dict(scenario.params), rng,
                            checkpoint=checkpoint)
        else:
            outcome = check(subject, dict(scenario.params), rng)
        if checkpoint is not None:
            checkpoint.clear()
        verdict, ok = outcome.verdict, outcome.ok
        steps, cycles, detail = (outcome.steps, outcome.cycles,
                                 outcome.detail)
    except _ScenarioTimeout:
        raise
    except ReproError as exc:
        verdict, ok = "error", False
        steps, cycles = 0, 0.0
        detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - shard must survive
        verdict, ok = "error", False
        steps, cycles = 0, 0.0
        detail = f"{type(exc).__name__}: {exc}"
    return ScenarioResult(
        scenario_id=scenario.scenario_id, seed=scenario.seed,
        generator=scenario.generator, checker=scenario.checker,
        params=dict(scenario.params), verdict=verdict, ok=ok,
        steps=steps, cycles=cycles, detail=detail)


def _run_with_timeout(scenario: Scenario, timeout: Optional[float],
                      checkpoint_dir: Optional[str] = None
                      ) -> ScenarioResult:
    if timeout is None or not HAS_SIGALRM:
        # No-timeout fallback: without SIGALRM/setitimer (Windows) a
        # hung scenario is only bounded by the operator; crash
        # isolation and retry are unaffected.
        return execute_scenario(scenario, checkpoint_dir=checkpoint_dir)
    signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute_scenario(scenario, checkpoint_dir=checkpoint_dir)
    except _ScenarioTimeout:
        return ScenarioResult(
            scenario_id=scenario.scenario_id, seed=scenario.seed,
            generator=scenario.generator, checker=scenario.checker,
            params=dict(scenario.params), verdict="timeout", ok=False,
            detail=f"exceeded the per-task timeout of {timeout:g}s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _sigterm_handler(signum, frame):
    """SIGTERM -> KeyboardInterrupt, so polite termination unwinds
    through the same retryable worker-loss path as Ctrl-C."""
    raise KeyboardInterrupt


def _worker_main(shard: int, scenarios: list, timeout: Optional[float],
                 conn, epoch: float,
                 checkpoint_dir: Optional[str] = None,
                 blackbox_dir: Optional[str] = None,
                 profile: bool = False) -> None:
    """One shard: run scenarios serially, send each record down
    ``conn`` (the write end of this worker's pipe), then ``("done",
    shard)``.  Runs in a child process.

    ``KeyboardInterrupt``/``SystemExit`` (including SIGTERM, remapped
    above) are *worker losses*, not verdicts: the shard reports which
    scenario it was interrupted on and exits; the parent records the
    loss and retries the unreported scenarios in fresh processes.

    With ``blackbox_dir`` set the shard streams a flight-recorder black
    box to ``<dir>/shard<N>.jsonl`` — flushed per event, so everything
    up to (and excluding) a torn final line survives even ``SIGKILL``.
    With ``profile`` set, every system a scenario builds is born
    instrumented; the merged per-scenario profile streams back as a
    ``("profile", ...)`` pipe message ahead of the result record.
    """
    signal.signal(signal.SIGTERM, _sigterm_handler)
    flight: Optional[FlightRecorder] = None
    if blackbox_dir:
        flight = FlightRecorder(clock=lambda: time.time() - epoch)
        flight.enable()
        flight.arm_sink(Path(blackbox_dir) / f"shard{shard}.jsonl")
    current: Optional[str] = None
    try:
        for data in scenarios:
            scenario = Scenario.from_dict(data)
            current = scenario.scenario_id
            if flight is not None:
                flight.record("scenario_start", actor=f"shard{shard}",
                              scenario_id=current)
            if profile:
                clear_live_systems()
                set_default_enabled(True)
            started = time.time()
            try:
                result = _run_with_timeout(scenario, timeout,
                                           checkpoint_dir=checkpoint_dir)
            finally:
                if profile:
                    set_default_enabled(False)
            result.duration = time.time() - started
            result.start = started - epoch
            result.shard = shard
            if profile:
                captured = [build_profile(obs) for obs in live_systems()]
                clear_live_systems()
                merged = merge_profiles(captured, label=current)
                merged.meta["scenario_id"] = current
                merged.meta["verdict"] = result.verdict
                conn.send(("profile", {"scenario_id": current,
                                       "profile": merged.to_dict()}))
            if flight is not None:
                flight.record("scenario_end", actor=f"shard{shard}",
                              scenario_id=current, verdict=result.verdict)
            conn.send(("result", result.to_record()))
        conn.send(("done", shard))
    except (KeyboardInterrupt, SystemExit):
        if flight is not None:
            flight.record("worker_lost", actor=f"shard{shard}",
                          scenario_id=current or "")
        conn.send(("lost", {"shard": shard, "scenario_id": current,
                            "at": time.time() - epoch}))
    finally:
        if flight is not None:
            flight.close_sink()


def profile_filename(scenario_id: str) -> str:
    """Manifest-relative path of one scenario's profile artifact."""
    return "profiles/" + scenario_id.replace("/", "__") + ".profile.json"


class _WallClock:
    """A settable ``engine``-shaped clock for replaying wall times into
    the observability layer (``Observability`` reads ``engine.now``)."""

    def __init__(self) -> None:
        self.now = 0.0


@dataclass
class CampaignRun:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    seed_root: Union[int, str]
    workers: int
    task_timeout: Optional[float]
    retries: int
    results: list = field(default_factory=list)
    shard_map: dict = field(default_factory=dict)
    duration: float = 0.0
    obs: Optional[Observability] = None
    #: One entry per interrupted/terminated worker (shard, scenario it
    #: was on, seconds since campaign start) — losses are retried, but
    #: the manifest keeps the evidence.
    worker_losses: list = field(default_factory=list)
    #: {scenario_id: profile dict} when the run profiled (the store
    #: writes these under ``<run>/profiles/`` for the manifest to
    #: reference) — never part of the result records or their digest.
    profiles: dict = field(default_factory=dict)

    @property
    def counts(self) -> dict:
        out: dict = {"pass": 0, "fail": 0, "error": 0, "timeout": 0,
                     "crash": 0}
        for result in self.results:
            out[result.verdict] = out.get(result.verdict, 0) + 1
        return out

    @property
    def failures(self) -> list:
        return [r for r in self.results if r.verdict in FAILURE_VERDICTS]

    def manifest(self) -> dict:
        """The run manifest: everything `replay` and `diff` need."""
        return {
            "campaign": self.spec.name,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "seed_root": self.seed_root,
            "workers": self.workers,
            "task_timeout": self.task_timeout,
            "retries": self.retries,
            "scenario_count": len(self.results),
            "counts": self.counts,
            "duration": self.duration,
            "worker_losses": list(self.worker_losses),
            "shard_map": dict(sorted(self.shard_map.items())),
            "scenarios": {
                r.scenario_id: {"verdict": r.verdict, "ok": r.ok,
                                "steps": r.steps, "cycles": r.cycles,
                                "duration": r.duration}
                for r in self.results},
            **({"profiles": {scenario_id: profile_filename(scenario_id)
                             for scenario_id in sorted(self.profiles)}}
               if self.profiles else {}),
        }

    def render_summary(self) -> str:
        counts = self.counts
        total = len(self.results)
        parts = [f"{counts[v]} {v}" for v in
                 ("pass", "fail", "error", "timeout", "crash")
                 if counts.get(v)]
        lines = [f"campaign {self.spec.name!r}: {total} scenario(s) on "
                 f"{self.workers} worker(s) in {self.duration:.2f}s — "
                 + ", ".join(parts or ["nothing ran"])]
        for result in self.failures[:20]:
            lines.append(f"  {result.verdict.upper():<8s} "
                         f"{result.scenario_id}  {result.detail}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def replay_scenario(manifest: Mapping[str, Any],
                    scenario_id: str) -> ScenarioResult:
    """Deterministically re-execute one scenario from a run manifest.

    Rebuilds the campaign spec embedded in the manifest, re-expands it
    under the recorded seed root (ids and seeds are placement-free, so
    the scenario is byte-identical to the original), and runs it
    in-process — the debugging path for a failure found at scale.
    """
    spec = CampaignSpec.from_dict(manifest["spec"])
    for scenario in spec.expand(manifest["seed_root"]):
        if scenario.scenario_id == scenario_id:
            started = time.time()
            result = execute_scenario(scenario)
            result.duration = time.time() - started
            return result
    raise ReproError(
        f"scenario {scenario_id!r} is not in campaign "
        f"{manifest.get('campaign')!r}")


class CampaignRunner:
    """Expand a spec and grind it through a sharded worker pool."""

    def __init__(self, spec: CampaignSpec,
                 seed_root: Union[int, str] = 0,
                 workers: int = 1,
                 task_timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff: float = 0.05,
                 obs: Optional[Observability] = None,
                 journal: Optional[Any] = None,
                 checkpoint_dir: Optional[str] = None,
                 blackbox_dir: Optional[str] = None,
                 profile: bool = False) -> None:
        if workers < 1:
            raise ReproError("need at least one worker")
        if retries < 0:
            raise ReproError("retries must be non-negative")
        spec.validate()
        self.spec = spec
        self.seed_root = seed_root
        self.workers = workers
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff = backoff
        #: Optional :class:`~repro.campaign.journal.RunJournal`; when
        #: set, every completed record is journaled (fsync'd) by the
        #: parent before the run proceeds.
        self.journal = journal
        #: Directory for checkpoint-aware checkers' mid-scenario
        #: snapshots (usually ``<run>/checkpoints``).
        self.checkpoint_dir = checkpoint_dir
        #: Directory for worker flight-recorder black boxes (usually
        #: ``<run>/blackbox``); None disables the recorders.
        self.blackbox_dir = blackbox_dir
        #: When True, workers instrument every system a scenario builds
        #: and stream back one merged profile per scenario.
        self.profile = profile
        self._profiles: dict = {}
        self.obs = obs if obs is not None else Observability(
            label=f"campaign:{spec.name}", enabled=False)
        if blackbox_dir:
            # The parent keeps its own black box for crash forensics:
            # worker losses and crashes are trip events that dump it.
            self.obs.flight.enable()
            self.obs.flight.autodump_to(
                Path(blackbox_dir) / "campaign.blackbox.json")
        metrics = self.obs.metrics
        self._m_scenarios = metrics.counter(
            "campaign.scenarios", "scenarios executed")
        self._m_verdicts = {
            verdict: metrics.counter(f"campaign.{verdict}",
                                     f"scenarios with verdict {verdict}")
            for verdict in ("pass", "fail", "error", "timeout", "crash")}
        self._m_retries = metrics.counter(
            "campaign.retries", "crash-recovery re-executions")
        self._m_losses = metrics.counter(
            "campaign.worker_losses",
            "workers lost to interrupt/SIGTERM")
        self._worker_losses: list = []
        self._m_journaled = metrics.counter(
            "checkpoint.journal_records",
            "scenario records made durable in the run journal")
        self._m_resume_skipped = metrics.counter(
            "checkpoint.resume_skipped",
            "scenarios skipped on resume (already journaled complete)")
        self._m_duration = metrics.histogram(
            "campaign.scenario_seconds", "wall seconds per scenario",
            bounds=(0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1, 5, 30))

    # -- public entry --------------------------------------------------------

    def run(self, completed: Optional[Mapping[str, Any]] = None
            ) -> CampaignRun:
        """Run the campaign; ``completed`` (the resume path) maps
        scenario ids to already-journaled records to skip."""
        scenarios = self.spec.expand(self.seed_root)
        for scenario in scenarios:   # fail fast on unknown names
            lookup("generator", scenario.generator)
            lookup("checker", scenario.checker)
        records: dict = {}
        if completed:
            known = {s.scenario_id for s in scenarios}
            for scenario_id, record in completed.items():
                if scenario_id not in known:
                    raise ReproError(
                        f"journaled scenario {scenario_id!r} is not in "
                        "this campaign — spec mismatch on resume")
                records[scenario_id] = dict(record)
                self._m_resume_skipped.inc()
        pending = [s for s in scenarios if s.scenario_id not in records]
        shard_map = {scenario.scenario_id: index % self.workers
                     for index, scenario in enumerate(pending)}
        epoch = time.time()
        self._worker_losses: list = []
        self._profiles = {}
        shards: dict = {shard: [] for shard in range(self.workers)}
        for scenario in pending:
            shards[shard_map[scenario.scenario_id]].append(scenario)
        records.update(self._run_workers(shards, epoch, self.blackbox_dir))
        for scenario in pending:
            if scenario.scenario_id not in records:
                records[scenario.scenario_id] = self._retry_scenario(
                    scenario, shard_map[scenario.scenario_id], epoch)
        for scenario_id, record in records.items():
            shard_map.setdefault(scenario_id, record.get("shard", 0))
        results = [ScenarioResult.from_record(records[s.scenario_id])
                   for s in sorted(scenarios,
                                   key=lambda s: s.scenario_id)]
        run = CampaignRun(
            spec=self.spec, seed_root=self.seed_root,
            workers=self.workers, task_timeout=self.task_timeout,
            retries=self.retries, results=results, shard_map=shard_map,
            duration=time.time() - epoch, obs=self.obs,
            worker_losses=list(self._worker_losses),
            profiles=dict(self._profiles))
        self._observe(run)
        return run

    # -- sharded execution ---------------------------------------------------

    def _run_workers(self, shards: Mapping[int, list], epoch: float,
                     blackbox_dir: Optional[str],
                     attempts: int = 1) -> dict:
        """Run one worker per shard until every worker has exited.

        Returns {scenario_id: record} for every scenario reported before
        its worker exited, each stamped with ``attempts``.  Every worker
        writes to its own pipe, so a worker that dies mid-write blocks
        only itself.  The parent waits on every pipe and on every
        process sentinel: a pipe's EOF is no death signal, because a
        forked grandchild (say, a service shard a checker started) can
        inherit the write end and outlive the worker.
        """
        ctx = multiprocessing.get_context()
        readers: dict = {}      # pipe read end -> shard
        sentinels: dict = {}    # sentinel -> (shard, read end, process)
        for shard, work in shards.items():
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(shard, [scenario.to_dict() for scenario in work],
                      self.task_timeout, writer, epoch, self.checkpoint_dir,
                      blackbox_dir, self.profile),
                daemon=True)
            process.start()
            writer.close()
            readers[reader] = shard
            sentinels[process.sentinel] = (shard, reader, process)

        records: dict = {}
        signed_off: set = set()   # shards that sent "done" or "lost"

        def receive(reader, shard: int) -> bool:
            """Handle one message; False once the pipe has nothing left."""
            try:
                kind, payload = reader.recv()
            except (EOFError, OSError):
                return False
            if kind == "result":
                payload["attempts"] = attempts
                self._journal_record(payload)
                records[payload["scenario_id"]] = payload
            elif kind == "profile":
                self._profiles[payload["scenario_id"]] = payload["profile"]
            else:
                signed_off.add(shard)
                if kind == "lost":
                    # Interrupted/terminated mid-scenario: the unreported
                    # scenarios take the crash-retry path.
                    self._note_loss(payload)
            return True

        while sentinels:
            for ready in connection.wait([*readers, *sentinels]):
                if ready in readers:
                    if not receive(ready, readers[ready]):
                        del readers[ready]   # the sentinel reports the exit
                elif ready in sentinels:
                    shard, reader, process = sentinels.pop(ready)
                    if readers.pop(reader, None) is not None:
                        while reader.poll(0) and receive(reader, shard):
                            pass
                    reader.close()
                    process.join()
                    if shard not in signed_off:
                        self._note_crash(shard, epoch)
        return records

    def _retry_scenario(self, scenario: Scenario, shard: int,
                        epoch: float) -> dict:
        """Re-run a scenario whose worker died, in a fresh process per
        attempt, with exponential backoff.  Returns its record (verdict
        ``"crash"`` after the retry budget is exhausted)."""
        for attempt in range(self.retries):
            time.sleep(self.backoff * (2 ** attempt))
            self._m_retries.inc()
            # No black box for the retry: re-arming shard<N>.jsonl
            # would truncate the crash evidence the dead worker left.
            records = self._run_workers({shard: [scenario]}, epoch, None,
                                        attempts=attempt + 2)
            if scenario.scenario_id in records:
                return records[scenario.scenario_id]
        record = ScenarioResult(
            scenario_id=scenario.scenario_id, seed=scenario.seed,
            generator=scenario.generator, checker=scenario.checker,
            params=dict(scenario.params), verdict="crash", ok=False,
            detail=f"worker died or was interrupted; {self.retries} "
                   "retry attempt(s) also failed",
            start=time.time() - epoch, shard=shard,
            attempts=self.retries + 1).to_record()
        self._journal_record(record)
        return record

    def _note_loss(self, payload: Mapping[str, Any]) -> None:
        self._worker_losses.append(dict(payload))
        self._m_losses.inc()
        if self.obs.flight.enabled:
            self.obs.flight.mark(
                "worker_lost", actor=f"shard{payload.get('shard')}",
                scenario_id=payload.get("scenario_id") or "")
        self._export_blackbox(payload.get("shard"))

    def _note_crash(self, shard: int, epoch: float) -> None:
        """A worker exited without a ``done`` or ``lost`` message:
        keep the evidence.

        The dead worker's streamed black box (everything flushed before
        the kill) is converted into a Perfetto trace next to the JSONL,
        and the parent's own flight recorder trips a ``worker_crash``
        auto-dump.
        """
        if self.obs.flight.enabled:
            self.obs.flight.mark("worker_crash", actor=f"shard{shard}",
                                 at=time.time() - epoch)
        self._export_blackbox(shard)

    def _export_blackbox(self, shard: Optional[int]) -> None:
        if self.blackbox_dir is None or shard is None:
            return
        source = Path(self.blackbox_dir) / f"shard{shard}.jsonl"
        if source.exists():
            blackbox_to_perfetto(
                source,
                Path(self.blackbox_dir) / f"shard{shard}.blackbox.json")

    def _journal_record(self, record: Mapping[str, Any]) -> None:
        """Make one record durable before the run proceeds (WAL)."""
        if self.journal is None:
            return
        self.journal.append_result(record)
        self._m_journaled.inc()

    # -- observability -------------------------------------------------------

    def _observe(self, run: CampaignRun) -> None:
        """Merge per-worker timings into the runner's metrics + spans.

        Workers are separate processes, so the parent replays their
        reported start/duration into one shared timeline: each shard
        becomes a span actor, each scenario one span — which is what
        ``--trace-out`` exports as a single merged Perfetto trace.
        """
        if not self.obs.enabled:
            return
        clock = _WallClock()
        # Observability.now (the tracer's clock) reads engine.now
        # dynamically, so installing the wall clock as the engine lets
        # the parent stamp spans at the workers' reported times.
        self.obs.engine = clock
        for result in sorted(run.results,
                             key=lambda r: (r.shard, r.start)):
            self._m_scenarios.inc()
            self._m_verdicts[result.verdict].inc()
            self._m_duration.observe(result.duration)
            clock.now = result.start * 1e6   # seconds -> us (trace ts)
            span = self.obs.begin(f"shard{result.shard}",
                                  result.scenario_id,
                                  verdict=result.verdict,
                                  checker=result.checker,
                                  steps=result.steps,
                                  cycles=result.cycles)
            clock.now = (result.start + result.duration) * 1e6
            self.obs.end(span)
        clock.now = run.duration * 1e6

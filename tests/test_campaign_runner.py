"""The sharded runner: determinism, fault isolation, retry, replay."""

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ScenarioSpec,
    builtin_campaign,
    execute_scenario,
    load_manifest,
    load_results,
    replay_scenario,
    results_digest,
    strip_timing,
    write_run,
)
from repro.campaign.checkers import replay_op
from repro.errors import ReproError
from repro.obs import Observability
from repro.service import ServiceOpError
from repro.service.tenant import Tenant


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _campaign(*specs, name="t") -> CampaignSpec:
    return CampaignSpec(name=name, scenarios=tuple(specs))


def _honest(name="honest", repeats=4, m=4, n=4) -> ScenarioSpec:
    return ScenarioSpec(name=name, generator="rag.random",
                        checker="pdda-vs-oracle",
                        params={"m": m, "n": n}, repeats=repeats)


class TestExecuteScenario:
    def test_same_scenario_same_outcome(self):
        scenario = builtin_campaign("smoke").expand(42)[0]
        first = execute_scenario(scenario)
        second = execute_scenario(scenario)
        assert strip_timing(first.to_record()) == \
            strip_timing(second.to_record())

    def test_checker_exception_becomes_error_verdict(self):
        spec = _campaign(ScenarioSpec(
            name="bad", generator="rag.random",
            checker="pdda-vs-oracle", params={"m": -1, "n": 3}))
        result = execute_scenario(spec.expand(0)[0])
        assert result.verdict == "error"
        assert not result.ok
        assert result.detail

    def test_every_checker_in_smoke_passes(self):
        for scenario in builtin_campaign("smoke").expand(7):
            result = execute_scenario(scenario)
            assert result.ok, (scenario.scenario_id, result.detail)


class TestDeterminism:
    def test_digest_is_placement_independent(self):
        campaign = _campaign(_honest(repeats=6), _honest("b", repeats=3))
        runs = [CampaignRunner(campaign, seed_root=42, workers=w).run()
                for w in (1, 3)]
        digests = {results_digest(run.results) for run in runs}
        assert len(digests) == 1
        assert all(len(r.results) == campaign.count() for r in runs)

    def test_different_seed_roots_differ(self):
        campaign = _campaign(_honest(repeats=8, m=6, n=6))
        a = CampaignRunner(campaign, seed_root=1).run()
        b = CampaignRunner(campaign, seed_root=2).run()
        assert results_digest(a.results) != results_digest(b.results)

    def test_results_sorted_by_scenario_id(self):
        run = CampaignRunner(_campaign(_honest(repeats=5)),
                             workers=2).run()
        ids = [r.scenario_id for r in run.results]
        assert ids == sorted(ids)


class TestFaultIsolation:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_crash_loses_nothing_else(self, workers):
        campaign = _campaign(
            _honest(repeats=6),
            ScenarioSpec(name="boom", generator="census",
                         checker="chaos.crash", params={"m": 2, "n": 2}))
        run = CampaignRunner(campaign, workers=workers, retries=1,
                             backoff=0.01).run()
        assert len(run.results) == campaign.count()
        by_id = {r.scenario_id: r for r in run.results}
        assert by_id["boom/00000"].verdict == "crash"
        assert by_id["boom/00000"].attempts == 2
        honest = [r for r in run.results
                  if r.scenario_id.startswith("honest/")]
        assert all(r.verdict == "pass" for r in honest)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_crash_retry_recovers_flaky_scenario(self, workers, tmp_path):
        marker = tmp_path / "crashed-once"
        campaign = _campaign(
            _honest(repeats=2),
            ScenarioSpec(name="flaky", generator="census",
                         checker="chaos.crash_once",
                         params={"m": 2, "n": 2,
                                 "marker": str(marker)}))
        run = CampaignRunner(campaign, workers=workers, retries=2,
                             backoff=0.01).run()
        by_id = {r.scenario_id: r for r in run.results}
        assert by_id["flaky/00000"].verdict == "pass"
        assert by_id["flaky/00000"].attempts == 2
        assert marker.exists()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_interrupted_worker_recorded_and_retried(self, workers, tmp_path):
        marker = tmp_path / "interrupted-once"
        campaign = _campaign(
            _honest(repeats=4),
            ScenarioSpec(name="intr", generator="census",
                         checker="chaos.interrupt_once",
                         params={"m": 2, "n": 2,
                                 "marker": str(marker)}))
        run = CampaignRunner(campaign, workers=workers, retries=2,
                             backoff=0.01).run()
        assert len(run.results) == campaign.count()
        by_id = {r.scenario_id: r for r in run.results}
        assert by_id["intr/00000"].verdict == "pass"
        assert by_id["intr/00000"].attempts == 2
        assert marker.exists()
        assert [loss["scenario_id"] for loss in run.worker_losses] == \
            ["intr/00000"]
        assert run.manifest()["worker_losses"] == run.worker_losses
        honest = [r for r in run.results
                  if r.scenario_id.startswith("honest/")]
        assert all(r.verdict == "pass" for r in honest)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_persistent_interrupt_exhausts_to_crash(self, workers):
        campaign = _campaign(
            _honest(repeats=2),
            ScenarioSpec(name="intr", generator="census",
                         checker="chaos.interrupt",
                         params={"m": 2, "n": 2}))
        run = CampaignRunner(campaign, workers=workers, retries=1,
                             backoff=0.01).run()
        by_id = {r.scenario_id: r for r in run.results}
        assert by_id["intr/00000"].verdict == "crash"
        # Initial worker plus every retry attempt reported itself lost.
        assert len(run.worker_losses) == 2
        assert all(loss["scenario_id"] == "intr/00000"
                   for loss in run.worker_losses)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sigterm_in_worker_is_a_recorded_loss(self, workers):
        campaign = _campaign(
            _honest(repeats=2),
            ScenarioSpec(name="term", generator="census",
                         checker="chaos.interrupt",
                         params={"m": 2, "n": 2, "sigterm": True}))
        run = CampaignRunner(campaign, workers=workers, retries=1,
                             backoff=0.01).run()
        by_id = {r.scenario_id: r for r in run.results}
        assert by_id["term/00000"].verdict == "crash"
        assert run.worker_losses
        assert all(loss["scenario_id"] == "term/00000"
                   for loss in run.worker_losses)
        honest = [r for r in run.results
                  if r.scenario_id.startswith("honest/")]
        assert all(r.verdict == "pass" for r in honest)

    def test_per_task_timeout_keeps_the_shard_going(self):
        campaign = _campaign(
            ScenarioSpec(name="hang", generator="census",
                         checker="chaos.hang",
                         params={"m": 2, "n": 2, "seconds": 30.0}),
            _honest(repeats=3))
        run = CampaignRunner(campaign, workers=1,
                             task_timeout=0.3).run()
        assert len(run.results) == campaign.count()
        by_id = {r.scenario_id: r for r in run.results}
        assert by_id["hang/00000"].verdict == "timeout"
        assert all(by_id[f"honest/{i:05d}"].verdict == "pass"
                   for i in range(3))

    def test_counts_and_failures_reflect_verdicts(self):
        campaign = _campaign(
            _honest(repeats=2),
            ScenarioSpec(name="hang", generator="census",
                         checker="chaos.hang",
                         params={"m": 2, "n": 2, "seconds": 30.0}))
        run = CampaignRunner(campaign, task_timeout=0.3).run()
        assert run.counts["pass"] == 2
        assert run.counts["timeout"] == 1
        assert [r.scenario_id for r in run.failures] == ["hang/00000"]

    def test_dying_worker_blocks_no_other_shard(self, tmp_path):
        # The dying worker takes every multiprocessing queue's write lock
        # with it, the state a worker killed mid-put leaves behind.  A
        # runner that streams through one shared queue then waits forever
        # on the surviving shard, so the run happens in a subprocess
        # under a hard timeout.
        script = tmp_path / "wedge.py"
        script.write_text(WEDGE_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, str(script)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the runner wedged behind a dead worker")
        assert child.returncode == 0, err
        verdicts = json.loads(out)
        assert verdicts["dies/00000"] == ["crash", 2]
        assert verdicts["sleeps/00000"] == ["pass", 1]

    def test_retry_has_no_deadline_beyond_task_timeout(self):
        # At one worker the hang follows the crash on the same shard, so
        # it only runs as a retry; at two it runs as a first attempt.
        # Its verdict must not depend on which.
        campaign = _campaign(
            ScenarioSpec(name="crash", generator="census",
                         checker="chaos.crash", params={"m": 2, "n": 2}),
            ScenarioSpec(name="hang", generator="census",
                         checker="chaos.hang",
                         params={"m": 2, "n": 2, "seconds": 8.0}))

        def hang_result(workers):
            run = CampaignRunner(campaign, workers=workers, retries=1,
                                 backoff=0.01).run()
            return next(r for r in run.results
                        if r.scenario_id == "hang/00000")

        retried, first = hang_result(1), hang_result(2)
        assert retried.verdict == "fail"
        assert retried.attempts == 2
        assert first.attempts == 1
        assert strip_timing(retried.to_record()) == \
            strip_timing(first.to_record())


WEDGE_SCRIPT = """
import gc
import json
import multiprocessing.queues
import os
import time

from repro.campaign import CampaignRunner, CampaignSpec, ScenarioSpec
from repro.campaign.checkers import CheckOutcome, checker


@checker("test.die_holding_queue_locks")
def _die(subject, params, rng):
    for obj in gc.get_objects():
        if isinstance(obj, multiprocessing.queues.Queue) and obj._wlock:
            obj._wlock.acquire()
    os._exit(66)


@checker("test.sleep_then_pass")
def _sleep(subject, params, rng):
    time.sleep(0.5)
    return CheckOutcome(ok=True, verdict="pass")


if __name__ == "__main__":
    campaign = CampaignSpec(name="wedge", scenarios=(
        ScenarioSpec(name="dies", generator="census",
                     checker="test.die_holding_queue_locks",
                     params={"m": 2, "n": 2}),
        ScenarioSpec(name="sleeps", generator="census",
                     checker="test.sleep_then_pass",
                     params={"m": 2, "n": 2}),
    ))
    run = CampaignRunner(campaign, workers=2, retries=1,
                         backoff=0.01).run()
    print(json.dumps({r.scenario_id: [r.verdict, r.attempts]
                      for r in run.results}))
"""


class TestManifestAndReplay:
    def test_replay_matches_recorded_outcome(self, tmp_path):
        campaign = _campaign(_honest(repeats=4, m=5, n=5))
        run = CampaignRunner(campaign, seed_root="soak-1",
                             workers=2).run()
        write_run(tmp_path, run)
        manifest = load_manifest(tmp_path)
        for scenario_id, summary in manifest["scenarios"].items():
            replayed = replay_scenario(manifest, scenario_id)
            assert replayed.verdict == summary["verdict"]
            assert replayed.steps == summary["steps"]
            assert replayed.cycles == summary["cycles"]

    def test_replay_unknown_scenario_raises(self, tmp_path):
        run = CampaignRunner(_campaign(_honest(repeats=1))).run()
        write_run(tmp_path, run)
        with pytest.raises(ReproError, match="not in campaign"):
            replay_scenario(load_manifest(tmp_path), "honest/99999")

    def test_store_round_trip_preserves_digest(self, tmp_path):
        run = CampaignRunner(_campaign(_honest(repeats=5)),
                             workers=2).run()
        results_path, _manifest_path = write_run(tmp_path, run)
        reloaded = load_results(results_path)
        assert results_digest(reloaded) == results_digest(run.results)

    def test_manifest_carries_spec_and_shard_map(self, tmp_path):
        campaign = _campaign(_honest(repeats=4))
        run = CampaignRunner(campaign, seed_root=3, workers=2).run()
        manifest = run.manifest()
        assert manifest["spec_hash"] == campaign.spec_hash()
        assert manifest["seed_root"] == 3
        assert set(manifest["shard_map"].values()) == {0, 1}
        assert manifest["scenario_count"] == campaign.count()


class TestObservability:
    def test_metrics_and_spans_cover_every_scenario(self):
        campaign = _campaign(_honest(repeats=5))
        obs = Observability(label="campaign:test", enabled=True)
        run = CampaignRunner(campaign, workers=2, obs=obs).run()
        counters = obs.metrics.snapshot().counters
        assert counters["campaign.scenarios"] == campaign.count()
        assert counters["campaign.pass"] == campaign.count()
        spans = obs.tracer.all_spans()
        assert len(spans) == campaign.count()
        assert {span.actor for span in spans} == {"shard0", "shard1"}
        recorded = {span.name for span in spans}
        assert recorded == {r.scenario_id for r in run.results}


class TestArgumentValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ReproError, match="worker"):
            CampaignRunner(_campaign(_honest()), workers=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ReproError, match="retries"):
            CampaignRunner(_campaign(_honest()), retries=-1)

    def test_unknown_checker_fails_before_spawning(self):
        campaign = _campaign(ScenarioSpec(
            name="x", generator="rag.random", checker="nope"))
        with pytest.raises(ReproError, match="unknown checker"):
            CampaignRunner(campaign).run()


class _TwinService:
    """A fake client answering from its own tenant twin.

    ``mangle(op, reply)`` rewrites the ``index``-th reply (``{}`` when
    the twin refused that op), or raises in its place, to play a
    service that answers wrongly once.
    """

    def __init__(self, index=None, mangle=None):
        self.twin = Tenant.from_attach("t", {"m": 3, "n": 3})
        self.index, self.mangle, self.sent = index, mangle, 0

    def _answer(self, op, fields):
        if op != "detect":
            return getattr(self.twin, op)(fields)
        solo = self.twin.matrix.copy()
        iterations, passes = solo.reduce()
        return {"deadlock": not solo.is_empty(), "iterations": iterations,
                "passes": passes, "op_seq": self.twin.op_seq}

    async def request(self, op, tenant, **fields):
        position, self.sent = self.sent, self.sent + 1
        if position != self.index:
            return self._answer(op, fields)
        try:
            reply = self._answer(op, fields)
        except ServiceOpError:
            reply = {}
        return self.mangle(op, dict(reply))


#: A deadlock in four claims, a refused claim, a detect, and a release
#: that promotes a waiter.
_OPS = (("claim", "p1", "q1"), ("claim", "p2", "q2"),
        ("claim", "p1", "q2"), ("claim", "p2", "q1"),
        ("claim", "p2", "q1"), ("detect", None, None),
        ("release", "p1", "q1"), ("detect", None, None))


def _replay(client):
    oracle = Tenant.from_attach("t", {"m": 3, "n": 3})
    return [asyncio.run(replay_op(client, oracle, "t", kind, process,
                                  resource))
            for kind, process, resource in _OPS]


def _set(key, value):
    def mangle(_op, reply):
        reply[key] = value(reply[key])
        return reply
    return mangle


def _refuse(_op, _reply):
    raise ServiceOpError("bad-request", "wrong refusal")


class TestReplayOp:
    def test_faithful_service_matches_every_op(self):
        client = _TwinService()
        assert _replay(client) == [None] * len(_OPS)
        assert client.twin.op_seq == 5          # the refused claim

    @pytest.mark.parametrize("index, mangle, needle", [
        (0, _set("granted", lambda granted: not granted), "granted"),
        (2, _set("op_seq", lambda seq: seq + 1), "op_seq"),
        (1, _refuse, "service error bad-request != oracle None"),
        (5, _set("iterations", lambda count: count + 1), "detect"),
        (6, _set("promoted", lambda _name: None), "promoted"),
        (4, lambda _op, _reply: {"granted": True, "op_seq": 5},
         "service error None != oracle protocol-violation"),
    ])
    def test_one_wrong_answer_is_reported(self, index, mangle, needle):
        messages = _replay(_TwinService(index, mangle))
        assert needle in messages[index]
        assert [i for i, m in enumerate(messages) if m] == [index]

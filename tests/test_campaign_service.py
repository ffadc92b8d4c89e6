"""The service checkers end to end, through the campaign runner.

Pins the ``service`` builtin's digest, and runs ``service.shard-kill``
at a small scope: a real server subprocess with worker-process shards,
one of them SIGKILLed mid-run.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ScenarioSpec,
    builtin_campaign,
    results_digest,
)
from repro.campaign import checkers
from repro.campaign.runner import execute_scenario, strip_timing
from repro.service import ServiceClient


def _shard_kill(**params):
    spec = CampaignSpec(name="kill", scenarios=(ScenarioSpec(
        name="small", generator="service.population",
        checker="service.shard-kill", params=params),))
    return spec.expand(42)[0]


def test_service_builtin_digest_is_pinned():
    run = CampaignRunner(builtin_campaign("service"), seed_root=42,
                         workers=1).run()
    assert [r.scenario_id for r in run.results if not r.ok] == []
    assert results_digest(run.results).startswith("11018084892b")


def test_shard_kill_passes_alike_twice_and_leaves_no_process(monkeypatch):
    pids = []
    spawn = checkers._spawn_server

    def recording_spawn(shards, stderr):
        process = spawn(shards, stderr)
        pids.append(process.pid)
        return process

    shards_op = ServiceClient.shards

    async def recording_shards(self):
        reply = await shards_op(self)
        pids.extend(shard["pid"] for shard in reply["shards"])
        return reply

    monkeypatch.setattr(checkers, "_spawn_server", recording_spawn)
    monkeypatch.setattr(ServiceClient, "shards", recording_shards)
    scenario = _shard_kill(tenants=12, shards=2)
    first = execute_scenario(scenario)
    second = execute_scenario(scenario)
    assert first.verdict == "pass", first.detail
    assert first.steps == 12 * 10 + 6
    assert first.detail == "12 tenants x 10 ops on 2 shards, 3 rehomed"
    assert strip_timing(first.to_record()) == \
        strip_timing(second.to_record())
    # Two servers, two shards each.
    assert len(set(pids)) == 6
    for pid in set(pids):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_server_that_never_gets_ready_fails_with_its_stderr():
    result = execute_scenario(_shard_kill(tenants=2, shards=0))
    assert result.verdict == "fail"
    assert "before its ready line" in result.detail
    assert "at least one shard" in result.detail


#: A stand-in campaign worker: runs one ``service.shard-kill`` scenario
#: and prints the server's pid, then every shard pid it learns.
_WORKER = textwrap.dedent("""
    from repro.campaign import CampaignSpec, ScenarioSpec, checkers
    from repro.campaign.runner import execute_scenario
    from repro.service import ServiceClient

    spawn, shards_op = checkers._spawn_server, ServiceClient.shards

    def printing_spawn(shards, stderr):
        process = spawn(shards, stderr)
        print(process.pid, flush=True)
        return process

    async def printing_shards(self):
        reply = await shards_op(self)
        print(*(shard["pid"] for shard in reply["shards"]), flush=True)
        return reply

    checkers._spawn_server = printing_spawn
    ServiceClient.shards = printing_shards
    execute_scenario(CampaignSpec(name="kill", scenarios=(ScenarioSpec(
        name="big", generator="service.population",
        checker="service.shard-kill",
        params={"tenants": 400, "shards": 2}),)).expand(42)[0])
""")


def _gone(pid: int) -> bool:
    """No such process, or only its zombie (which no one may reap)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux only")
def test_server_and_shards_die_with_a_killed_worker():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
        env.get("PYTHONPATH")]))
    worker = subprocess.Popen([sys.executable, "-c", _WORKER], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        server = int(worker.stdout.readline())
        shards = [int(pid) for pid in worker.stdout.readline().split()]
        # Mid-run: the checker is about to SIGKILL one of the shards.
        assert len(shards) == 2
        assert not _gone(server)
    finally:
        worker.send_signal(signal.SIGKILL)
        worker.wait()
        worker.stdout.close()
    deadline = time.monotonic() + 10.0
    while not all(_gone(pid) for pid in [server, *shards]):
        assert time.monotonic() < deadline, "the server outlived its worker"
        time.sleep(0.02)

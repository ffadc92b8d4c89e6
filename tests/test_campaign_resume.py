"""Crash-consistent campaign runs: journal, resume, timeout fallback.

Covers the write-ahead journal's durability contract, the
``run(completed=...)`` resume path, the SIGALRM timeout guard's two
branches, and end-to-end kill-and-resume determinism at 1 and 4
workers (SIGKILL the whole runner process group mid-campaign, resume,
and require the digest of an uninterrupted run).
"""

import json
import signal

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ScenarioSpec,
    builtin_campaign,
    load_results,
    results_digest,
)
from repro.campaign import runner as runner_module
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.journal import (
    JOURNAL_NAME,
    RunJournal,
    journal_header,
)
from repro.campaign.runner import _run_with_timeout
from repro.campaign.soak import journal_records, soak
from repro.errors import ConfigurationError, ReproError


def _header(spec=None, **overrides):
    spec = spec or builtin_campaign("smoke")
    header = journal_header(spec.to_dict(), spec.spec_hash(),
                            seed_root=42, workers=1,
                            task_timeout=None, retries=1)
    header.update(overrides)
    return header


def _record(scenario_id, verdict="pass"):
    return {"scenario_id": scenario_id, "seed": 1,
            "generator": "rag.random", "checker": "pdda-vs-oracle",
            "params": {}, "verdict": verdict, "ok": verdict == "pass",
            "steps": 3, "cycles": 3.0, "detail": "", "duration": 0.01,
            "start": 0.0, "shard": 0, "attempts": 1}


# -- RunJournal ----------------------------------------------------------------

class TestRunJournal:
    def test_create_append_load_roundtrip(self, tmp_path):
        with RunJournal.create(tmp_path, _header()) as journal:
            journal.append_result(_record("smoke/00000"))
            journal.append_result(_record("smoke/00001", "fail"))
        header, records = RunJournal.load(tmp_path)
        assert header["seed_root"] == 42
        assert sorted(records) == ["smoke/00000", "smoke/00001"]
        assert records["smoke/00001"]["verdict"] == "fail"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        with RunJournal.create(tmp_path, _header()) as journal:
            journal.append_result(_record("smoke/00000"))
        path = tmp_path / JOURNAL_NAME
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"result","record":{"scenario_id"')
        header, records = RunJournal.load(tmp_path)
        assert list(records) == ["smoke/00000"]

    def test_mid_journal_corruption_raises(self, tmp_path):
        with RunJournal.create(tmp_path, _header()) as journal:
            journal.append_result(_record("smoke/00000"))
        path = tmp_path / JOURNAL_NAME
        lines = path.read_text().splitlines()
        lines.insert(1, "{ torn mid-file")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            RunJournal.load(tmp_path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text(json.dumps(
            {"type": "result", "record": _record("smoke/00000")}) + "\n")
        with pytest.raises(ConfigurationError, match="run_start"):
            RunJournal.load(tmp_path)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no journal"):
            RunJournal.load(tmp_path)
        with pytest.raises(ConfigurationError, match="no journal"):
            RunJournal.append_to(tmp_path)

    def test_duplicate_record_keeps_last(self, tmp_path):
        with RunJournal.create(tmp_path, _header()) as journal:
            journal.append_result(_record("smoke/00000", "crash"))
            journal.append_result(_record("smoke/00000", "pass"))
        _, records = RunJournal.load(tmp_path)
        assert records["smoke/00000"]["verdict"] == "pass"

    def test_append_to_continues_existing_journal(self, tmp_path):
        with RunJournal.create(tmp_path, _header()) as journal:
            journal.append_result(_record("smoke/00000"))
        with RunJournal.append_to(tmp_path) as journal:
            journal.append_result(_record("smoke/00001"))
        _, records = RunJournal.load(tmp_path)
        assert sorted(records) == ["smoke/00000", "smoke/00001"]

    def test_header_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="missing"):
            RunJournal.create(tmp_path, {"spec": {}})

    def test_every_line_is_durable_immediately(self, tmp_path):
        # Each append is flushed before returning: a concurrent reader
        # (or a post-SIGKILL resume) sees it without close().
        journal = RunJournal.create(tmp_path, _header())
        journal.append_result(_record("smoke/00000"))
        try:
            _, records = RunJournal.load(tmp_path)
            assert list(records) == ["smoke/00000"]
        finally:
            journal.close()


# -- runner integration: journal + resume --------------------------------------

def _tiny_spec():
    return CampaignSpec(name="resume-t", scenarios=(
        ScenarioSpec(name="pdda", generator="rag.random",
                     checker="pdda-vs-oracle",
                     params={"m": 3, "n": 3}, repeats=4),))


class TestRunnerResume:
    def test_run_journals_every_record(self, tmp_path):
        spec = _tiny_spec()
        journal = RunJournal.create(tmp_path, _header(spec))
        try:
            run = CampaignRunner(spec, seed_root=42, workers=1,
                                 journal=journal).run()
        finally:
            journal.close()
        _, records = RunJournal.load(tmp_path)
        assert sorted(records) == sorted(
            r.scenario_id for r in run.results)

    def test_resume_skips_completed_and_matches_digest(self, tmp_path):
        spec = _tiny_spec()
        reference = CampaignRunner(spec, seed_root=42, workers=1).run()
        full = {r.scenario_id: r.to_record() for r in reference.results}
        # Resume with half the records journaled: only the rest re-run,
        # and the merged digest equals the uninterrupted run's.
        half = dict(list(sorted(full.items()))[:2])
        resumed = CampaignRunner(spec, seed_root=42, workers=1).run(
            completed=half)
        assert results_digest(resumed.results) == \
            results_digest(reference.results)

    def test_resume_with_all_records_runs_nothing(self):
        spec = _tiny_spec()
        reference = CampaignRunner(spec, seed_root=42, workers=1).run()
        full = {r.scenario_id: r.to_record() for r in reference.results}
        resumed = CampaignRunner(spec, seed_root=42, workers=1).run(
            completed=full)
        assert results_digest(resumed.results) == \
            results_digest(reference.results)

    def test_resume_with_unknown_scenario_is_spec_mismatch(self):
        runner = CampaignRunner(_tiny_spec(), seed_root=42, workers=1)
        with pytest.raises(ReproError, match="spec mismatch"):
            runner.run(completed={"other/00000": _record("other/00000")})


# -- SIGALRM guard: both branches ----------------------------------------------

class TestTimeoutGuard:
    def _scenario(self):
        return _tiny_spec().expand(42)[0]

    def test_platform_has_sigalrm_detected(self):
        # On POSIX CI both attributes exist; the constant reflects that.
        expected = hasattr(signal, "SIGALRM") and \
            hasattr(signal, "setitimer")
        assert runner_module.HAS_SIGALRM == expected

    @pytest.mark.skipif(not runner_module.HAS_SIGALRM,
                        reason="platform has no SIGALRM")
    def test_sigalrm_branch_times_out_hung_scenario(self):
        spec = CampaignSpec(name="hang-t", scenarios=(
            ScenarioSpec(name="hang", generator="rag.random",
                         checker="chaos.hang",
                         params={"m": 2, "n": 2, "seconds": 30}),))
        result = _run_with_timeout(spec.expand(0)[0], timeout=0.2)
        assert result.verdict == "timeout"
        assert not result.ok

    def test_fallback_branch_never_touches_setitimer(self, monkeypatch):
        # Simulate a SIGALRM-less platform (Windows): the guard must
        # run the scenario to completion without any itimer syscall.
        def forbidden(*args, **kwargs):      # pragma: no cover - guard
            raise AssertionError("setitimer used on no-SIGALRM path")

        monkeypatch.setattr(runner_module, "HAS_SIGALRM", False)
        monkeypatch.setattr(runner_module.signal, "setitimer", forbidden,
                            raising=False)
        result = _run_with_timeout(self._scenario(), timeout=0.001)
        assert result.verdict in ("pass", "fail")   # ran, unbounded

    def test_fallback_branch_matches_untimed_outcome(self, monkeypatch):
        scenario = self._scenario()
        reference = _run_with_timeout(scenario, timeout=None)
        monkeypatch.setattr(runner_module, "HAS_SIGALRM", False)
        fallback = _run_with_timeout(scenario, timeout=5.0)
        assert fallback.verdict == reference.verdict
        assert fallback.steps == reference.steps
        assert fallback.cycles == reference.cycles


# -- end-to-end kill-and-resume determinism ------------------------------------

def test_journal_records_counts_zero_before_the_journal_exists(tmp_path):
    assert journal_records(tmp_path) == 0
    with RunJournal.create(tmp_path, _header()) as journal:
        journal.append_result(_record("smoke/00000"))
        journal.append_result(_record("smoke/00000"))
        journal.append_result(_record("smoke/00001"))
    assert journal_records(tmp_path) == 2


@pytest.mark.parametrize("workers", [1, 4])
def test_kill_and_resume_digest_matches_clean_run(tmp_path, workers):
    report = soak(["--builtin", "faults"], tmp_path, seed_root="42",
                  workers=workers, kills=1)
    # A kill that landed mid-campaign left a strict prefix of the full
    # run journaled; resume finished it.
    total = len(load_results(tmp_path / "clean"))
    assert all(records < total for records in report.kills)
    assert report.crashed_digest == report.clean_digest


def test_soak_cli_without_kills_compares_worker_counts(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_tiny_spec().to_json())
    status = campaign_main(["soak", "--spec", str(spec_path),
                            "--seed-root", "7", "--workers", "2",
                            "--kills", "0", "--out", str(tmp_path / "s")])
    assert status == 0
    out = capsys.readouterr().out
    assert "kill #" not in out and "determinism holds" in out
    assert journal_records(tmp_path / "s" / "crashed") == 4

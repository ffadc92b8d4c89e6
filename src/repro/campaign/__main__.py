"""The campaign CLI: run, resume, soak, replay, diff.

Usage::

    python -m repro.campaign run                          # builtin smoke
    python -m repro.campaign run --builtin claims \\
        --workers 4 --seed-root 42 --out runs/claims-a
    python -m repro.campaign run --spec my_campaign.json \\
        --timeout 30 --baseline runs/claims-a --out runs/claims-b
    python -m repro.campaign resume runs/claims-a         # after a crash
    python -m repro.campaign soak --builtin faults --seed-root 42 \\
        --workers 4 --kills 2 --out runs/faults-soak
    python -m repro.campaign replay runs/claims-a pdda-oracle/00017
    python -m repro.campaign diff runs/claims-a runs/claims-b
    python -m repro.campaign list

``run --out DIR`` keeps a write-ahead journal in DIR; if the runner is
killed mid-campaign (even ``kill -9``), ``resume DIR`` skips every
journaled-complete scenario, restores in-flight checkpoint-aware
scenarios from their last mid-scenario checkpoint, and produces the
same result digest as an uninterrupted run.  ``soak`` proves that: it
SIGKILLs a run ``--kills`` times, resumes it, and compares its digest
with a one-worker reference run (see :mod:`repro.campaign.soak`).

Exit codes: 0 clean; 1 scenario failures, replay mismatch, a soak
digest mismatch, or regressions against the baseline; 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign.checkers import CHECKERS, GENERATORS
from repro.campaign.diff import diff_manifests
from repro.campaign.journal import RunJournal, journal_header
from repro.campaign.presets import BUILTIN_CAMPAIGNS, builtin_campaign
from repro.campaign.runner import CampaignRunner, replay_scenario
from repro.campaign.soak import KILL_TRIGGER, soak
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import load_manifest, results_digest, write_run
from repro.errors import ReproError
from repro.obs import Observability, write_chrome_trace


def _load_spec(args: argparse.Namespace) -> CampaignSpec:
    if args.spec:
        return CampaignSpec.from_json(Path(args.spec).read_text())
    return builtin_campaign(args.builtin)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    observing = args.metrics or args.trace_out
    obs = Observability(label=f"campaign:{spec.name}",
                        enabled=bool(observing))
    journal = None
    checkpoint_dir = None
    blackbox_dir = None
    if args.out:
        # A run with an output directory is crash-consistent: the
        # journal header lands before the first scenario runs, and
        # every record is fsync'd as it arrives — `resume` picks up
        # from wherever a killed run stopped.
        journal = RunJournal.create(args.out, journal_header(
            spec.to_dict(), spec.spec_hash(), args.seed_root,
            args.workers, args.timeout, args.retries))
        checkpoint_dir = str(Path(args.out) / "checkpoints")
        blackbox_dir = str(Path(args.out) / "blackbox")
    runner = CampaignRunner(
        spec, seed_root=args.seed_root, workers=args.workers,
        task_timeout=args.timeout, retries=args.retries,
        backoff=args.backoff, obs=obs, journal=journal,
        checkpoint_dir=checkpoint_dir, blackbox_dir=blackbox_dir,
        profile=bool(args.profile_out))
    try:
        run = runner.run()
    finally:
        if journal is not None:
            journal.close()
    print(run.render_summary())
    print(f"result digest: {results_digest(run.results)}")
    if args.out:
        results_path, manifest_path = write_run(args.out, run)
        print(f"wrote {results_path} and {manifest_path}")
    if args.profile_out:
        out = Path(args.profile_out)
        out.mkdir(parents=True, exist_ok=True)
        for scenario_id, profile in sorted(run.profiles.items()):
            target = out / (scenario_id.replace("/", "__")
                            + ".profile.json")
            target.write_text(json.dumps(profile, sort_keys=True,
                                         separators=(",", ":")) + "\n")
        print(f"wrote {len(run.profiles)} profile(s) under {out}")
    if args.metrics:
        print()
        print(obs.summary())
    if args.trace_out:
        write_chrome_trace(args.trace_out, obs)
        print(f"wrote {args.trace_out} (merged across "
              f"{run.workers} worker(s))")
    status = 1 if run.failures else 0
    if args.baseline:
        diff = diff_manifests(load_manifest(args.baseline),
                              run.manifest(),
                              cycle_drift_pct=args.cycle_drift)
        print()
        print(diff.render())
        if diff.has_regressions:
            status = 1
    return status


def _cmd_resume(args: argparse.Namespace) -> int:
    """Finish a killed run: skip journaled scenarios, run the rest."""
    directory = Path(args.run_dir)
    header, completed = RunJournal.load(directory)
    spec = CampaignSpec.from_dict(header["spec"])
    if header.get("spec_hash") != spec.spec_hash():
        print("error: journal spec_hash does not match its spec",
              file=sys.stderr)
        return 2
    workers = args.workers if args.workers else int(header["workers"])
    journal = RunJournal.append_to(directory)
    runner = CampaignRunner(
        spec, seed_root=header["seed_root"], workers=workers,
        task_timeout=header.get("task_timeout"),
        retries=int(header.get("retries", 1)), journal=journal,
        checkpoint_dir=str(directory / "checkpoints"),
        blackbox_dir=str(directory / "blackbox"))
    try:
        run = runner.run(completed=completed)
    finally:
        journal.close()
    print(f"resumed {spec.name!r}: {len(completed)} scenario(s) "
          f"journaled complete, {len(run.results) - len(completed)} "
          "re-run")
    print(run.render_summary())
    print(f"result digest: {results_digest(run.results)}")
    results_path, manifest_path = write_run(directory, run)
    print(f"wrote {results_path} and {manifest_path}")
    return 1 if run.failures else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """Kill and resume a run; gate on its digest matching a clean one."""
    if args.workers < 1 or args.kills < 0:
        print("error: --workers must be >= 1 and --kills >= 0",
              file=sys.stderr)
        return 2
    campaign = (["--spec", args.spec] if args.spec
                else ["--builtin", args.builtin])
    report = soak(campaign, args.out, seed_root=args.seed_root,
                  workers=args.workers, kills=args.kills)
    for number, records in enumerate(report.kills, start=1):
        print(f"kill #{number} landed with {records} result(s) journaled")
    if len(report.kills) < args.kills:
        print(f"kill #{len(report.kills) + 1} missed: the run finished "
              f"within {KILL_TRIGGER} result(s)")
    print(f"clean   digest {report.clean_digest}")
    print(f"resumed digest {report.crashed_digest}")
    if not report.ok:
        print("DIGEST MISMATCH: the killed-and-resumed run is not "
              "equivalent to the clean run", file=sys.stderr)
        return 1
    print("kill-and-resume determinism holds")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    result = replay_scenario(manifest, args.scenario_id)
    recorded = manifest["scenarios"].get(args.scenario_id)
    print(f"replayed {args.scenario_id} (seed {result.seed}): "
          f"{result.verdict}"
          + (f" — {result.detail}" if result.detail else ""))
    if recorded is None:
        print("scenario has no recorded verdict in the manifest")
        return 1
    print(f"recorded: {recorded['verdict']} "
          f"(steps={recorded['steps']}, cycles={recorded['cycles']:g})")
    if recorded["verdict"] in ("crash", "timeout"):
        # Infrastructure verdicts carry no steps/cycles to compare; a
        # replay that reproduces the underlying behaviour will crash or
        # hang this very process, so reaching this line means the
        # scenario completed under replay conditions.
        print("note: recorded verdict was infrastructural "
              "(crash/timeout); replay ran to completion")
        return 0
    matches = (result.verdict == recorded["verdict"]
               and result.steps == recorded["steps"]
               and result.cycles == recorded["cycles"])
    print("replay matches the recorded outcome" if matches
          else "REPLAY MISMATCH — the scenario is not deterministic")
    return 0 if matches else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_manifests(load_manifest(args.baseline),
                          load_manifest(args.candidate),
                          cycle_drift_pct=args.cycle_drift)
    print(diff.render())
    return 1 if diff.has_regressions else 0


def _cmd_trend(args: argparse.Namespace) -> int:
    """Append the BENCH_* family to the history and gate on trends."""
    from repro.obs.trend import (
        append_history,
        check_trends,
        collect_bench_entries,
        load_history,
    )
    history_path = Path(args.history)
    entries = {}
    if not args.check_only:
        entries = collect_bench_entries(args.bench_dir)
        if not entries:
            print(f"no BENCH_*.json records under {args.bench_dir}",
                  file=sys.stderr)
            return 2
        append_history(history_path, entries, run_id=args.run_id)
    history = load_history(history_path)
    if not history:
        print(f"no history at {history_path}", file=sys.stderr)
        return 2
    if not args.check_only:
        print(f"appended {len(entries)} metric(s) to {history_path} "
              f"({len(history)} run(s) on record)")
    report = check_trends(history, window=args.window,
                          tolerance=args.tolerance)
    print(report.render())
    return 1 if report.has_regressions else 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("built-in campaigns:")
    for name in sorted(BUILTIN_CAMPAIGNS):
        spec = builtin_campaign(name)
        print(f"  {name:<10s} {spec.count()} scenario(s), "
              f"{len(spec.scenarios)} spec(s)")
    print("generators:")
    for name in sorted(GENERATORS):
        print(f"  {name}")
    print("checkers:")
    for name in sorted(CHECKERS):
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Sharded scenario campaigns with deterministic "
                    "replay and regression gating.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a campaign")
    run_parser.add_argument("--spec", metavar="FILE",
                            help="campaign spec JSON (default: a "
                                 "built-in campaign)")
    run_parser.add_argument("--builtin", default="smoke",
                            choices=sorted(BUILTIN_CAMPAIGNS),
                            help="built-in campaign when --spec is not "
                                 "given (default: smoke)")
    run_parser.add_argument("--seed-root", default="0",
                            help="root of the per-scenario seed "
                                 "derivation (default: 0)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (default: 1)")
    run_parser.add_argument("--timeout", type=float, default=None,
                            help="per-scenario timeout in seconds")
    run_parser.add_argument("--retries", type=int, default=1,
                            help="re-runs for crashed scenarios "
                                 "(default: 1)")
    run_parser.add_argument("--backoff", type=float, default=0.05,
                            help="base retry backoff seconds "
                                 "(default: 0.05)")
    run_parser.add_argument("--out", metavar="DIR",
                            help="write results.jsonl + manifest.json "
                                 "into DIR")
    run_parser.add_argument("--baseline", metavar="MANIFEST",
                            help="diff against this manifest and gate "
                                 "on regressions")
    run_parser.add_argument("--cycle-drift", type=float, default=10.0,
                            help="cycle drift band in %% for the "
                                 "baseline gate (default: 10)")
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the campaign metric summary")
    run_parser.add_argument("--trace-out", metavar="FILE",
                            help="write a merged Perfetto trace of all "
                                 "workers")
    run_parser.add_argument("--profile-out", metavar="DIR",
                            help="instrument every scenario and write "
                                 "one cycle profile per scenario into "
                                 "DIR (with --out they are also kept "
                                 "under <out>/profiles, referenced "
                                 "from the manifest)")
    run_parser.set_defaults(fn=_cmd_run)

    resume_parser = sub.add_parser(
        "resume", help="finish a killed run from its journal")
    resume_parser.add_argument("run_dir",
                               help="run directory with journal.jsonl")
    resume_parser.add_argument("--workers", type=int, default=0,
                               help="override the journaled worker "
                                    "count (default: as journaled)")
    resume_parser.set_defaults(fn=_cmd_resume)

    soak_parser = sub.add_parser(
        "soak", help="SIGKILL a run, resume it, and require the digest "
                     "of a clean one-worker run")
    which = soak_parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--builtin", choices=sorted(BUILTIN_CAMPAIGNS))
    which.add_argument("--spec", metavar="FILE",
                       help="campaign spec JSON")
    soak_parser.add_argument("--seed-root", default="0",
                             help="seed root of both runs (default: 0)")
    soak_parser.add_argument("--workers", type=int, default=4,
                             help="workers of the killed run "
                                  "(default: 4)")
    soak_parser.add_argument("--kills", type=int, default=2,
                             help="SIGKILLs before the final resume; 0 "
                                  "only compares worker counts "
                                  "(default: 2)")
    soak_parser.add_argument("--out", metavar="DIR", required=True,
                             help="writes DIR/clean and DIR/crashed")
    soak_parser.set_defaults(fn=_cmd_soak)

    replay_parser = sub.add_parser(
        "replay", help="re-execute one scenario from a manifest")
    replay_parser.add_argument("manifest",
                               help="manifest.json or its run directory")
    replay_parser.add_argument("scenario_id")
    replay_parser.set_defaults(fn=_cmd_replay)

    diff_parser = sub.add_parser(
        "diff", help="compare two run manifests")
    diff_parser.add_argument("baseline")
    diff_parser.add_argument("candidate")
    diff_parser.add_argument("--cycle-drift", type=float, default=10.0,
                             help="cycle drift band in %% (default: 10)")
    diff_parser.set_defaults(fn=_cmd_diff)

    trend_parser = sub.add_parser(
        "trend", help="append BENCH_*.json to the perf history and "
                      "gate on regressions against a rolling baseline")
    trend_parser.add_argument("--bench-dir", default=".",
                              help="directory holding BENCH_*.json "
                                   "(default: .)")
    trend_parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                              help="append-only history file (default: "
                                   "BENCH_HISTORY.jsonl)")
    trend_parser.add_argument("--run-id", default="local",
                              help="identifier recorded with this run "
                                   "(e.g. a commit sha)")
    trend_parser.add_argument("--window", type=int, default=5,
                              help="baseline window in runs "
                                   "(default: 5)")
    trend_parser.add_argument("--tolerance", type=float, default=0.75,
                              help="allowed fractional slip from the "
                                   "baseline median (default: 0.75)")
    trend_parser.add_argument("--check-only", action="store_true",
                              help="gate the existing history without "
                                   "appending a new run")
    trend_parser.set_defaults(fn=_cmd_trend)

    list_parser = sub.add_parser(
        "list", help="list built-in campaigns, generators, checkers")
    list_parser.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

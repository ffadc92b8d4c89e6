"""repro.campaign — sharded scenario campaigns with deterministic replay.

The paper's claims are validated in the test suite on small exhaustive
sweeps; this package is the scale substrate the ROADMAP asks for: grind
*millions* of randomized scenarios against the oracle checkers at full
machine speed, store every verdict, replay any failure from its
manifest, and gate changes by diffing two runs.

The pieces:

* :mod:`repro.campaign.spec` — declarative :class:`ScenarioSpec` /
  :class:`CampaignSpec` (JSON round-trip) and the hash-derived
  per-scenario seeding rule;
* :mod:`repro.campaign.checkers` — generator and checker registries
  (PDDA-vs-oracle, DDU-vs-structural, DAU invariants, multi-unit
  projection, recovery convergence, full-system sim runs, chaos fault
  injectors);
* :mod:`repro.campaign.runner` — the sharded ``multiprocessing`` pool
  with per-task timeouts, worker-crash isolation and bounded retry;
* :mod:`repro.campaign.store` — JSONL results + the run manifest;
* :mod:`repro.campaign.diff` — regression gating between two manifests;
* :mod:`repro.campaign.soak` — SIGKILL a run, resume it, and compare
  its digest with a clean run's;
* ``python -m repro.campaign`` — the ``run`` / ``resume`` / ``soak`` /
  ``replay`` / ``diff`` CLI.

Quick start::

    from repro.campaign import CampaignRunner, builtin_campaign
    run = CampaignRunner(builtin_campaign("smoke"), seed_root=42,
                         workers=4, task_timeout=30.0).run()
    print(run.render_summary())
"""

from repro.campaign.spec import (
    CampaignSpec,
    Scenario,
    ScenarioSpec,
    derive_seed,
)
from repro.campaign.checkers import (
    CHECKERS,
    CheckOutcome,
    GENERATORS,
)
from repro.campaign.runner import (
    FAILURE_VERDICTS,
    TIMING_FIELDS,
    CampaignRun,
    CampaignRunner,
    ScenarioResult,
    execute_scenario,
    replay_scenario,
    strip_timing,
)
from repro.campaign.store import (
    load_manifest,
    load_results,
    results_digest,
    write_run,
)
from repro.campaign.diff import ManifestDiff, diff_manifests
from repro.campaign.presets import BUILTIN_CAMPAIGNS, builtin_campaign

__all__ = [
    "CampaignSpec",
    "ScenarioSpec",
    "Scenario",
    "derive_seed",
    "GENERATORS",
    "CHECKERS",
    "CheckOutcome",
    "CampaignRunner",
    "CampaignRun",
    "ScenarioResult",
    "execute_scenario",
    "replay_scenario",
    "strip_timing",
    "TIMING_FIELDS",
    "FAILURE_VERDICTS",
    "write_run",
    "load_manifest",
    "load_results",
    "results_digest",
    "diff_manifests",
    "ManifestDiff",
    "BUILTIN_CAMPAIGNS",
    "builtin_campaign",
]

"""Kill-and-resume soak: SIGKILL a campaign mid-run, resume, compare.

Crash consistency, end to end.  A reference run at one worker writes
``<out>/clean``.  The same campaign then runs at ``workers`` workers
into ``<out>/crashed``; each time its write-ahead journal holds
:data:`KILL_TRIGGER` more results than at the previous kill, the whole
runner process group (runner *and* shard workers) is SIGKILLed — no
unwinding — and the run is continued with ``campaign resume``, so each
later kill interrupts a resume.  After ``kills`` kills a final resume
finishes the run, and its result digest must equal the reference's.

With ``kills=0`` this is the plain placement check: ``workers``
workers against one, no kill.

CLI::

    python -m repro.campaign soak --builtin faults --seed-root 42 \\
        --workers 4 --kills 2 --out runs/faults-soak
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.campaign.journal import RunJournal
from repro.campaign.store import load_results, results_digest
from repro.errors import ConfigurationError, ReproError

#: Newly journaled results that arm the next kill.
KILL_TRIGGER = 3
#: Wall-clock limit for any one runner process (run or resume).
TIMEOUT_S = 900.0

_SRC = str(Path(__file__).resolve().parents[2])


@dataclass
class SoakReport:
    """What one soak saw: both digests and the kills that landed."""

    clean_digest: str
    crashed_digest: str
    #: Results journaled when each kill landed, in kill order.
    kills: list

    @property
    def ok(self) -> bool:
        return self.clean_digest == self.crashed_digest


def journal_records(run_dir: Union[str, Path]) -> int:
    """Distinct results in a run's journal; 0 before it is readable."""
    try:
        return len(RunJournal.load(run_dir)[1])
    except ConfigurationError:
        return 0          # not created yet, or its header not yet durable


def _run(argv: list, run_dir: Path,
         trigger: Optional[int] = None) -> Optional[int]:
    """Run ``python -m repro.campaign *argv`` in its own process group.

    Returns its exit status; with a ``trigger``, SIGKILLs the group once
    the journal holds that many results and returns ``None`` instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    quiet = subprocess.DEVNULL if trigger is not None else None
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", *argv], env=env,
        start_new_session=True, stdout=quiet, stderr=quiet)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while process.poll() is None:
            if time.monotonic() > deadline:
                raise ReproError(f"campaign {argv[0]} in {run_dir} did "
                                 f"not finish within {TIMEOUT_S:g} s")
            if trigger is not None and journal_records(run_dir) >= trigger:
                return None
            time.sleep(0.005)
        return process.returncode
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)


def soak(campaign: list, out: Union[str, Path], *, seed_root: str,
         workers: int, kills: int) -> SoakReport:
    """Reference run, crashed-and-resumed run, both digests.

    ``campaign`` names the campaign as ``run`` takes it:
    ``["--builtin", NAME]`` or ``["--spec", FILE]``.  Raises
    :class:`ReproError` when a run that should finish exits non-zero.
    """
    out = Path(out)
    clean, crashed = out / "clean", out / "crashed"
    common = [*campaign, "--seed-root", str(seed_root)]
    status = _run(["run", *common, "--workers", "1", "--out", str(clean)],
                  clean)
    if status != 0:
        raise ReproError(f"reference run exited {status}")
    argv = ["run", *common, "--workers", str(workers), "--out",
            str(crashed)]
    landed: list = []
    base = 0                  # `run` truncates any older journal
    for _ in range(kills):
        status = _run(argv, crashed, trigger=base + KILL_TRIGGER)
        if status is not None:
            break                               # finished before the kill
        base = journal_records(crashed)
        landed.append(base)
        argv = ["resume", str(crashed)]
    else:
        status = _run(argv, crashed)
    if status != 0:
        raise ReproError(f"crashed run's final {argv[0]} exited {status}")
    return SoakReport(clean_digest=results_digest(load_results(clean)),
                      crashed_digest=results_digest(load_results(crashed)),
                      kills=landed)

"""Every builtin campaign's result digest, pinned at seed root 42.

The checkers in :mod:`repro.campaign.checkers` are the repo's proof of
the paper's claims; a refactor of them must not move a single verdict,
step or cycle count.  Each case below runs a builtin (or a slice of
one, where the whole builtin is too slow for tier-1) on one worker and
compares the digest prefix with the one recorded before the refactor.
Together with ``tests/test_campaign_service.py`` (the whole ``service``
builtin and ``service.shard-kill``), the cases reach every registered
checker except the runner-only chaos injectors, which
``tests/test_campaign_runner.py`` covers.

Not covered here, so checked by hand through the CLI: the whole
``service-chaos`` builtin, ``chaos`` with its 30 s hang, and the
``service-shard-kill`` soak.
"""

import pytest

from repro.campaign import (
    CHECKERS,
    CampaignRunner,
    CampaignSpec,
    builtin_campaign,
    results_digest,
)


def _slice(name: str, keep) -> CampaignSpec:
    """The builtin ``name`` cut to the scenarios ``keep`` accepts."""
    return CampaignSpec(name=name, scenarios=tuple(
        scenario for scenario in builtin_campaign(name).scenarios
        if keep(scenario.name)))


#: name -> (spec factory, digest prefix, expected verdict counts)
PINNED = {
    "claims": (lambda: builtin_campaign("claims"), "7e7b27e86b68", None),
    "faults": (lambda: builtin_campaign("faults"), "dd32ab00328e", None),
    "kernels-large": (lambda: builtin_campaign("kernels-large"),
                      "4593e482c279", None),
    "memory-pressure": (lambda: builtin_campaign("memory-pressure"),
                        "ea88002dc9f8", None),
    "smoke": (lambda: builtin_campaign("smoke"), "91b08dad5ef1", None),
    # Without the 30 s ``hang`` scenario.
    "chaos/no-hang": (lambda: _slice("chaos", lambda name: name != "hang"),
                      "bd4b0e8ae465", {"pass": 6, "crash": 1}),
    "service-chaos/mixed-disconnect": (
        lambda: _slice("service-chaos",
                       lambda name: name == "mixed-disconnect"),
        "8c61df9a3ff1", {"pass": 2}),
}

#: Checkers the cases above do not reach: the service ones run in
#: test_campaign_service.py, the chaos ones in test_campaign_runner.py.
ELSEWHERE = {"service.vs-local", "service.shard-kill", "chaos.hang",
             "chaos.crash_once", "chaos.interrupt", "chaos.interrupt_once"}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_builtin_digest_is_pinned(case):
    make, digest, counts = PINNED[case]
    run = CampaignRunner(make(), seed_root=42, workers=1).run()
    verdicts: dict = {}
    for result in run.results:
        verdicts[result.verdict] = verdicts.get(result.verdict, 0) + 1
    assert verdicts == (counts or {"pass": len(run.results)})
    assert results_digest(run.results).startswith(digest)


def test_pinned_cases_reach_every_checker():
    reached = {scenario.checker for make, _digest, _counts in PINNED.values()
               for scenario in make().scenarios}
    assert reached.isdisjoint(ELSEWHERE)
    assert reached | set(ELSEWHERE) == set(CHECKERS)

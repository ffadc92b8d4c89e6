#!/usr/bin/env python
"""Service soak: 1k tenants, a SIGKILLed shard, zero wrong verdicts.

Starts a real server subprocess (``python -m repro.service`` with
process-backed shards), attaches ``--tenants`` seeded tenants, and
drives each through a seeded claim/release/detect stream while a local
:class:`~repro.service.tenant.Tenant` oracle replays every *acked*
mutation.  Midway, one worker shard is SIGKILLed by pid (taken from the
``shards`` admin op).  The soak fails — exit 1 — if:

* any detect verdict, iteration count, pass count or ``op_seq``
  disagrees with the oracle's replay of the acked prefix;
* any grant/blocked bit or promotion disagrees;
* the rebalance is not clean: the stats must show exactly one shard
  crash, every tenant of the dead shard rehomed to a live shard, and
  the post-kill stream finishing without a single ``shard-lost`` error.

With ``--chaos KIND[,KIND...]`` every client connection runs through a
:class:`~repro.service.chaos.ChaosTransport` injecting the named wire
faults (see :data:`~repro.service.chaos.NET_FAULT_KINDS`), and the
drivers switch to the retrying
:class:`~repro.service.client.ResilientServiceClient` — the oracle
checks are unchanged, so the soak doubles as an exactly-once proof
under packet loss, duplication and resets.

Usage::

    python scripts/service_soak.py [--tenants 1000] [--ops 10]
                                   [--shards 4] [--seed 42] [--quick]
                                   [--chaos drop,duplicate,reset]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaign.checkers import replay_op             # noqa: E402
from repro.rag.generate import resolve_rng                 # noqa: E402
from repro.service import (                                # noqa: E402
    NET_FAULT_KINDS,
    ChaosTransport,
    NetFaultPlan,
    NetFaultSpec,
    ResilientServiceClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.tenant import Tenant                    # noqa: E402

#: Soak-grade chaos table: rarer than the campaign checker's (the soak
#: pushes thousands of lines per connection), but every kind still
#: fires many times over a 100-tenant run.
_CHAOS_TABLE = {
    "delay": NetFaultSpec("delay", direction="both", at=5, every=17,
                          params={"delay_s": 0.002}),
    "drop": NetFaultSpec("drop", direction="s2c", at=7, every=41),
    "duplicate": NetFaultSpec("duplicate", direction="c2s", at=3,
                              every=23),
    "reorder": NetFaultSpec("reorder", direction="s2c", at=11,
                            every=53),
    "truncate": NetFaultSpec("truncate", direction="s2c", at=9,
                             every=61),
    "corrupt": NetFaultSpec("corrupt", direction="s2c", at=13,
                            every=67, params={"span": 6}),
    "reset": NetFaultSpec("reset", direction="c2s", at=43, every=131),
    "slow_loris": NetFaultSpec("slow_loris", direction="s2c", at=19,
                               every=97, params={"pause_s": 0.01}),
}

_CHAOS_POLICY = RetryPolicy(
    deadline_ms=8000.0, request_timeout_s=0.5, max_attempts=12,
    backoff_base_s=0.005, backoff_cap_s=0.05, fail_threshold=8,
    recover_after=1, cooldown_s=0.02)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=1000)
    parser.add_argument("--ops", type=int, default=10,
                        help="operations per tenant (default 10)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--clients", type=int, default=8,
                        help="parallel client connections (default 8)")
    parser.add_argument("--quick", action="store_true",
                        help="100 tenants x 8 ops (smoke mode)")
    parser.add_argument("--chaos", default=None, metavar="KINDS",
                        help="comma-separated wire fault kinds to "
                             "inject between clients and server "
                             f"(any of: {', '.join(NET_FAULT_KINDS)})")
    args = parser.parse_args()
    if args.chaos:
        args.chaos = [kind.strip() for kind in args.chaos.split(",")
                      if kind.strip()]
        unknown = [kind for kind in args.chaos
                   if kind not in _CHAOS_TABLE]
        if unknown:
            parser.error(f"unknown chaos kind(s): {', '.join(unknown)}")
    if args.quick:
        args.tenants = min(args.tenants, 100)
        args.ops = min(args.ops, 8)
    return args


def start_server(shards: int) -> tuple:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--shards", str(shards),
         "--port", "0"],
        cwd=str(REPO), stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    line = process.stdout.readline()
    ready = json.loads(line)
    assert ready.get("ready"), f"server not ready: {ready}"
    return process, ready


async def drive_tenant(client: ServiceClient, tenant_id: str,
                       seed: int, ops: int, errors: list) -> None:
    """One tenant's stream, oracle-checked response by response."""
    spec = {"seed": seed, "m": 12, "n": 12}
    await client.attach(tenant_id, **spec)
    oracle = Tenant.from_attach(tenant_id, spec)
    rng = resolve_rng(seed=seed ^ 0x5EED)
    for step in range(ops):
        kind, process, resource = "detect", None, None
        if step % 4 != 3:
            process = f"p{rng.randrange(1, 13)}"
            resource = f"q{rng.randrange(1, 13)}"
            kind = "release" if rng.random() < 0.4 else "claim"
        mismatch = await replay_op(client, oracle, tenant_id, kind,
                                   process, resource)
        if mismatch:
            errors.append(f"step {step}: {mismatch}")


async def soak(args: argparse.Namespace, port: int,
               shard_pids: dict) -> dict:
    proxy = None
    # The admin connection always talks straight to the server: stats
    # and the shard-pid lookup must not be lost to injected faults.
    admin = await ServiceClient.connect_tcp("127.0.0.1", port)
    if args.chaos:
        plan = NetFaultPlan(
            name="soak-chaos", seed=args.seed,
            specs=[_CHAOS_TABLE[kind] for kind in args.chaos])
        proxy = ChaosTransport(plan, target_host="127.0.0.1",
                               target_port=port)
        await proxy.start()
        clients = [
            ResilientServiceClient.tcp(
                "127.0.0.1", proxy.listen_port, policy=_CHAOS_POLICY,
                seed=args.seed + index, tag=f"soak{index}")
            for index in range(args.clients)]
    else:
        clients = [await ServiceClient.connect_tcp("127.0.0.1", port)
                   for _ in range(args.clients)]
    errors: list = []
    try:
        # Phase 1: first half of the population, full streams.
        half = args.tenants // 2
        await asyncio.gather(*(
            drive_tenant(clients[index % len(clients)], f"t{index}",
                         args.seed * 1_000 + index, args.ops, errors)
            for index in range(half)))

        # SIGKILL the busiest shard mid-run.
        shards = (await admin.shards())["shards"]
        victim = max((shard for shard in shards if shard["alive"]),
                     key=lambda shard: shard["tenants"])
        victim_tenants = victim["tenants"]
        os.kill(victim["pid"], signal.SIGKILL)
        killed_at = time.perf_counter()

        # Phase 2: the second half attaches and runs *through* the
        # recovery; phase-1 tenants keep detecting.
        await asyncio.gather(*(
            drive_tenant(clients[index % len(clients)], f"t{index}",
                         args.seed * 1_000 + index, args.ops, errors)
            for index in range(half, args.tenants)))
        recheck = [asyncio.ensure_future(
            clients[index % len(clients)].detect(f"t{index}"))
            for index in range(0, half, max(1, half // 50))]
        for reply in await asyncio.gather(*recheck,
                                          return_exceptions=True):
            if isinstance(reply, Exception):
                errors.append(f"post-kill detect failed: {reply}")

        stats = await admin.stats()
        shards_after = (await admin.shards())["shards"]
        alive = [shard for shard in shards_after if shard["alive"]]
        if stats["shard_crashes"] != 1:
            errors.append(f"expected exactly 1 shard crash, stats say "
                          f"{stats['shard_crashes']}")
        if stats["rebalanced_tenants"] != victim_tenants:
            errors.append(
                f"rebalance not clean: {victim_tenants} tenants lived "
                f"on the dead shard, {stats['rebalanced_tenants']} "
                "were rehomed")
        if len(alive) != args.shards - 1:
            errors.append(f"expected {args.shards - 1} live shards, "
                          f"found {len(alive)}")
        homed = sum(shard["tenants"] for shard in alive)
        if homed != stats["tenants"]:
            errors.append(f"{stats['tenants']} tenants but only "
                          f"{homed} homed on live shards")
        # Incremental-reduction health: how much per-tick work the
        # dirty-tenant tracking actually saved on the live shards.
        def tally(key):
            return sum(shard.get(key, 0) for shard in alive)

        dirty = tally("dirty_tenants")
        skipped = tally("skipped_detects")
        considered = dirty + skipped
        chaos_report = {}
        if proxy is not None:
            chaos_report = {
                "chaos_kinds": list(args.chaos),
                "chaos_plan_hash": plan.plan_hash()[:12],
                "net_faults_fired": {
                    kind: count
                    for kind, count in sorted(proxy.fired.items())
                    if count},
                "client_reconnects": sum(
                    max(0, client.connects - 1) for client in clients),
                "server_deduped": stats.get("deduped"),
                "deadline_exceeded": stats.get("deadline_exceeded"),
            }
            if not chaos_report["net_faults_fired"]:
                errors.append("chaos proxy injected no faults at all")
        return {
            **chaos_report,
            "tenants": args.tenants,
            "ops_per_tenant": args.ops,
            "requests": stats["requests"],
            "detects": stats["detects"],
            "batches": stats["batches"],
            "shard_killed": victim["shard"],
            "kill_to_done_s": time.perf_counter() - killed_at,
            "rebalanced_tenants": stats["rebalanced_tenants"],
            "journal_replayed": stats["journal_replayed"],
            "detect_batches": tally("detect_batches"),
            "dirty_tenants_reduced": dirty,
            "clean_detects_skipped": skipped,
            "dirty_fraction": (dirty / considered) if considered else None,
            "p99_grant_us": stats["grant_latency"].get("p99_us"),
            "p99_verdict_us": stats["verdict_latency"].get("p99_us"),
            "errors": errors,
        }
    finally:
        try:
            await admin.shutdown()
        except Exception:
            pass
        for client in clients:
            await client.close()
        await admin.close()
        if proxy is not None:
            await proxy.stop()


def main() -> int:
    args = parse_args()
    server, ready = start_server(args.shards)
    try:
        report = asyncio.run(soak(
            args, ready["port"],
            {shard["shard"]: shard["pid"]
             for shard in ready["shards"]}))
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
    errors = report.pop("errors")
    print(json.dumps(report, indent=2))
    if errors:
        print(f"SOAK FAILED: {len(errors)} mismatch(es)",
              file=sys.stderr)
        for error in errors[:20]:
            print(f"  {error}", file=sys.stderr)
        return 1
    fraction = report["dirty_fraction"]
    dirtiness = (f"{fraction:.1%} of considered tenants dirty"
                 if fraction is not None else "no detects observed")
    chaos_note = ""
    if report.get("chaos_kinds"):
        fired = sum(report["net_faults_fired"].values())
        chaos_note = (f"; {fired} wire fault(s) "
                      f"({'+'.join(report['chaos_kinds'])}) absorbed "
                      f"by {report['client_reconnects']} reconnect(s) "
                      f"and {report['server_deduped']:g} server "
                      "dedup(s)")
    print(f"soak OK: {report['tenants']} tenants, "
          f"{report['requests']:g} requests, shard "
          f"{report['shard_killed']} SIGKILLed and absorbed; "
          f"{dirtiness} across {report['detect_batches']:g} "
          f"reduction tick(s){chaos_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

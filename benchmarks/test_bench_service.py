"""Benchmark guard: the service end to end, resilient and under chaos.

Three claims, all recorded to ``BENCH_service.json`` at the repo root
for the trend gate (``python -m repro.campaign trend``):

* **end to end**: a real :class:`DetectionService` on TCP, 64 tenants
  driven by pipelined clients, reporting requests/sec and p99
  grant/verdict latency (no floor — latency depends on the tick — but
  throughput must clear a coarse sanity bar so a pathological
  regression fails loudly);
* **resilience tax**: the retrying
  :class:`~repro.service.client.ResilientServiceClient` on a
  fault-free wire must cost < ``MAX_RESILIENT_OVERHEAD`` over the
  plain pipelined client — deadlines, idempotency keys and the
  circuit-breaker bookkeeping are per-request dict work, dwarfed by
  the tick round-trip;
* **chaos profile**: the same client driven through a fixed
  drop+duplicate :class:`~repro.service.chaos.ChaosTransport` plan,
  recording wall time and retry rate (``chaos_``/``retry`` trend
  fragments) so a regression in the retry loop shows up as a trend
  cliff, not a user-visible outage.
"""

import asyncio
import json
import time
from pathlib import Path

from benchmarks.conftest import backend_stamp, bench_once
from repro.obs import Observability
from repro.rag.generate import resolve_rng
from repro.service import (
    ChaosTransport,
    DetectionService,
    NetFaultPlan,
    NetFaultSpec,
    ResilientServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
)

TENANTS = 64
MIN_REQUESTS_PER_SECOND = 5_000.0
MAX_RESILIENT_OVERHEAD = 0.05
#: Timed plain/resilient pairs in the resilience-tax guard; the best
#: time per side over this many pairs is compared.
PAIRED_ROUNDS = 8
RECORD_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_service.json"


def _write_record(update: dict) -> None:
    """Merge into BENCH_service.json so every test contributes."""
    record = {"benchmark": "service"}
    if RECORD_PATH.exists():
        try:
            previous = json.loads(RECORD_PATH.read_text())
            if previous.get("benchmark") == "service":
                record = previous
        except (ValueError, OSError):
            pass
    record.update(update)
    RECORD_PATH.write_text(json.dumps(record, indent=2,
                                      sort_keys=True) + "\n")


def test_bench_service_end_to_end(benchmark):
    """64 tenants through a real server: requests/sec + p99 latency."""
    ops_per_tenant = 30

    async def drive() -> dict:
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_pending=100_000, max_pending_per_tenant=1_000))
        await service.start(host="127.0.0.1", port=0)
        client = await ServiceClient.connect_tcp("127.0.0.1",
                                                 service.tcp_port)
        try:
            for index in range(TENANTS):
                await client.attach(f"t{index}", seed=index,
                                    m=16, n=16)

            async def tenant_stream(index: int):
                tenant = f"t{index}"
                rng = resolve_rng(seed=5_000 + index)
                held = set()
                for step in range(ops_per_tenant):
                    if step % 5 == 4:
                        await client.detect(tenant)
                        continue
                    pair = (rng.randrange(1, 17), rng.randrange(1, 17))
                    try:
                        if pair in held:
                            held.discard(pair)
                            await client.release(
                                tenant, f"p{pair[0]}", f"q{pair[1]}")
                        else:
                            held.add(pair)
                            await client.claim(
                                tenant, f"p{pair[0]}", f"q{pair[1]}")
                    except Exception:
                        pass        # violations still count as traffic

            started = time.perf_counter()
            await asyncio.gather(*(tenant_stream(index)
                                   for index in range(TENANTS)))
            elapsed = time.perf_counter() - started
            stats = await client.stats()
            total_ops = TENANTS * ops_per_tenant
            return {
                "tenants": TENANTS,
                "ops": total_ops,
                "seconds": elapsed,
                "requests_per_second": total_ops / elapsed,
                "p99_grant_latency_us":
                    stats["grant_latency"].get("p99_us", 0.0),
                "p99_verdict_latency_us":
                    stats["verdict_latency"].get("p99_us", 0.0),
                "mean_batch_size":
                    (stats["requests"] / stats["batches"]
                     if stats["batches"] else 0.0),
            }
        finally:
            await client.close()
            await service.stop()

    result = bench_once(benchmark, lambda: asyncio.run(drive()))
    _write_record({"tenants": TENANTS, **backend_stamp(),
                   **{key: result[key] for key in (
                       "requests_per_second", "p99_grant_latency_us",
                       "p99_verdict_latency_us", "mean_batch_size")}})
    benchmark.extra_info["service_end_to_end"] = result

    assert result["requests_per_second"] >= MIN_REQUESTS_PER_SECOND, (
        f"service served only {result['requests_per_second']:.0f} "
        f"requests/sec end to end; the sanity floor is "
        f"{MIN_REQUESTS_PER_SECOND:.0f}")
    assert result["p99_grant_latency_us"] > 0
    assert result["p99_verdict_latency_us"] > 0


async def _drive_streams(client, tenants: int, ops_per_tenant: int,
                         seed_base: int) -> float:
    """The shared claim/release/detect workload; returns wall seconds."""
    for index in range(tenants):
        await client.attach(f"t{index}", seed=index, m=16, n=16)

    async def stream(index: int) -> None:
        tenant = f"t{index}"
        rng = resolve_rng(seed=seed_base + index)
        for step in range(ops_per_tenant):
            if step % 5 == 4:
                await client.detect(tenant)
                continue
            process = f"p{rng.randrange(1, 17)}"
            resource = f"q{rng.randrange(1, 17)}"
            try:
                if rng.random() < 0.4:
                    await client.release(tenant, process, resource)
                else:
                    await client.claim(tenant, process, resource)
            except Exception:
                pass            # violations still count as traffic

    started = time.perf_counter()
    await asyncio.gather(*(stream(index) for index in range(tenants)))
    return time.perf_counter() - started


def test_bench_resilient_client_overhead(benchmark):
    """Fault-free wire: the retry machinery must cost < 5%.

    One sequential stream: every request pays the wrapper's per-call
    work (deadline/idem stamping and breaker bookkeeping; the timeout
    is the connection's one deadline timer, not a per-request context)
    against a full round-trip through the server's 1 ms batching window
    (``tick_interval=0.001``, ~1.3 ms), which is the overhead a caller
    actually observes.  Concurrent streams
    would instead measure event-loop contention between client
    bookkeeping and the in-process server tick — real, but a property
    of co-locating server and clients on one loop, not of the client.
    """
    tenants = 1
    ops_per_tenant = 80

    async def run(resilient: bool) -> float:
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_pending=100_000, max_pending_per_tenant=1_000))
        await service.start(host="127.0.0.1", port=0)
        if resilient:
            client = ResilientServiceClient.tcp(
                "127.0.0.1", service.tcp_port, seed=7, tag="bench")
        else:
            client = await ServiceClient.connect_tcp(
                "127.0.0.1", service.tcp_port)
        try:
            return await _drive_streams(client, tenants,
                                        ops_per_tenant, 7_000)
        finally:
            await client.close()
            await service.stop()

    # Interleave the two variants, alternating which goes first each
    # round — back-to-back rounds of one variant (or a fixed order
    # within the pair) hand one side a warmed process and skew the
    # ratio by a few percent on a noisy machine.
    best = {True: float("inf"), False: float("inf")}
    order = [True, False]

    def paired_round() -> float:
        for resilient in order:
            best[resilient] = min(best[resilient],
                                  asyncio.run(run(resilient)))
        order.reverse()
        return best[True]

    paired_round()                  # warmup pair, discarded
    best[True] = best[False] = float("inf")
    benchmark.pedantic(paired_round, rounds=PAIRED_ROUNDS, iterations=1,
                       warmup_rounds=0)
    plain_s = best[False]
    resilient_s = best[True]
    overhead = resilient_s / plain_s - 1.0

    _write_record({
        "plain_wire_seconds": plain_s,
        "resilient_wire_seconds": resilient_s,
        "resilient_overhead_fraction": max(0.0, overhead),
        "resilient_overhead_bound": MAX_RESILIENT_OVERHEAD,
    })
    benchmark.extra_info["resilient_overhead"] = overhead

    assert overhead < MAX_RESILIENT_OVERHEAD, (
        f"resilient client costs {overhead * 100:.1f}% over the plain "
        f"client on a fault-free wire (plain {plain_s * 1e3:.1f}ms, "
        f"resilient {resilient_s * 1e3:.1f}ms); the bound is "
        f"{MAX_RESILIENT_OVERHEAD * 100:.0f}%")


def test_bench_chaos_retry_profile(benchmark):
    """A fixed drop+duplicate plan: wall time + retry rate trended."""
    tenants = 6
    ops_per_tenant = 30

    async def run() -> dict:
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_pending=100_000, max_pending_per_tenant=1_000))
        await service.start(host="127.0.0.1", port=0)
        plan = NetFaultPlan(
            name="bench-chaos", seed=99, specs=[
                NetFaultSpec("drop", direction="s2c", at=5, every=23),
                NetFaultSpec("duplicate", direction="c2s", at=3,
                             every=11),
            ])
        proxy = ChaosTransport(plan, target_host="127.0.0.1",
                               target_port=service.tcp_port)
        await proxy.start()
        obs = Observability(enabled=True)
        client = ResilientServiceClient.tcp(
            "127.0.0.1", proxy.listen_port, seed=99, tag="bench-chaos",
            obs=obs, policy=RetryPolicy(
                request_timeout_s=0.1, max_attempts=10,
                backoff_base_s=0.002, backoff_cap_s=0.02,
                fail_threshold=8, recover_after=1, cooldown_s=0.02))
        try:
            elapsed = await _drive_streams(client, tenants,
                                           ops_per_tenant, 9_000)
            requests = tenants * (1 + ops_per_tenant)
            retries = obs.metrics.get("service.client.retries").value
            return {
                "chaos_wall_seconds": elapsed,
                "chaos_retry_rate": retries / requests,
                "faults_fired": sum(proxy.fired.values()),
            }
        finally:
            await client.close()
            await proxy.stop()
            await service.stop()

    result = bench_once(benchmark, lambda: asyncio.run(run()))
    _write_record({
        "chaos_wall_seconds": result["chaos_wall_seconds"],
        "chaos_retry_rate": result["chaos_retry_rate"],
    })
    benchmark.extra_info["chaos_profile"] = result

    assert result["faults_fired"] > 0, \
        "the chaos plan injected nothing; the profile is meaningless"
    assert result["chaos_retry_rate"] > 0, \
        "no retries under drop faults; the retry loop never engaged"

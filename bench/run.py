"""Service benchmark: seeded tenant workloads against the real server.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--repeat N] [--smoke]

Starts ``python -m repro.service --no-processes --shards 2`` as its own
process and drives it from this single-threaded asyncio process over
two TCP connections, with tenants pinned to a connection.

``--trace 0`` (end to end): set-up is timed ``SETUP_REPEATS`` times,
then a warm-up, and ``ROUNDS`` rounds of one block each of the two
open-loop Poisson steps (nominal, peak) share ``--seconds``.  Latency
runs from each request's *due* time to its answer.

``--trace 1`` (per layer): an untraced nominal step for the baseline
p50, then the same step against ``bench/traced_server.py``, whose
outside-in wrappers split every request into nine stages that add up to
its latency (see ``bench/layers.py``).  Writes
``bench/out/<workload>.trace.json`` for Perfetto.

Every answer is checked against a local oracle; a wrong one prints the
request and exits 1.  Without ``--workload``/``--trace`` every workload
runs in both modes.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
if not (ROOT / "src" / "repro" / "service").is_dir():
    sys.exit(f"bench/run.py: no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (needs the path set above)
from load import WORKLOADS, Session, WrongAnswer  # noqa: E402

SETUP_REPEATS = 3
#: The end-to-end run measures in rounds, each one block of every step,
#: so that slow spells of the host and collector pauses spread over all
#: steps instead of landing on one.
ROUNDS = 8
STEP_NAMES = ("nominal", "peak")
#: In-flight requests per connection while the journals are staggered.
STAGGER_DEPTH = 256
#: Share of ``--seconds`` for the traced run's untraced baseline step;
#: the traced step gets the rest.
BASELINE_SHARE = 0.4
#: A step meets its workload's objective only if its p99 is within the
#: limit and this share of what was offered was answered by the step's
#: end plus the limit.
ACHIEVED_MIN = 0.98
#: A step whose generator ran later than this (p99) is marked invalid.
LATE_LIMIT_MS = 5.0

#: The gated end-to-end metrics.  Each step's p99 is printed and kept
#: in the results file but not gated: on detect-wide it is set by the
#: few snapshot stalls of the step and spreads 20-50% between runs.
END_TO_END_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "p90_ms": "ms", "p50_ms.peak": "ms",
    "cpu_us_per_op": "us", "rss_peak_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for stage in layers.STAGES:
        for stat in ("p50", "mean", "tail"):
            units[f"stage.{stage}_us.{stat}"] = "us"
    units.update({
        "service.protocol.decode_line.us": "us",
        "service.protocol.encode_message.us": "us",
        "service.protocol.bytes_per_response": "B",
        "service.server.submit.us": "us",
        "service.server.batch_ops": "count",
        "service.server.snapshot_refresh_per_kop": "1/kop",
        "service.shard.handle_batch.us.p50": "us",
        "service.shard.handle_batch.us.p99": "us",
        "service.shard.busy_frac": "1",
        "service.shard.verdict_hit_ratio": "1",
        "service.shard.dirty_per_reduce": "count",
        "service.tenant.claim.us": "us",
        "service.tenant.release.us": "us",
        "service.tenant.detect_payload.us": "us",
        "service.tenant.snapshot_state.us.mean": "us",
        "service.tenant.snapshot_state.us.max": "us",
        "checkpoint.state_hash.us": "us",
        "checkpoint.state_hash.bytes": "B",
        "rag.batch.update.us": "us",
        "rag.batch.add.us": "us",
        "rag.batch.reduce.us.p50": "us",
        "rag.batch.reduce.us.p99": "us",
        "rag.batch.reduce.tenants": "count",
        "rag.batch.reduce.bytes": "B",
        "rag.batch.residual.us": "us",
        "rag.batch.repacks_per_kop": "1/kop",
        "runtime.gc.pause_ms.max": "ms",
        "runtime.gc.busy_frac": "1",
        "runtime.loop.lag_ms.p99": "ms",
        "loadgen.late_ms.p99": "ms",
        "loadgen.cpu_frac": "1",
        "trace.overhead.p50_frac": "1",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


@dataclass(frozen=True)
class Plan:
    """How long each part of a run lasts, in seconds."""

    #: Seconds of each step's block in one round.
    block_s: float
    rounds: int
    baseline_s: float
    traced_s: float
    warmup_s: float = 2.0
    setup_repeats: int = SETUP_REPEATS

    @classmethod
    def of(cls, seconds: float) -> "Plan":
        return cls(seconds / ROUNDS / len(STEP_NAMES), ROUNDS,
                   seconds * BASELINE_SHARE, seconds * (1 - BASELINE_SHARE))

    @classmethod
    def smoke(cls) -> "Plan":
        return cls(1.0, 1, 1.0, 1.0, warmup_s=0.5, setup_repeats=1)


@dataclass
class Result:
    metrics: dict
    info: dict
    attempted: int
    failed: int
    correct: bool = True


# -- one open-loop step --------------------------------------------------

def step_summary(session, phases: list, limit_ms: float,
                 rate: float) -> dict:
    """One step over all of its blocks.

    p50 and p90 are medians over blocks of each block's percentile: now
    and then the host holds up both processes for a second or more, and
    the median leaves out the block or two that such a spell lands in.
    p99 pools every block, so it has at least ten samples beyond it.
    CPU per op is the server's CPU time over all blocks divided by their
    answers: the total evens out the host's speed, which swings by half
    within a second.
    """
    recv, due, sent = session.recv, session.due, session.sent
    blocks, latency, late = [], [], []
    achieved = attempted = 0
    for phase in phases:
        ids = range(phase.first, phase.last)
        blocks.append(sorted((recv[rid] - due[rid]) / 1e6 for rid in ids
                             if recv[rid]))
        latency.extend(blocks[-1])
        late.extend((sent[rid] - due[rid]) / 1e6 for rid in ids)
        grace = phase.end + int(limit_ms * 1e6)
        achieved += sum(1 for rid in ids if 0 < recv[rid] <= grace)
        attempted += len(ids)
    latency.sort()
    summary = {f"p{q}_ms": statistics.median(
        layers.percentile(block, q) for block in blocks) for q in (50, 90)}
    summary["p99_ms"] = layers.percentile(latency, 99)
    summary.update(
        rate=rate, samples=len(latency),
        unanswered=attempted - len(latency),
        offered_per_s=attempted / sum(phase.seconds for phase in phases),
        achieved_share=achieved / attempted if attempted else 1.0,
        late_p99_ms=layers.percentile(sorted(late), 99),
        cpu_us_per_op=sum(phase.cpu_s for phase in phases) * 1e6
        / max(1, len(latency)))
    summary["passed"] = (summary["p99_ms"] <= limit_ms
                         and summary["unanswered"] == 0
                         and summary["achieved_share"] >= ACHIEVED_MIN)
    summary["valid"] = summary["late_p99_ms"] <= LATE_LIMIT_MS
    return summary


# -- the two run modes ---------------------------------------------------

async def warm_up(session, workload, plan: Plan) -> int:
    """Stagger the snapshot journals, then run at nominal (discarded);
    returns when the load started (ns)."""
    stagger = await session.stagger(STAGGER_DEPTH)
    await session.open_loop("warm-up", workload.rates[0], plan.warmup_s)
    return stagger.start


async def end_to_end(workload, seed: int, plan: Plan) -> Result:
    setups = []
    for _ in range(plan.setup_repeats - 1):
        session = Session(workload, seed, OUT)
        try:
            await session.open()
        finally:
            await session.close()
        setups.append(session.setup_s)
    session = Session(workload, seed, OUT)
    blocks: dict = {name: [] for name in STEP_NAMES}
    try:
        await session.open()
        setups.append(session.setup_s)
        await warm_up(session, workload, plan)
        before = await session.admin("shards")
        for index in range(plan.rounds):
            for name, rate in zip(STEP_NAMES, workload.rates):
                blocks[name].append(await session.open_loop(
                    f"{name}.{index}", rate, plan.block_s))
        after = await session.admin("shards")
        rss = session.server_rss_peak_mb()
    finally:
        await session.close()
    steps = [step_summary(session, blocks[name], workload.p99_limit_ms,
                          rate)
             for name, rate in zip(STEP_NAMES, workload.rates)]
    failed = session.failed + sum(step["unanswered"] for step in steps)
    nominal, peak = steps
    hit_ratio, dirty_per_reduce = layers.verdict_cache(before, after)
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": nominal["p50_ms"],
        "p90_ms": nominal["p90_ms"],
        "p50_ms.peak": peak["p50_ms"],
        "cpu_us_per_op": peak["cpu_us_per_op"],
        "rss_peak_mb": rss,
    }
    info = {"setups_s": setups,
            "steps": dict(zip(STEP_NAMES, steps)),
            "verdict_hit_ratio": hit_ratio,
            "dirty_per_reduce": dirty_per_reduce}
    return Result(metrics, info, len(session.sent), failed)


async def traced(workload, seed: int, plan: Plan) -> Result:
    baseline = Session(workload, seed, OUT)
    try:
        await baseline.open()
        await warm_up(baseline, workload, plan)
        phase = await baseline.open_loop("nominal", workload.rates[0],
                                         plan.baseline_s)
    finally:
        await baseline.close()
    base = step_summary(baseline, [phase], workload.p99_limit_ms,
                        workload.rates[0])
    raw = OUT / f"{workload.name}.server.json"
    session = Session(workload, seed, OUT, traced_out=raw)
    try:
        await session.open()
        load_start = await warm_up(session, workload, plan)
        before = await session.admin("shards")
        phase = await session.open_loop("nominal", workload.rates[0],
                                        plan.traced_s)
        after = await session.admin("shards")
    finally:
        await session.close()
    step = step_summary(session, [phase], workload.p99_limit_ms,
                        workload.rates[0])
    with open(raw) as handle:
        server = json.load(handle)
    rows, e2e = layers.stage_rows(session, phase, server["stamps"])
    metrics, sum_error, p99_ns = layers.stage_metrics(rows, e2e)
    metrics.update(layers.layer_metrics(
        session, phase, server, workload.side,
        layers.verdict_cache(before, after), load_start))
    metrics["loadgen.late_ms.p99"] = step["late_p99_ms"]
    metrics["loadgen.cpu_frac"] = phase.generator_cpu_s / phase.seconds
    metrics["trace.overhead.p50_frac"] = step["p50_ms"] / base["p50_ms"] - 1
    trace_path = OUT / f"{workload.name}.trace.json"
    kept = layers.write_perfetto(trace_path, session, phase, server, rows,
                                 p99_ns)
    info = {"stage.sum_error_frac": sum_error,
            "stamped_requests": len(rows), "answered_requests": len(e2e),
            "e2e_mean_us": layers.mean(e2e) / 1e3,
            "e2e_p99_us": p99_ns / 1e3,
            "untraced_p50_ms": base["p50_ms"], "traced_p50_ms":
            step["p50_ms"], "trace_file": str(trace_path.relative_to(ROOT)),
            "trace_requests": kept}
    attempted = len(baseline.sent) + len(session.sent)
    failed = (baseline.failed + session.failed + base["unanswered"]
              + step["unanswered"])
    return Result(metrics, info, attempted, failed,
                  correct=sum_error <= 0.01 and len(rows) == len(e2e))


# -- reporting -----------------------------------------------------------

def provenance() -> dict:
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "commit": "unknown"}
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            stamp["commit"] = done.stdout.strip()
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks.conftest import backend_stamp
        stamp.update(backend_stamp())
    except (ImportError, AttributeError):
        stamp["backend"] = "unavailable"
    finally:
        sys.path.remove(str(ROOT))
    # After the backend stamp, whose "numpy" key only says yes or no.
    try:
        import numpy
        stamp["numpy"] = numpy.__version__
    except ImportError:
        stamp["numpy"] = "absent"
    return stamp


def print_end_to_end(info: dict) -> None:
    for name, step in info["steps"].items():
        print(f"  {name:8s} offered {step['offered_per_s']:8.1f}/s "
              f"achieved {step['achieved_share']:6.1%} "
              f"p50 {step['p50_ms']:7.3f} p90 {step['p90_ms']:7.3f} "
              f"p99 {step['p99_ms']:7.3f} ms ({step['samples']} samples) "
              f"late p99 {step['late_p99_ms']:.3f} ms "
              f"{'pass' if step['passed'] else 'FAIL'}"
              f"{'' if step['valid'] else ' INVALID'}")
    print(f"  setup runs {['%.3f' % s for s in info['setups_s']]} s; "
          f"verdict_hit_ratio {info['verdict_hit_ratio']:.4f} "
          f"dirty_per_reduce {info['dirty_per_reduce']:.3f}")


def print_stages(metrics: dict, info: dict) -> None:
    mean_us = info["e2e_mean_us"]
    print(f"  {'stage':10s} {'p50 us':>10s} {'mean us':>10s} "
          f"{'share':>7s} {'tail us':>10s}")
    for stage in layers.STAGES:
        key = f"stage.{stage}_us"
        print(f"  {stage:10s} {metrics[key + '.p50']:10.1f} "
              f"{metrics[key + '.mean']:10.1f} "
              f"{metrics[key + '.mean'] / mean_us:7.1%} "
              f"{metrics[key + '.tail']:10.1f}")
    print(f"  e2e mean {mean_us:.1f} us, p99 {info['e2e_p99_us']:.1f} us; "
          f"stage sum error {info['stage.sum_error_frac']:.2e}; "
          f"trace {info['trace_file']} ({info['trace_requests']} requests)")


def result_line(result: Result, units: dict) -> str:
    return json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()}})


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py",
        description="open-loop tenant workloads against repro.service")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload and mode, seeds seed.. "
                             "seed+N-1; prints median and IQR")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s phases, one set-up: checks the benchmark")
    args = parser.parse_args(argv)
    plan = Plan.smoke() if args.smoke else Plan.of(args.seconds)
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    OUT.mkdir(exist_ok=True)
    stamp = provenance()
    lines = []
    for name in names:
        workload = WORKLOADS[name]
        for mode in modes:
            units = PER_LAYER_UNITS if mode else END_TO_END_UNITS
            runs = []
            for seed in range(args.seed, args.seed + args.repeat):
                print(f"== {name} trace={mode} seed={seed}", flush=True)
                try:
                    result = asyncio.run((traced if mode else end_to_end)(
                        workload, seed, plan))
                except WrongAnswer as exc:
                    print(f"WRONG ANSWER on {name}: {exc}", file=sys.stderr)
                    return 1
                if mode:
                    print_stages(result.metrics, result.info)
                else:
                    print_end_to_end(result.info)
                runs.append(result)
            merged = Result(
                {key: statistics.median(run.metrics[key] for run in runs)
                 for key in units},
                {"runs": [run.info for run in runs]},
                sum(run.attempted for run in runs),
                sum(run.failed for run in runs),
                all(run.correct for run in runs))
            for key, unit in units.items():
                q1, q2, q3 = quartiles([run.metrics[key] for run in runs])
                spread = (f"  IQR {q3 - q1:.6g} ({(q3 - q1) / q2:.1%})"
                          if len(runs) > 1 and q2 else "")
                print(f"{name} {key} {q2:.6g} {unit}{spread}")
            (OUT / f"{name}.trace{mode}.results.json").write_text(
                json.dumps({"workload": name, "trace": mode,
                            "seeds": [args.seed, args.seed + args.repeat - 1],
                            "provenance": stamp,
                            "metrics": merged.metrics,
                            "info": merged.info}, indent=1) + "\n")
            lines.append((name, mode, merged, units))
    if len(lines) == 1:
        print(result_line(lines[0][2], lines[0][3]))
    else:
        print(json.dumps({
            "correct": all(line[2].correct for line in lines),
            "attempted": sum(line[2].attempted for line in lines),
            "failed": sum(line[2].failed for line in lines),
            "metrics": {f"{name}/{key}": {"value": merged.metrics[key],
                                          "unit": unit}
                        for name, _mode, merged, units in lines
                        for key, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

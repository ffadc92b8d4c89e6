"""Self-test of the service benchmark: ``python -m pytest -q bench/``.

Runs ``bench/run.py --smoke`` (1 s phases) on detect-wide in both
modes and checks that it prints exactly the metrics ``BENCHMARK.json``
declares, that every answer was right, and that the traced stages add
up to the end-to-end latency; then that one seed always produces the
same request bytes and another seed different ones.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import load  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload",
         "detect-wide", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def end_to_end() -> dict:
    return _smoke(0)


@pytest.fixture(scope="module")
def traced() -> dict:
    return _smoke(1)


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in
            result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(load.WORKLOADS)


def test_end_to_end_metrics_match_benchmark_json(end_to_end):
    assert _units(end_to_end) == {m["name"]: m["unit"]
                                  for m in DECLARED["end_to_end"]}
    assert all(metric["value"] > 0
               for metric in end_to_end["metrics"].values())


def test_per_layer_metrics_match_benchmark_json(traced):
    assert _units(traced) == {m["name"]: m["unit"]
                              for m in DECLARED["per_layer"]}


def test_no_wrong_or_failed_answers(end_to_end, traced):
    for result in (end_to_end, traced):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] > 1000


def test_stage_means_add_up_to_end_to_end_mean(traced):
    record = json.loads(
        (BENCH / "out" / "detect-wide.trace1.results.json").read_text())
    info = record["info"]["runs"][0]
    stage_sum = sum(value["value"] for name, value in
                    traced["metrics"].items()
                    if name.startswith("stage.") and name.endswith(".mean"))
    assert info["stamped_requests"] == info["answered_requests"]
    assert abs(stage_sum - info["e2e_mean_us"]) <= 0.01 * info["e2e_mean_us"]
    trace = json.loads((ROOT / info["trace_file"]).read_text())
    assert any(event.get("cat") == "request"
               for event in trace["traceEvents"])


def _request_bytes(seed: int) -> bytes:
    workload = load.WORKLOADS["write-heavy"]
    specs = load.attach_specs(workload, seed)
    streams = [load.TenantStream(spec, workload, seed) for spec in specs]
    lines = [load.encode(dict(spec), index)
             for index, spec in enumerate(specs)]
    for index, (offset, _tenant, op) in enumerate(load.open_loop_ops(
            streams, seed, "nominal.0", 2000, 1.0)):
        lines.append(str(offset).encode() + b" " + load.encode(op, index))
    return b"".join(lines)


def test_same_seed_same_request_bytes():
    first = _request_bytes(5)
    assert len(first) > 100_000
    assert first == _request_bytes(5)
    assert first != _request_bytes(6)

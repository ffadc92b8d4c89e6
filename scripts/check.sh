#!/usr/bin/env bash
# Repository check gate: lint (when ruff is installed) + the tier-1 suite
# + a REPORT.md regeneration check.
#
# Usage: scripts/check.sh [extra pytest args]
#
# Any ruff finding or test failure makes the script exit non-zero.
# Set CHECK_BENCH=1 to also run the benchmark guards (observability
# overhead + fault-hook overhead + matrix-kernel throughput +
# checkpoint overhead + flight-recorder idle overhead + service
# throughput floor, resilience tax and chaos retry profile + SoCDMMU
# pressure guards — what CI's benchmark job does).
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== pytest =="
PYTHONPATH=src python -m pytest -q "$@"

echo "== REPORT.md drift =="
report=$(mktemp)
trap 'rm -f "$report"' EXIT
PYTHONPATH=src python -m repro.experiments --markdown "$report" >/dev/null
if ! cmp -s "$report" REPORT.md; then
    echo "REPORT.md is stale; regenerate it with" \
         "PYTHONPATH=src python -m repro.experiments --markdown REPORT.md"
    exit 1
fi

if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
    echo "== obs overhead guard =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_obs_overhead.py
    echo "== fault-hook overhead guard =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_fault_overhead.py
    echo "== matrix kernel guard =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_matrix_kernels.py
    echo "== checkpoint overhead guard =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_checkpoint.py
    echo "== flight-recorder idle overhead guard =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_flight_overhead.py
    echo "== service guard (throughput floor, <5% resilience tax, chaos retry profile) =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_service.py
    echo "== socdmmu pressure guard =="
    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_socdmmu_pressure.py
fi

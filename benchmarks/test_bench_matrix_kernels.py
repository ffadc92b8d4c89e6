"""Benchmark guard: the bitmask matrix kernel is >= 50x the reference.

The whole point of :class:`repro.rag.bitmatrix.BitMatrix` is that a
terminal-reduction pass costs O(m + n) mask tests instead of the
reference matrix's O(m * n) cell walk.  This guard measures both
backends on the same 64x64 worst-case chain — the deepest reduction
that size admits — demands bit-identical iteration/pass counts and
residuals, and fails the build if the speedup ever drops below 50x
(measured ~320x locally; the floor leaves headroom for slow CI
runners while still catching an order-of-magnitude regression).

The measured record is written to ``BENCH_matrix_kernels.json`` at the
repo root (CI uploads it as an artifact) so the speedup trend is
reviewable across commits.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import backend_stamp, bench_once
from repro.deadlock.pdda import pdda_detect, terminal_reduction
from repro.rag.bitmatrix import FAST_BACKEND, REFERENCE_BACKEND
from repro.rag.generate import random_state, worst_case_state

SIZE = 64
MIN_SPEEDUP = 50.0
RECORD_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_matrix_kernels.json"


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_reduction_speedup_at_least_50x(benchmark):
    state = worst_case_state(SIZE, SIZE)

    fast = terminal_reduction(state, backend=FAST_BACKEND)
    reference = terminal_reduction(state, backend=REFERENCE_BACKEND)
    assert (fast.iterations, fast.passes) \
        == (reference.iterations, reference.passes)
    assert fast.complete and reference.complete
    assert fast.matrix == reference.matrix

    fast_s = bench_once(
        benchmark,
        lambda: _best_of(
            lambda: terminal_reduction(state, backend=FAST_BACKEND)))
    reference_s = _best_of(
        lambda: terminal_reduction(state, backend=REFERENCE_BACKEND),
        repeats=3)
    speedup = reference_s / fast_s

    record = {
        "benchmark": "matrix_kernels",
        "size": f"{SIZE}x{SIZE}",
        "state": "worst_case_chain",
        "iterations": fast.iterations,
        "passes": fast.passes,
        "bitmask_seconds": fast_s,
        "reference_seconds": reference_s,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        **backend_stamp(),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info["matrix_kernels"] = record

    assert speedup >= MIN_SPEEDUP, (
        f"bitmask kernel only {speedup:.1f}x over the reference on the "
        f"{SIZE}x{SIZE} worst case (bitmask {fast_s * 1e3:.2f}ms, "
        f"reference {reference_s * 1e3:.2f}ms); the guard floor is "
        f"{MIN_SPEEDUP}x")


def test_bench_random_population_agrees_and_speeds_up(benchmark):
    """A mixed random population, not just the adversarial chain."""
    states = [random_state(SIZE, SIZE, grant_fraction=0.7,
                           request_fraction=0.3, seed=seed)
              for seed in range(8)]

    for state in states:
        fast = pdda_detect(state, backend=FAST_BACKEND)
        reference = pdda_detect(state, backend=REFERENCE_BACKEND)
        assert (fast.deadlock, fast.iterations, fast.passes) \
            == (reference.deadlock, reference.iterations,
                reference.passes)

    def sweep(backend):
        return [pdda_detect(state, backend=backend).passes
                for state in states]

    fast_s = bench_once(
        benchmark, lambda: _best_of(lambda: sweep(FAST_BACKEND),
                                    repeats=3))
    reference_s = _best_of(lambda: sweep(REFERENCE_BACKEND), repeats=2)
    speedup = reference_s / fast_s
    benchmark.extra_info["random_population"] = {
        "states": len(states),
        "bitmask_seconds": fast_s,
        "reference_seconds": reference_s,
        "speedup": speedup,
    }
    # Random states reduce shallowly, so the floor is looser than the
    # worst-case guard — but the fast path must still clearly win.
    assert speedup >= 2.0, (
        f"bitmask kernel only {speedup:.1f}x on random 64x64 states")

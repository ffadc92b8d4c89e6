"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures; the
regenerated rows are attached to the benchmark record via
``benchmark.extra_info`` so ``--benchmark-json`` output carries the
full reproduction alongside the wall-clock numbers.
"""


def backend_stamp():
    """Provenance block for BENCH_* payloads: the matrix backend.

    The value is a string on purpose — the trend gate only tracks
    numeric top-level keys, and provenance is context, not a metric.
    """
    from repro.rag.bitmatrix import FAST_BACKEND

    return {"matrix_backend": FAST_BACKEND}


def bench_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` through pytest-benchmark with fixed, small round
    counts — the simulations are deterministic, so statistical
    averaging adds nothing but wall-clock."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=3, iterations=1, warmup_rounds=0)

"""Batched terminal reduction: one verdict per tenant matrix.

A multi-tenant service (see :mod:`repro.service`) wants one verdict per
dirty tenant per tick.  :func:`batched_reduce` is that loop: copy each
matrix, run :meth:`BitMatrix.reduce` on the copy, and read the verdict
off the residual.  The kernel already clears whole rows and columns at
once, and a shard's tick rarely holds more than one dirty tenant, so
packing tenants side by side into shared planes has nothing to win.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.rag.bitmatrix import FAST_BACKEND, AnyStateMatrix, BitMatrix, \
    as_backend_matrix


def batched_reduce(matrices: Sequence[AnyStateMatrix]
                   ) -> list[tuple[bool, int, int, BitMatrix]]:
    """Reduce an ensemble; per-tenant ``(deadlock, iterations, passes,
    residual)`` — :func:`repro.deadlock.pdda.terminal_reduction` run
    per tenant on a private copy, so the sources are never consumed."""
    if not matrices:
        raise ConfigurationError("batched_reduce needs at least 1 tenant")
    results = []
    for source in matrices:
        residual = as_backend_matrix(source, FAST_BACKEND)
        iterations, passes = residual.reduce()
        results.append((not residual.is_empty(), iterations, passes,
                        residual))
    return results

"""Resource Allocation Graph (RAG) substrate.

The paper's deadlock machinery operates on RAGs with *single-unit,
single-grant* resources: a resource is granted to at most one process at
a time (Section 3.2).  This package provides:

* :class:`~repro.rag.graph.RAG` — the graph itself, with protocol
  enforcement (Assumptions 1-3 of the paper);
* :class:`~repro.rag.matrix.StateMatrix` — the m x n matrix encoding of
  Definition 6 with the 2-bit cell encoding of Section 4.2.2;
* :class:`~repro.rag.bitmatrix.BitMatrix` — the same matrix stored as
  per-row/per-column integer bitmasks (the word-parallel fast path the
  reduction kernels run on; ``backend=`` selects);
* :mod:`repro.rag.classic` — prior-work baselines (Holt-style cycle
  detection, graph reduction, Leibfried's adjacency-matrix method,
  Banker's algorithm);
* :mod:`repro.rag.generate` — random and structured state generators for
  tests and benchmarks.
"""

from repro.rag.graph import RAG
from repro.rag.matrix import CellState, StateMatrix
from repro.rag.bitmatrix import (
    BACKENDS,
    FAST_BACKEND,
    REFERENCE_BACKEND,
    BitMatrix,
    as_backend_matrix,
    matrix_class,
    matrix_from_rag,
    resolve_backend,
)
from repro.rag.batch import batched_reduce
from repro.rag.classic import (
    BankersAvoider,
    graph_reduction_detect,
    holt_detect,
    leibfried_detect,
)
from repro.rag.generate import (
    DEFAULT_SEED,
    chain_state,
    cycle_state,
    deadlock_free_state,
    random_bitmatrix,
    random_multiunit_state,
    random_state,
    resolve_rng,
    worst_case_state,
)
from repro.rag.multiunit import MultiUnitDetection, MultiUnitSystem
from repro.rag.serialize import (
    rag_from_dict,
    rag_from_json,
    rag_to_dict,
    rag_to_json,
    restore,
    snapshot,
)

__all__ = [
    "RAG",
    "StateMatrix",
    "BitMatrix",
    "CellState",
    "BACKENDS",
    "FAST_BACKEND",
    "REFERENCE_BACKEND",
    "as_backend_matrix",
    "matrix_class",
    "matrix_from_rag",
    "resolve_backend",
    "batched_reduce",
    "holt_detect",
    "graph_reduction_detect",
    "leibfried_detect",
    "BankersAvoider",
    "DEFAULT_SEED",
    "resolve_rng",
    "random_state",
    "random_bitmatrix",
    "random_multiunit_state",
    "cycle_state",
    "chain_state",
    "deadlock_free_state",
    "worst_case_state",
    "MultiUnitSystem",
    "MultiUnitDetection",
    "rag_to_dict",
    "rag_from_dict",
    "rag_to_json",
    "rag_from_json",
    "snapshot",
    "restore",
]

"""Differential suite: :func:`batched_reduce` === the cell-object oracle.

Every case builds an ensemble of seeded states, reduces it once through
:func:`~repro.rag.batch.batched_reduce` (the shard's per-tick loop) and
once per tenant through the :class:`~repro.rag.matrix.StateMatrix`
reference, and demands identical iterations, passes, verdicts, residual
cells and edge counts, with transposes that match the residual rows.
The ensembles cover > 100 seeded cases plus the structured adversaries
(chains, cycles, worst cases), mixed shapes, sides past one machine word
and seeded random op streams.

Some test names predate the single kernel: ``vectorized`` and
``python_fallback`` were the NumPy plane and its pure-Python twin.  Both
now drive the one loop, from RAG and from BitMatrix sources.
"""

import random

import pytest

from repro.deadlock.pdda import terminal_reduction
from repro.errors import ConfigurationError
from repro.rag.batch import batched_reduce
from repro.rag.bitmatrix import REFERENCE_BACKEND, BitMatrix
from repro.rag.generate import (
    chain_state,
    cycle_state,
    deadlock_free_state,
    random_state,
    worst_case_state,
)
from repro.rag.matrix import CellState

SEED_ROOT = 42

#: (m, n, grant_fraction, request_fraction) shape mix per ensemble.
SHAPES = ((3, 3, 0.5, 0.3), (5, 8, 0.6, 0.3), (8, 5, 0.8, 0.5),
          (16, 16, 0.7, 0.4), (32, 24, 0.9, 0.5), (1, 1, 0.6, 0.3))


def _ensemble(seed_root: int) -> list:
    states = []
    for offset, (m, n, grants, requests) in enumerate(SHAPES):
        states.append(random_state(
            m, n, grant_fraction=grants, request_fraction=requests,
            seed=seed_root * 100 + offset))
    return states


def _assert_matches_reference(states) -> None:
    results = batched_reduce(states)
    assert len(results) == len(states)
    for index, (state, result) in enumerate(zip(states, results)):
        deadlock, iterations, passes, residual = result
        expected = terminal_reduction(state, backend=REFERENCE_BACKEND)
        assert (iterations, passes) == (expected.iterations,
                                         expected.passes), (
            f"tenant {index}: batched {(iterations, passes)} != "
            f"reference {(expected.iterations, expected.passes)}")
        assert deadlock == (not expected.complete)
        assert residual == expected.matrix, \
            f"tenant {index}: residual cells differ"
        rebuilt = BitMatrix.from_matrix(expected.matrix)
        assert residual._col_r == rebuilt._col_r
        assert residual._col_g == rebuilt._col_g
        assert residual.edge_count == expected.matrix.edge_count


@pytest.mark.parametrize("seed_root", range(18))
def test_vectorized_matches_per_tenant_random(seed_root):
    """18 ensembles x 6 shapes = 108 seeded random cases."""
    _assert_matches_reference(_ensemble(seed_root))


@pytest.mark.parametrize("seed_root", range(4))
def test_python_fallback_matches_per_tenant(seed_root):
    """BitMatrix sources: reduced on copies, never consumed."""
    sources = [BitMatrix.from_rag(state)
               for state in _ensemble(1000 + seed_root)]
    before = [source.copy() for source in sources]
    _assert_matches_reference(sources)
    for source, original in zip(sources, before):
        assert source == original
        assert source.edge_count == original.edge_count


def test_structured_adversaries_match():
    """Chains (deepest reduction), cycles (irreducible), worst cases."""
    states = [chain_state(2), chain_state(17), chain_state(32),
              cycle_state(2), cycle_state(9), cycle_state(24),
              worst_case_state(12, 31), worst_case_state(31, 12),
              deadlock_free_state(10, 10, seed=7)]
    _assert_matches_reference(states)


def test_mixed_shapes_pack_inertly():
    """Tenants of different shapes in one call keep their own shapes."""
    states = [random_state(2, 11, seed=1), random_state(11, 2, seed=2),
              random_state(7, 7, seed=3), cycle_state(3)]
    _assert_matches_reference(states)
    for (_deadlock, _iterations, _passes, residual), state in zip(
            batched_reduce(states), states):
        assert (residual.m, residual.n) == (state.num_resources,
                                            state.num_processes)


@pytest.mark.parametrize("m,n", [(65, 65), (100, 100), (128, 128),
                                 (65, 4), (4, 65), (128, 24)])
def test_multiword_planes_match_per_tenant(m, n):
    """Sides past one machine word reduce exactly like narrow ones.

    The worst-case chain is held to its closed form, ``min(m, n)``
    iterations to empty, which ``test_reduce_worst_case_chains`` in
    ``tests/test_bitmatrix_equiv.py`` checks against the reference; the
    reference itself needs seconds per chain at these sides.
    """
    states = [random_state(m, n, grant_fraction=0.7,
                           request_fraction=0.4,
                           seed=SEED_ROOT * 1000 + m * 7 + n + index)
              for index in range(4)]
    _assert_matches_reference(states)
    k = min(m, n)
    (deadlock, iterations, passes, residual), = batched_reduce(
        [worst_case_state(m, n)])
    assert (deadlock, iterations, passes) == (False, k, k + 1)
    assert residual.is_empty() and not any(residual._col_r + residual._col_g)


@pytest.mark.parametrize("side", [65, 100, 128])
def test_multiword_random_op_streams(side):
    """Drive a wide matrix through a seeded op stream; after every few
    mutations the batched reduction of the live matrix must equal the
    reference — the multi-word analogue of the service tick."""
    rng = random.Random(SEED_ROOT * side)
    matrix = BitMatrix(side, side)
    for step in range(120):
        s = rng.randrange(side)
        t = rng.randrange(side)
        cell = matrix.get(s, t)
        if cell is CellState.EMPTY:
            if matrix.row_bwo(s)[1] == 0:
                matrix.set_grant(s, t)
            else:
                matrix.set_request(s, t)
        else:
            matrix.clear(s, t)
        if step % 20 == 19:
            _assert_matches_reference([matrix])


def test_word_width_unbounded():
    """No width limit: very thin, very tall and wide tenants."""
    _assert_matches_reference([
        random_state(1, 200, seed=5), random_state(200, 1, seed=6),
        random_state(150, 3, grant_fraction=0.9, seed=7),
        random_state(130, 70, grant_fraction=0.8, seed=8),
        worst_case_state(3, 150)])


def test_empty_ensemble_rejected():
    with pytest.raises(ConfigurationError):
        batched_reduce([])


def test_residuals_are_independent_copies():
    source = BitMatrix.from_rag(cycle_state(4))
    (_deadlock, _iterations, _passes, first), = batched_reduce([source])
    first.clear_row(0)
    (_deadlock, _iterations, _passes, again), = batched_reduce([source])
    assert source.edge_count == again.edge_count == 8  # source unaffected

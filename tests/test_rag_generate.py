"""Tests for the RAG state generators."""

import itertools
import random

import pytest

from repro.errors import ConfigurationError
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import (
    chain_state,
    cycle_state,
    deadlock_free_state,
    empty_state,
    random_bitmatrix,
    random_state,
    worst_case_state,
)


def test_empty_state_has_no_edges():
    state = empty_state(3, 4)
    assert state.is_empty()
    assert state.num_resources == 3
    assert state.num_processes == 4


def test_cycle_state_structure():
    state = cycle_state(4)
    assert state.has_cycle()
    assert state.edge_count == 8  # 4 grants + 4 requests
    for i, process in enumerate(state.processes):
        assert state.holder_of(state.resources[i]) == process


def test_cycle_state_minimum_length():
    with pytest.raises(ConfigurationError):
        cycle_state(1)


def test_chain_state_is_reducible():
    state = chain_state(5)
    assert not state.has_cycle()
    assert state.edge_count == 9  # 5 grants + 4 requests


def test_worst_case_state_fits_rectangle():
    state = worst_case_state(3, 6)
    assert not state.has_cycle()
    # chain limited by min(m, n) = 3: 3 grants + 2 requests
    assert state.edge_count == 5


def test_random_state_is_reproducible_with_seed():
    a = random_state(5, 5, rng=random.Random(7))
    b = random_state(5, 5, rng=random.Random(7))
    assert a == b


def test_random_state_respects_protocol():
    rng = random.Random(3)
    for _ in range(50):
        state = random_state(6, 6, rng=rng)
        # Every holder is a known process; no process requests a
        # resource it holds (the RAG constructor enforces this, so
        # building the state at all is the assertion).
        for q in state.resources:
            holder = state.holder_of(q)
            if holder is not None:
                assert holder in state.processes
                assert q not in state.requests_of(holder)


def test_deadlock_free_state_never_cycles():
    rng = random.Random(42)
    for _ in range(100):
        assert not deadlock_free_state(6, 6, rng=rng).has_cycle()


def test_dimension_validation():
    with pytest.raises(ConfigurationError):
        empty_state(0, 3)
    with pytest.raises(ConfigurationError):
        chain_state(1)


# -- random_bitmatrix against the graph-building sampler ---------------------


def _graph_sampler(num_resources, num_processes, grant_fraction,
                   request_fraction, rng):
    """The original ``random_state`` loop, kept verbatim as the oracle."""
    rag = empty_state(num_resources, num_processes)
    for q in rag.resources:
        if rng.random() < grant_fraction:
            rag.grant(q, rng.choice(rag.processes))
    for p in rag.processes:
        for q in rag.resources:
            if rag.holder_of(q) == p:
                continue
            if rng.random() < request_fraction:
                rag.add_request(p, q)
    return rag


FRACTIONS = list(itertools.product((0.0, 0.3, 0.6, 1.0), (0.0, 0.3, 1.0)))
WIDE_SIDES = (63, 64, 65, 127, 128, 129)
SEEDS_PER_SHAPE = 24


def _assert_same_planes(matrix, expected):
    assert (matrix.m, matrix.n) == (expected.m, expected.n)
    assert matrix.resource_names == expected.resource_names
    assert matrix.process_names == expected.process_names
    assert matrix._row_r == expected._row_r
    assert matrix._row_g == expected._row_g
    assert matrix._col_r == expected._col_r
    assert matrix._col_g == expected._col_g
    assert matrix.edge_count == expected.edge_count


def _assert_matches_oracle(m, n, grant_fraction, request_fraction, seed):
    oracle_rng = random.Random(seed)
    oracle = _graph_sampler(m, n, grant_fraction, request_fraction,
                            oracle_rng)
    rng = random.Random(seed)
    matrix = random_bitmatrix(m, n, grant_fraction, request_fraction,
                              rng=rng)
    _assert_same_planes(matrix, BitMatrix.from_rag(oracle))
    following = oracle_rng.random()
    assert rng.random() == following

    rng = random.Random(seed)
    rag = random_state(m, n, grant_fraction, request_fraction, rng=rng)
    assert list(rag.request_edges()) == list(oracle.request_edges())
    assert list(rag.grant_edges()) == list(oracle.grant_edges())
    assert rag == oracle
    assert rng.random() == following


@pytest.mark.parametrize("m", range(1, 10))
def test_random_bitmatrix_matches_graph_sampler_small(m):
    for n in range(1, 10):
        for seed in range(20):
            for grant_fraction, request_fraction in FRACTIONS:
                _assert_matches_oracle(m, n, grant_fraction,
                                       request_fraction, seed)


@pytest.mark.parametrize(
    "m,n", [(1, 128), (128, 1)]
    + list(itertools.product(WIDE_SIDES, WIDE_SIDES)))
def test_random_bitmatrix_matches_graph_sampler_wide(m, n):
    # Every seed takes the next fraction pair, so each shape sees the
    # whole grid twice over its seeds.
    for seed in range(SEEDS_PER_SHAPE):
        grant_fraction, request_fraction = FRACTIONS[seed % len(FRACTIONS)]
        _assert_matches_oracle(m, n, grant_fraction, request_fraction,
                               seed)


def test_random_bitmatrix_shares_one_rng_like_the_graph_sampler():
    # Two draws from one stream, as the campaign's generator and the
    # latency profile make them: the second state and the stream after
    # it must both agree.
    for seed in range(20):
        oracle_rng = random.Random(seed)
        rng = random.Random(seed)
        state_rng = random.Random(seed)
        for m, n in ((5, 7), (64, 3)):
            oracle = _graph_sampler(m, n, 0.6, 0.3, oracle_rng)
            _assert_same_planes(random_bitmatrix(m, n, rng=rng),
                                BitMatrix.from_rag(oracle))
            assert random_state(m, n, rng=state_rng) == oracle
        expected = oracle_rng.random()
        assert rng.random() == expected
        assert state_rng.random() == expected


def test_random_bitmatrix_seeding_contract():
    assert random_bitmatrix(6, 6, seed=9) == random_bitmatrix(
        6, 6, rng=random.Random(9))
    assert random_bitmatrix(6, 6) == random_bitmatrix(6, 6, seed=2003)


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0)])
def test_random_samplers_refuse_an_empty_side(m, n):
    with pytest.raises(ConfigurationError):
        random_bitmatrix(m, n, seed=1)
    with pytest.raises(ConfigurationError):
        random_state(m, n, seed=1)

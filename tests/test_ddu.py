"""Tests for the DDU hardware model."""

import random

import pytest

from repro.deadlock.ddu import DDU, iteration_bound
from repro.deadlock.pdda import pdda_detect
from repro.errors import ConfigurationError
from repro.rag.generate import chain_state, cycle_state, random_state
from repro.rag.matrix import StateMatrix


def test_register_file_edge_interface():
    ddu = DDU(2, 2)
    ddu.set_request(0, 0)
    ddu.set_grant(1, 1)
    assert ddu.cell(0, 0).name == "REQUEST"
    assert ddu.cell(1, 1).name == "GRANT"
    ddu.clear_edge(0, 0)
    assert ddu.cell(0, 0).name == "EMPTY"


def test_load_checks_dimensions():
    ddu = DDU(3, 3)
    with pytest.raises(ConfigurationError):
        ddu.load(StateMatrix(2, 2))


def test_detect_on_cycle():
    ddu = DDU(4, 4)
    ddu.load(cycle_state(4))
    result = ddu.detect()
    assert result.deadlock
    assert result.iterations == 0
    assert result.passes == 1


def test_detect_on_chain():
    ddu = DDU(4, 4)
    ddu.load(chain_state(4))
    result = ddu.detect()
    assert not result.deadlock
    assert result.residual.is_empty()


def test_detect_preserves_register_file():
    ddu = DDU(3, 3)
    ddu.load(cycle_state(3))
    edges_before = ddu.matrix.edge_count
    ddu.detect()
    assert ddu.matrix.edge_count == edges_before


def test_matches_pdda_on_random_states():
    rng = random.Random(77)
    ddu = DDU(5, 5)
    for _ in range(200):
        state = random_state(5, 5, rng=rng)
        ddu.load(state)
        hw = ddu.detect()
        sw = pdda_detect(state)
        assert hw.deadlock == sw.deadlock
        assert hw.iterations == sw.iterations
        assert hw.passes == sw.passes


def test_iteration_bound_formula():
    assert DDU(5, 5).iteration_bound == 7       # 2*5 - 3
    assert DDU(3, 10).iteration_bound == 3      # 2*3 - 3
    assert DDU(2, 2).iteration_bound == 2       # floor at min = 2
    assert DDU(1, 1).iteration_bound == 1
    for m, n in ((5, 5), (3, 10), (2, 2), (1, 1), (1, 9), (9, 4)):
        assert iteration_bound(m, n) == DDU(m, n).iteration_bound


def test_iterations_within_o_min_mn_bound():
    rng = random.Random(123)
    for m, n in ((3, 3), (5, 5), (5, 8), (8, 5)):
        ddu = DDU(m, n)
        for _ in range(100):
            ddu.load(random_state(m, n, rng=rng))
            result = ddu.detect()
            # The proven bound counts evaluation passes.
            assert result.passes <= ddu.iteration_bound + 1


def test_weight_cells_expose_terminal_and_connect():
    ddu = DDU(2, 2)
    matrix = StateMatrix.from_rows(["g r", ". r"])
    ddu.load(matrix)
    rows = ddu.row_weights()
    cols = ddu.column_weights()
    assert rows[0].connect and not rows[0].terminal
    assert rows[1].terminal and not rows[1].connect
    assert cols[0].terminal       # grant only
    assert cols[1].terminal       # requests only


def test_latency_counts_passes():
    ddu = DDU(4, 4)
    ddu.load(chain_state(4))
    result = ddu.detect()
    assert result.cycles == result.passes
    assert ddu.busy_cycles == result.cycles
    assert ddu.invocations == 1


def test_minimum_dimensions():
    with pytest.raises(ConfigurationError):
        DDU(0, 5)

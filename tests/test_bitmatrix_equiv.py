"""Differential oracle: BitMatrix === StateMatrix, bit for bit.

The bitmask fast path (:mod:`repro.rag.bitmatrix`) is only admissible
because it is *indistinguishable* from the per-cell reference matrix:
same cells, same terminal on-sets, same reduction iteration/pass
counts, same residuals, same PDDA/DDU verdicts, same protocol errors.
This suite grinds both representations against each other over seeded
random states (seeds derived exactly the way campaign scenarios derive
theirs, seed root 42 — the CI determinism job's root), structured
states, degenerate edge cases and random mutation sequences.
"""

from __future__ import annotations

import random

import pytest

from repro.campaign.spec import derive_seed
from repro.deadlock.ddu import DDU
from repro.deadlock.pdda import pdda_detect, terminal_reduction
from repro.errors import ConfigurationError, ResourceProtocolError
from repro.experiments.exhaustive_bound import enumerate_states
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
from repro.rag.generate import (
    chain_state,
    cycle_state,
    deadlock_free_state,
    empty_state,
    random_state,
    worst_case_state,
)
from repro.rag.graph import RAG
from repro.rag.matrix import StateMatrix

SEED_ROOT = 42
SIZES = [(1, 1), (1, 4), (4, 1), (2, 3), (5, 5), (8, 5), (5, 8),
         (16, 16), (33, 7)]


def _seed(tag: str) -> int:
    return derive_seed(SEED_ROOT, tag)


def _random_rags():
    for m, n in SIZES:
        for grant in (0.5, 0.9):
            tag = f"equiv/{m}x{n}/g{grant}"
            yield tag, random_state(
                m, n, grant_fraction=grant, request_fraction=0.4,
                rng=random.Random(_seed(tag)))


def _structured_rags():
    yield "cycle/6", cycle_state(6)
    yield "chain/9", chain_state(9)
    yield "worst/12x7", worst_case_state(12, 7)
    yield "free/10x10", deadlock_free_state(
        10, 10, rng=random.Random(_seed("free/10x10")))
    yield "empty/4x6", empty_state(4, 6)


def _all_rags():
    yield from _random_rags()
    yield from _structured_rags()


def _assert_same_cells(fast: BitMatrix, ref: StateMatrix) -> None:
    assert (fast.m, fast.n) == (ref.m, ref.n)
    for s in range(ref.m):
        for t in range(ref.n):
            assert fast.get(s, t) is ref.get(s, t), (s, t)


@pytest.mark.parametrize("tag,rag", list(_all_rags()),
                         ids=[tag for tag, _ in _all_rags()])
class TestStateAgreement:
    def test_cells_and_counts(self, tag, rag):
        fast = BitMatrix.from_rag(rag)
        ref = StateMatrix.from_rag(rag)
        _assert_same_cells(fast, ref)
        assert fast.edge_count == ref.edge_count
        assert fast.is_empty() == ref.is_empty()
        assert fast == ref and ref == fast
        assert fast.render() == ref.render()

    def test_equation_reductions(self, tag, rag):
        fast = BitMatrix.from_rag(rag)
        ref = StateMatrix.from_rag(rag)
        for s in range(ref.m):
            assert fast.row_bwo(s) == ref.row_bwo(s)
            assert fast.row_terminal(s) == ref.row_terminal(s)
            assert fast.row_connect(s) == ref.row_connect(s)
        for t in range(ref.n):
            assert fast.column_bwo(t) == ref.column_bwo(t)
            assert fast.column_terminal(t) == ref.column_terminal(t)
            assert fast.column_connect(t) == ref.column_connect(t)
        assert fast.terminal_rows() == ref.terminal_rows()
        assert fast.terminal_columns() == ref.terminal_columns()

    def test_terminal_reduction_counts(self, tag, rag):
        fast = terminal_reduction(rag, backend=FAST_BACKEND)
        ref = terminal_reduction(rag, backend=REFERENCE_BACKEND)
        assert isinstance(fast.matrix, BitMatrix)
        assert isinstance(ref.matrix, StateMatrix)
        assert fast.iterations == ref.iterations
        assert fast.passes == ref.passes
        assert fast.passes == fast.iterations + 1
        assert fast.complete == ref.complete
        assert fast.matrix == ref.matrix  # residuals cell-identical

    def test_pdda_verdicts(self, tag, rag):
        fast = pdda_detect(rag, backend=FAST_BACKEND)
        ref = pdda_detect(rag, backend=REFERENCE_BACKEND)
        assert fast.deadlock == ref.deadlock == rag.has_cycle()
        assert fast.iterations == ref.iterations
        assert fast.passes == ref.passes
        assert fast.software_cycles == ref.software_cycles
        assert fast.residual == ref.residual
        assert (sorted(fast.deadlocked_processes())
                == sorted(ref.deadlocked_processes()))
        residual = fast.residual
        assert ([residual.process_names[t]
                 for t in residual.nonempty_columns()]
                == ref.deadlocked_processes())
        assert (sorted(fast.deadlocked_resources())
                == sorted(ref.deadlocked_resources()))

    def test_ddu_backends_agree(self, tag, rag):
        results = {}
        for backend in BACKENDS:
            unit = DDU(rag.num_resources, rag.num_processes,
                       backend=backend)
            unit.load(rag)
            results[backend] = unit.detect()
        ref = results[REFERENCE_BACKEND]
        got = results[FAST_BACKEND]
        assert got.deadlock == ref.deadlock
        assert got.iterations == ref.iterations
        assert got.passes == ref.passes
        assert got.cycles == ref.cycles
        assert got.residual == ref.residual


def test_one_by_one_cases():
    for rows in (["."], ["r"], ["g"]):
        fast = BitMatrix.from_rows(rows)
        ref = StateMatrix.from_rows(rows)
        assert fast == ref
        f = terminal_reduction(fast)
        r = terminal_reduction(ref, backend=REFERENCE_BACKEND)
        assert (f.iterations, f.passes, f.complete) \
            == (r.iterations, r.passes, r.complete)
        # A 1x1 state can never deadlock (no request+grant in one cell).
        assert f.complete


def test_all_grant_matrix():
    rows = ["g . .", ". g .", ". . g"]
    fast = BitMatrix.from_rows(rows)
    ref = StateMatrix.from_rows(rows)
    assert fast.terminal_rows() == ref.terminal_rows() == [0, 1, 2]
    f = terminal_reduction(fast)
    r = terminal_reduction(ref, backend=REFERENCE_BACKEND)
    assert (f.iterations, f.passes) == (r.iterations, r.passes) == (1, 2)
    assert f.complete and r.complete


def test_protocol_error_parity():
    fast = BitMatrix(2, 2)
    ref = StateMatrix(2, 2)
    for matrix in (fast, ref):
        matrix.set_grant(0, 0)
        matrix.set_request(1, 0)
    cases = [
        lambda mx: mx.set_request(0, 0),   # occupied cell
        lambda mx: mx.set_grant(0, 0),     # already GRANT
        lambda mx: mx.set_grant(0, 1),     # single-unit rule
        lambda mx: mx.set_request(1, 0),   # already REQUEST
    ]
    for case in cases:
        with pytest.raises(ResourceProtocolError) as fast_err:
            case(fast)
        with pytest.raises(ResourceProtocolError) as ref_err:
            case(ref)
        assert str(fast_err.value) == str(ref_err.value)


def test_single_unit_error_names_holding_column():
    matrix = StateMatrix(2, 3)
    matrix.set_grant(0, 2)
    with pytest.raises(ResourceProtocolError,
                       match=r"granted to column 2"):
        matrix.set_grant(0, 1)


def test_dimension_errors_match():
    for bad in ((0, 3), (3, 0)):
        with pytest.raises(ResourceProtocolError):
            BitMatrix(*bad)
        with pytest.raises(ResourceProtocolError):
            StateMatrix(*bad)


def test_random_operation_sequence_differential():
    """Apply the same random mutation stream to both; never diverge."""
    rng = random.Random(_seed("ops"))
    m, n = 6, 7
    fast = BitMatrix(m, n)
    ref = StateMatrix(m, n)
    for _ in range(600):
        s = rng.randrange(m)
        t = rng.randrange(n)
        op = rng.choice(("request", "grant", "clear", "clear_row",
                         "clear_column"))
        outcomes = []
        for matrix in (fast, ref):
            try:
                if op == "request":
                    matrix.set_request(s, t)
                elif op == "grant":
                    matrix.set_grant(s, t)
                elif op == "clear":
                    matrix.clear(s, t)
                elif op == "clear_row":
                    matrix.clear_row(s)
                else:
                    matrix.clear_column(t)
                outcomes.append("ok")
            except ResourceProtocolError as exc:
                outcomes.append(str(exc))
        # Same success/failure — and the same error message.
        assert outcomes[0] == outcomes[1], (op, s, t)
        assert fast == ref
        assert fast.edge_count == ref.edge_count
        assert fast.terminal_rows() == ref.terminal_rows()
        assert fast.terminal_columns() == ref.terminal_columns()


def test_mutation_then_reduce_agrees():
    rng = random.Random(_seed("mutate-reduce"))
    for _ in range(20):
        rag = random_state(9, 9, grant_fraction=rng.random(),
                           request_fraction=rng.random() * 0.5, rng=rng)
        fast = BitMatrix.from_rag(rag)
        ref = StateMatrix.from_rag(rag)
        f = terminal_reduction(fast)
        r = terminal_reduction(ref, backend=REFERENCE_BACKEND)
        assert (f.iterations, f.passes, f.complete) \
            == (r.iterations, r.passes, r.complete)
        assert f.matrix == r.matrix


def test_residual_rereduction_is_stable():
    """Reducing a residual again must be a 1-pass no-op on both."""
    rag = cycle_state(5)
    for backend in BACKENDS:
        first = terminal_reduction(rag, backend=backend)
        again = terminal_reduction(first.matrix, backend=backend)
        assert again.iterations == 0
        assert again.passes == 1
        assert again.matrix == first.matrix


def test_round_trips():
    rag = random_state(7, 6, rng=random.Random(_seed("roundtrip")))
    fast = BitMatrix.from_rag(rag)
    assert BitMatrix.from_rag(fast.to_rag()) == fast
    assert fast.to_state_matrix() == fast
    assert StateMatrix.from_matrix(fast) == fast
    assert BitMatrix.from_matrix(StateMatrix.from_rag(rag)) == fast
    clone = fast.copy()
    clone.clear_row(0)
    assert clone != fast or fast.row_bwo(0) == (0, 0)


def test_backend_knob(monkeypatch):
    # No environment variable selects the path any more.
    monkeypatch.setenv("REPRO_MATRIX_BACKEND", "reference")
    assert resolve_backend(None) == FAST_BACKEND
    assert isinstance(matrix_from_rag(cycle_state(3)), BitMatrix)
    assert resolve_backend(REFERENCE_BACKEND) == REFERENCE_BACKEND
    assert matrix_class(FAST_BACKEND) is BitMatrix
    assert matrix_class(REFERENCE_BACKEND) is StateMatrix
    assert BACKENDS == (FAST_BACKEND, REFERENCE_BACKEND)
    for retired in ("simd", "native"):
        with pytest.raises(ConfigurationError):
            resolve_backend(retired)


def test_as_backend_matrix_always_fresh():
    rag = chain_state(4)
    fast = BitMatrix.from_rag(rag)
    ref = StateMatrix.from_rag(rag)
    for source in (rag, fast, ref):
        for backend in BACKENDS:
            out = as_backend_matrix(source, backend)
            assert isinstance(out, matrix_class(backend))
            assert out == fast
            assert out is not source
            out.clear_row(0)  # must not alias the source
    assert fast == ref == BitMatrix.from_rag(rag)


def test_smoke_campaign_states_agree_across_backends():
    """Every RAG the seed-root-42 smoke campaign generates agrees."""
    from repro.campaign.checkers import GENERATORS
    from repro.campaign.presets import builtin_campaign

    checked = 0
    for scenario in builtin_campaign("smoke").expand(SEED_ROOT):
        if not scenario.generator.startswith("rag."):
            continue
        rng = random.Random(scenario.seed)
        rag = GENERATORS[scenario.generator](scenario.params, rng)
        fast = pdda_detect(rag, backend=FAST_BACKEND)
        ref = pdda_detect(rag, backend=REFERENCE_BACKEND)
        assert (fast.deadlock, fast.iterations, fast.passes) \
            == (ref.deadlock, ref.iterations, ref.passes), \
            scenario.scenario_id
        assert fast.residual == ref.residual, scenario.scenario_id
        checked += 1
    assert checked >= 10


# -- snapshot rows rendered and parsed from the bit planes ---------------------

PLANE_WIDTHS = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129)
PLANE_SHAPES = [(side, side) for side in PLANE_WIDTHS] + [
    (1, 129), (129, 1), (3, 64), (65, 9), (8, 127), (128, 7)]


def _assert_same_planes(got: BitMatrix, want: BitMatrix) -> None:
    assert (got.m, got.n) == (want.m, want.n)
    assert got._row_g == want._row_g
    assert got._row_r == want._row_r
    assert got._col_g == want._col_g
    assert got._col_r == want._col_r
    assert got._edges == want._edges


def _assert_snapshot_matches_reference(ref: StateMatrix) -> None:
    """The plane route against the per-cell route, both directions."""
    fast = BitMatrix.from_matrix(ref)
    envelope = fast.snapshot_state()
    expected = ref.snapshot_state()
    assert envelope["state"] == expected["state"]
    assert envelope["state_hash"] == expected["state_hash"]
    restored = BitMatrix.restore_state(envelope)
    _assert_same_planes(restored, fast)
    assert restored.resource_names == fast.resource_names
    assert restored.process_names == fast.process_names
    assert StateMatrix.restore_state(envelope) == ref


def test_snapshot_rows_every_legal_3x3_state():
    from repro.experiments.exhaustive_bound import enumerate_states

    count = 0
    for ref in enumerate_states(3, 3):
        _assert_snapshot_matches_reference(ref)
        count += 1
    assert count == 20 ** 3


@pytest.mark.parametrize("m,n", PLANE_SHAPES,
                         ids=[f"{m}x{n}" for m, n in PLANE_SHAPES])
def test_snapshot_rows_seeded_widths(m, n):
    for grant, request in ((0.6, 0.3), (1.0, 0.9), (0.0, 0.05)):
        tag = f"planes/{m}x{n}/g{grant}/r{request}"
        rag = random_state(m, n, grant_fraction=grant,
                           request_fraction=request,
                           rng=random.Random(_seed(tag)))
        _assert_snapshot_matches_reference(StateMatrix.from_rag(rag))


def test_snapshot_rows_keep_custom_names():
    rag = random_state(5, 9, rng=random.Random(_seed("planes/names")))
    ref = StateMatrix.from_rag(rag)
    ref.resource_names = [f"lock{s}" for s in range(ref.m)]
    ref.process_names = [f"task{t}" for t in range(ref.n)]
    _assert_snapshot_matches_reference(ref)


def test_from_rows_zero_token_aliases_empty():
    rows = ["g 0 r", "0 . 0", "r r g"]
    fast = BitMatrix.from_rows(rows)
    _assert_same_planes(
        fast, BitMatrix.from_matrix(StateMatrix.from_rows(rows)))
    assert fast.snapshot_state()["state"]["rows"] == \
        ["g . r", ". . .", "r r g"]


@pytest.mark.parametrize("rows", [
    ["r\tr  g", " g . r", "g . r "],
    ["g \t", "r"],            # a tab where the single-spaced form has a cell
    ["g\u3000r", ". ."],      # any str.split() whitespace separates
    ["g", "r", "0"],
], ids=repr)
def test_from_rows_other_whitespace_matches_reference(rows):
    _assert_same_planes(BitMatrix.from_rows(rows),
                        BitMatrix.from_matrix(StateMatrix.from_rows(rows)))


@pytest.mark.parametrize("rows", [
    ["g x ."],
    ["g . .", "g gr ."],
    ["g .", "g . x"],          # a bad token outranks ragged rows
    ["g _ ."],                 # int() would read "_" as a separator
    ["1 0 0"],
    ["+0 ."],
    ["g . .", "g ."],
    ["g .", "g . ."],
    [],
    [""],
    ["", ""],
    [". g", ""],
], ids=repr)
def test_from_rows_error_parity(rows):
    with pytest.raises(ResourceProtocolError) as ref_err:
        StateMatrix.from_rows(list(rows))
    with pytest.raises(ResourceProtocolError) as fast_err:
        BitMatrix.from_rows(iter(rows))
    assert str(fast_err.value) == str(ref_err.value)


def test_restore_refuses_bad_rows_like_the_reference():
    from repro.checkpoint.protocol import snapshot_envelope
    from repro.errors import CheckpointError

    def envelope(rows, processes=("p1", "p2")):
        return snapshot_envelope(BitMatrix.SNAPSHOT_KIND, {
            "resource_names": [f"q{s + 1}" for s in range(len(rows))],
            "process_names": list(processes),
            "rows": rows,
        })

    for rows in (["g ?", ". ."], ["g .", ". . r"], []):
        bad = envelope(rows)
        with pytest.raises(ResourceProtocolError) as ref_err:
            StateMatrix.restore_state(bad)
        with pytest.raises(ResourceProtocolError) as fast_err:
            BitMatrix.restore_state(bad)
        assert str(fast_err.value) == str(ref_err.value)
    short = envelope(["g .", ". r"], processes=("p1",))
    with pytest.raises(CheckpointError, match="process_names length"):
        BitMatrix.restore_state(short)
    torn = envelope(["g .", ". r"])
    torn["state"]["rows"][1] = "r r"
    with pytest.raises(CheckpointError, match="state_hash mismatch"):
        BitMatrix.restore_state(torn)


@pytest.mark.parametrize("m,n", [(1, 1), (4, 9), (9, 4), (64, 64),
                                 (65, 65), (128, 128)])
def test_from_rag_matches_reference_route(m, n):
    for grant in (0.3, 0.6, 1.0):
        tag = f"from-rag/{m}x{n}/g{grant}"
        rag = random_state(m, n, grant_fraction=grant,
                           request_fraction=0.3,
                           rng=random.Random(_seed(tag)))
        fast = BitMatrix.from_rag(rag)
        reference = BitMatrix.from_matrix(StateMatrix.from_rag(rag))
        assert fast == reference
        _assert_same_planes(fast, reference)


def test_from_rag_refuses_what_the_setters_refuse():
    class TwoHolders(RAG):
        def grant_edges(self):
            yield ("q1", "p1")
            yield ("q1", "p2")

    class RepeatedRequest(RAG):
        def request_edges(self):
            yield ("p1", "q1")
            yield ("p1", "q1")

    for cls in (TwoHolders, RepeatedRequest):
        rag = cls(["p1", "p2"], ["q1", "q2"])
        with pytest.raises(ResourceProtocolError) as ref_err:
            StateMatrix.from_rag(rag)
        with pytest.raises(ResourceProtocolError) as fast_err:
            BitMatrix.from_rag(rag)
        assert str(fast_err.value) == str(ref_err.value)


# -- exhaustive small scope: the one kernel against the oracle ------------
#
# The frontier sweep skips rows and columns no clear touched, so a bug
# there shows only on particular state shapes.  Rather than sample, check
# every legal state of the small units, plus the worst-case chains that
# take the most passes.


def _assert_reduces_like_reference(ref: StateMatrix) -> None:
    expected = terminal_reduction(ref, backend=REFERENCE_BACKEND)
    fast = BitMatrix.from_matrix(ref)
    assert fast.reduce() == (expected.iterations, expected.passes)
    # Rebuilding from the reference residual's cells gives row planes,
    # transposes that match them and the edge count: all must agree.
    _assert_same_planes(fast, BitMatrix.from_matrix(expected.matrix))


@pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (4, 2)])
def test_reduce_every_legal_small_state(m, n):
    count = 0
    for ref in enumerate_states(m, n):
        _assert_reduces_like_reference(ref)
        count += 1
    assert count == {(3, 3): 8000, (2, 4): 2304, (4, 2): 4096}[(m, n)]


def test_reduce_worst_case_chains():
    for m in range(1, 25):
        for n in range(1, 25):
            _assert_reduces_like_reference(
                StateMatrix.from_rag(worst_case_state(m, n)))

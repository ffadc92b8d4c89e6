"""The Deadlock Detection Unit hardware model (Sections 4.2.2-4.2.3).

The DDU is an m x n array of 2-bit matrix cells plus two weight vectors
(one ``(tau, phi)`` pair per row and per column) and one decide cell
(Figure 13).  Each hardware cycle it evaluates — *in parallel* — the
bit-wise-OR, XOR and AND reductions of Equations 3-6 over the whole
matrix, then either clears every terminal row/column (one terminal
reduction step, Definition 12) or, if no terminal flags are set, latches
the decide-cell output ``D`` of Equation 7.

This model executes exactly the per-cycle logic of the RTL, so the
iteration counts it reports are the hardware's, not an estimate.  The
latency model is one bus cycle per evaluation pass
(:data:`repro.calibration.DDU_CYCLES_PER_ITERATION`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro import calibration
from repro.errors import ConfigurationError
from repro.obs import NULL_OBS, Observability
from repro.rag.bitmatrix import (
    AnyStateMatrix,
    BitMatrix,
    as_backend_matrix,
    matrix_class,
    resolve_backend,
)
from repro.rag.graph import RAG
from repro.rag.matrix import CellState


def iteration_bound(m: int, n: int) -> int:
    """Upper bound on reduction iterations: max(2, 2*min(m, n) - 3).

    The proven O(min(m, n)) bound of reference [29] is
    ``2*min(m, n) - 3``; at min = 2 the true worst case is 2 (Table 1's
    own 2x3 row reports 2), hence the floor.  A 1-row or 1-column
    matrix always reduces in a single iteration (every edge sits in a
    trivially terminal row/column).  A unit terminates within this many
    iterations plus one final no-terminal evaluation pass.
    """
    smallest = min(m, n)
    if smallest == 1:
        return 1
    return max(2, 2 * smallest - 3)


@dataclass(frozen=True)
class WeightCell:
    """One weight cell: terminal flag tau and connect flag phi."""

    terminal: bool
    connect: bool


@dataclass(frozen=True)
class HardwareDetection:
    """Result latched by the decide cell after a detection run."""

    deadlock: bool
    #: Terminal reduction steps performed (k of Definition 13).
    iterations: int
    #: Evaluation passes = iterations + the final no-terminal pass.
    passes: int
    #: Modelled latency in bus cycles.
    cycles: float
    residual: AnyStateMatrix


class DDU:
    """A Deadlock Detection Unit synthesized for ``m`` x ``n``.

    The unit's register file *is* the system state matrix: the RTOS (or
    the enclosing DAU) writes request/grant edges through
    :meth:`set_request` / :meth:`set_grant` / :meth:`clear_edge`, and
    :meth:`detect` runs the parallel reduction on a working copy,
    leaving the registered state intact — exactly how the RTL separates
    the register file from the reduction lattice.
    """

    def __init__(self, num_resources: int, num_processes: int,
                 obs: Optional[Observability] = None,
                 backend: Optional[str] = None) -> None:
        if num_resources < 1 or num_processes < 1:
            raise ConfigurationError("DDU needs at least a 1x1 matrix")
        self.m = num_resources
        self.n = num_processes
        #: Matrix representation the register file and reductions use
        #: (see :mod:`repro.rag.bitmatrix`).
        self.backend = resolve_backend(backend)
        self.matrix: AnyStateMatrix = matrix_class(self.backend)(
            num_resources, num_processes)
        #: Fault injector hook (:mod:`repro.faults`); ``None`` keeps
        #: every hook site to a single attribute test.
        self.faults = None
        #: Previous detection, re-published by a stale-status fault.
        self._last_result: Optional[HardwareDetection] = None
        #: Detection invocations since construction (status counter).
        self.invocations = 0
        #: Total modelled busy cycles since construction.
        self.busy_cycles = 0.0
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_invocations = metrics.counter(
            "ddu.invocations", "detection runs")
        self._m_iterations = metrics.histogram(
            "ddu.iterations", "terminal-reduction iterations per run",
            bounds=(0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16))
        self._m_cycles = metrics.histogram(
            "ddu.cycles", "modelled latency per detection run")
        self._m_fast_detections = metrics.counter(
            "matrix.fastpath.detections",
            "detection runs executed on the bitmask kernel")
        self._m_fast_passes = metrics.counter(
            "matrix.fastpath.passes",
            "bitmask evaluation passes (O(m+n) each)")
        self._m_fast_cleared = metrics.counter(
            "matrix.fastpath.cleared_edges",
            "edges removed by bitmask terminal reduction")

    # -- sizing -----------------------------------------------------------

    @property
    def iteration_bound(self) -> int:
        """:func:`iteration_bound` for this unit's ``m x n``."""
        return iteration_bound(self.m, self.n)

    # -- register-file interface ----------------------------------------------

    def load(self, source: Union[RAG, AnyStateMatrix]) -> None:
        """Latch a complete state into the register file."""
        matrix = as_backend_matrix(source, self.backend)
        if (matrix.m, matrix.n) != (self.m, self.n):
            raise ConfigurationError(
                f"state is {matrix.m}x{matrix.n}, unit is {self.m}x{self.n}")
        if self.faults is not None:
            from repro.faults.injector import force_cell
            for spec in self.faults.fire("ddu.command"):
                if spec.kind == "drop":
                    # The command write is lost on the port; the
                    # register file keeps whatever it held before.
                    return
                if spec.kind == "corrupt":
                    force_cell(matrix,
                               int(spec.params.get("row", 0)) % self.m,
                               int(spec.params.get("col", 0)) % self.n,
                               str(spec.params.get("value", "r")))
        self.matrix = matrix

    def respond(self) -> bool:
        """Poll the unit's ready line (False = the unit is hung)."""
        if self.faults is not None:
            for spec in self.faults.fire("ddu.hang"):
                if spec.kind == "hang":
                    return False
        return True

    def set_request(self, resource: int, process: int) -> None:
        self.matrix.set_request(resource, process)

    def set_grant(self, resource: int, process: int) -> None:
        self.matrix.set_grant(resource, process)

    def clear_edge(self, resource: int, process: int) -> None:
        self.matrix.clear(resource, process)

    def cell(self, resource: int, process: int) -> CellState:
        return self.matrix.get(resource, process)

    # -- weight vectors (Part 2 of Figure 13) ------------------------------------

    def row_weights(self, matrix: Optional[AnyStateMatrix] = None
                    ) -> list[WeightCell]:
        """The row weight vector W^r of Equation 9."""
        matrix = matrix if matrix is not None else self.matrix
        return [WeightCell(matrix.row_terminal(s), matrix.row_connect(s))
                for s in range(self.m)]

    def column_weights(self, matrix: Optional[AnyStateMatrix] = None
                       ) -> list[WeightCell]:
        """The column weight vector W^c of Equation 8."""
        matrix = matrix if matrix is not None else self.matrix
        return [WeightCell(matrix.column_terminal(t), matrix.column_connect(t))
                for t in range(self.n)]

    # -- detection -----------------------------------------------------------

    def detect(self) -> HardwareDetection:
        """Run the parallel reduction to completion (Algorithm 1 + 2).

        One evaluation pass per hardware cycle: compute all weight cells
        in parallel; while any terminal flag is set (T_iter of Equation
        5), clear the flagged rows/columns and go again; once T_iter is
        0 the decide cell latches D (Equation 7).
        """
        work = self.matrix.copy()
        if self.faults is not None:
            from repro.faults.injector import force_cell
            for spec in self.faults.fire("ddu.matrix"):
                # transient and stuck differ only in duration: both
                # upset one 2-bit cell of the reduction lattice.
                force_cell(work,
                           int(spec.params.get("row", 0)) % self.m,
                           int(spec.params.get("col", 0)) % self.n,
                           str(spec.params.get("value", "r")))
        fastpath = isinstance(work, BitMatrix)
        if fastpath:
            # At the fixpoint no terminal flags remain, so the decide
            # cell's OR-of-connect-flags is 1 iff any edge survived —
            # deadlock reduces to a non-empty residual.
            edges_before = work.edge_count
            iterations, passes = work.reduce()
            deadlock = not work.is_empty()
        else:
            iterations = 0
            passes = 0
            while True:
                passes += 1
                rows = self.row_weights(work)
                cols = self.column_weights(work)
                t_iter = (any(w.terminal for w in rows)
                          or any(w.terminal for w in cols))
                if not t_iter:
                    deadlock = (any(w.connect for w in rows)
                                or any(w.connect for w in cols))
                    break
                for s, w in enumerate(rows):
                    if w.terminal:
                        work.clear_row(s)
                for t, w in enumerate(cols):
                    if w.terminal:
                        work.clear_column(t)
                iterations += 1
        cycles = (passes * calibration.DDU_CYCLES_PER_ITERATION
                  + calibration.DDU_FIXED_CYCLES)
        self.invocations += 1
        self.busy_cycles += cycles
        if self.obs.enabled:
            self._m_invocations.inc()
            self._m_iterations.observe(iterations)
            self._m_cycles.observe(cycles)
            if fastpath:
                self._m_fast_detections.inc()
                self._m_fast_passes.inc(passes)
                self._m_fast_cleared.inc(edges_before - work.edge_count)
        result = HardwareDetection(
            deadlock=deadlock,
            iterations=iterations,
            passes=passes,
            cycles=cycles,
            residual=work,
        )
        if self.faults is not None:
            for spec in self.faults.fire("ddu.status"):
                if spec.kind == "stale" and self._last_result is not None:
                    stale = self._last_result
                    self._last_result = result
                    return stale
        self._last_result = result
        return result

    # -- checkpoint protocol ----------------------------------------------------

    SNAPSHOT_KIND = "deadlock.ddu"

    def snapshot_state(self) -> dict:
        """Versioned, hashed snapshot of the register file and counters.

        Captures the latched matrix, the status counters, and the
        previous detection (which a ``ddu.status`` stale fault would
        republish), so a restored unit answers the next command exactly
        as the original would have.
        """
        from repro.checkpoint.protocol import snapshot_envelope
        last = self._last_result
        last_state = None
        if last is not None:
            last_state = {
                "deadlock": last.deadlock,
                "iterations": last.iterations,
                "passes": last.passes,
                "cycles": last.cycles,
                "residual": last.residual.snapshot_state(),
            }
        return snapshot_envelope(self.SNAPSHOT_KIND, {
            "m": self.m,
            "n": self.n,
            "backend": self.backend,
            "matrix": self.matrix.snapshot_state(),
            "invocations": self.invocations,
            "busy_cycles": self.busy_cycles,
            "last_result": last_state,
        })

    @classmethod
    def restore_state(cls, envelope: dict,
                      obs: Optional[Observability] = None) -> "DDU":
        """Rebuild a DDU; the matrix is written to the register file
        directly (bypassing :meth:`load`, which fires command-fault
        hooks — restoring must not consume fault-plan visits)."""
        from repro.checkpoint.protocol import open_envelope
        state = open_envelope(envelope, kind=cls.SNAPSHOT_KIND)
        unit = cls(state["m"], state["n"], obs=obs,
                   backend=state["backend"])
        unit.matrix = matrix_class(unit.backend).restore_state(
            state["matrix"])
        unit.invocations = state["invocations"]
        unit.busy_cycles = state["busy_cycles"]
        last = state["last_result"]
        if last is not None:
            unit._last_result = HardwareDetection(
                deadlock=last["deadlock"],
                iterations=last["iterations"],
                passes=last["passes"],
                cycles=last["cycles"],
                residual=matrix_class(unit.backend).restore_state(
                    last["residual"]),
            )
        return unit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DDU {self.m}x{self.n} edges={self.matrix.edge_count} "
                f"invocations={self.invocations}>")

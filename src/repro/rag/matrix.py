"""State-matrix encoding of a RAG (Definition 6, Section 4.2.2).

Rows are resources ``q_s`` (s = 1..m), columns are processes ``p_t``
(t = 1..n).  Each cell is one of three states encoded as the 2-bit pair
``(alpha_r, alpha_g)`` the DDU hardware uses:

* ``10`` — request edge ``r`` (process t waits for resource s);
* ``01`` — grant edge ``g`` (resource s granted to process t);
* ``00`` — no edge.

The matrix also exposes the row/column logic reductions of Equations
3-6 (bit-wise OR, XOR terminal flags, AND connect flags) so the DDU
model can execute exactly the hardware's per-iteration computation.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

from repro.errors import ResourceProtocolError
from repro.rag.graph import RAG


class CellState(enum.IntEnum):
    """Ternary cell value with the hardware's 2-bit encoding."""

    EMPTY = 0b00
    GRANT = 0b01
    REQUEST = 0b10

    @property
    def r_bit(self) -> int:
        return (self.value >> 1) & 1

    @property
    def g_bit(self) -> int:
        return self.value & 1

    def symbol(self) -> str:
        return {CellState.EMPTY: ".",
                CellState.GRANT: "g",
                CellState.REQUEST: "r"}[self]


#: Both matrix backends accept each other's snapshots: the payload is
#: representation-independent (names + text rows), only the envelope
#: ``kind`` differs — so converting between backends preserves
#: ``state_hash``.
MATRIX_SNAPSHOT_KINDS = ("rag.matrix", "rag.bitmatrix")


def open_matrix_envelope(envelope: dict) -> dict:
    """Validate a matrix envelope of either backend kind."""
    from repro.checkpoint.protocol import envelope_kind, open_envelope
    from repro.errors import CheckpointError
    kind = envelope_kind(envelope)
    if kind not in MATRIX_SNAPSHOT_KINDS:
        raise CheckpointError(
            f"expected a matrix snapshot, got kind {kind!r}")
    state = open_envelope(envelope)
    if len(state["resource_names"]) != len(state["rows"]):
        raise CheckpointError("matrix snapshot: resource_names length != m")
    return state


class StateMatrix:
    """An m x n matrix of :class:`CellState` cells.

    ``m`` is the number of resources (rows), ``n`` the number of
    processes (columns) — matching the paper's ``M_ij`` layout.
    """

    SNAPSHOT_KIND = "rag.matrix"

    def __init__(self, num_resources: int, num_processes: int,
                 resource_names: Optional[Iterable[str]] = None,
                 process_names: Optional[Iterable[str]] = None) -> None:
        if num_resources < 1 or num_processes < 1:
            raise ResourceProtocolError(
                "matrix dimensions must be at least 1x1")
        self.m = num_resources
        self.n = num_processes
        self.resource_names = (list(resource_names) if resource_names
                               else [f"q{s + 1}" for s in range(self.m)])
        self.process_names = (list(process_names) if process_names
                              else [f"p{t + 1}" for t in range(self.n)])
        if len(self.resource_names) != self.m:
            raise ResourceProtocolError("resource_names length != m")
        if len(self.process_names) != self.n:
            raise ResourceProtocolError("process_names length != n")
        self._cells: list[list[CellState]] = [
            [CellState.EMPTY] * self.n for _ in range(self.m)]
        #: Non-empty cells, maintained incrementally by every mutator so
        #: ``is_empty()`` — consulted once per reduction pass — is O(1).
        self._edge_count = 0
        #: Per-row grant columns (normally 0 or 1 entries; text-loaded
        #: degenerate states may hold more), so ``set_grant`` enforces
        #: the single-unit rule without an O(n) row scan.
        self._grant_cols: list[set[int]] = [set() for _ in range(self.m)]

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rag(cls, rag: RAG) -> "StateMatrix":
        """Map a RAG to its state matrix (lines 2-6 of Algorithm 2)."""
        matrix = cls(rag.num_resources, rag.num_processes,
                     resource_names=rag.resources,
                     process_names=rag.processes)
        for p, q in rag.request_edges():
            matrix.set_request(rag.resource_index(q), rag.process_index(p))
        for q, p in rag.grant_edges():
            matrix.set_grant(rag.resource_index(q), rag.process_index(p))
        return matrix

    @classmethod
    def from_rows(cls, rows: Iterable[str]) -> "StateMatrix":
        """Build from compact text rows, e.g. ``["g r .", "r g ."]``.

        Cell tokens: ``g`` grant, ``r`` request, ``.``/``0`` empty.
        """
        parsed: list[list[CellState]] = []
        for row in rows:
            tokens = row.split()
            cells = []
            for token in tokens:
                if token == "g":
                    cells.append(CellState.GRANT)
                elif token == "r":
                    cells.append(CellState.REQUEST)
                elif token in (".", "0"):
                    cells.append(CellState.EMPTY)
                else:
                    raise ResourceProtocolError(f"bad cell token {token!r}")
            parsed.append(cells)
        if not parsed:
            raise ResourceProtocolError("no rows given")
        return cls.from_cells(parsed)

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[CellState]]) -> "StateMatrix":
        """Build from an m x n grid of :class:`CellState` values."""
        parsed = [list(row) for row in cells]
        if not parsed:
            raise ResourceProtocolError("no rows given")
        widths = {len(row) for row in parsed}
        if len(widths) != 1:
            raise ResourceProtocolError("ragged rows")
        matrix = cls(len(parsed), widths.pop())
        matrix._install_cells(parsed)
        return matrix

    @classmethod
    def from_matrix(cls, other: "StateMatrix") -> "StateMatrix":
        """Convert from anything speaking the cell protocol (e.g. a
        :class:`~repro.rag.bitmatrix.BitMatrix`)."""
        matrix = cls(other.m, other.n,
                     resource_names=other.resource_names,
                     process_names=other.process_names)
        matrix._install_cells([[other.get(s, t) for t in range(other.n)]
                               for s in range(other.m)])
        return matrix

    def _install_cells(self, cells: list[list[CellState]]) -> None:
        """Adopt a cell grid wholesale, rebuilding the derived caches."""
        self._cells = cells
        self._edge_count = sum(1 for row in cells for cell in row
                               if cell is not CellState.EMPTY)
        self._grant_cols = [
            {t for t, cell in enumerate(row) if cell is CellState.GRANT}
            for row in cells]

    def to_rag(self) -> RAG:
        """Inverse mapping back to a RAG (single-grant rule enforced)."""
        rag = RAG(self.process_names, self.resource_names)
        for s in range(self.m):
            for t in range(self.n):
                cell = self._cells[s][t]
                if cell is CellState.REQUEST:
                    rag.add_request(self.process_names[t],
                                    self.resource_names[s])
                elif cell is CellState.GRANT:
                    rag.grant(self.resource_names[s], self.process_names[t])
        return rag

    def copy(self) -> "StateMatrix":
        clone = StateMatrix(self.m, self.n,
                            resource_names=self.resource_names,
                            process_names=self.process_names)
        clone._cells = [list(row) for row in self._cells]
        clone._edge_count = self._edge_count
        clone._grant_cols = [set(cols) for cols in self._grant_cols]
        return clone

    # -- checkpoint protocol -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Versioned, hashed snapshot (see :mod:`repro.checkpoint`).

        Rendered one cell at a time: this is the reference payload the
        :class:`~repro.rag.bitmatrix.BitMatrix` plane rendering must
        reproduce byte for byte.
        """
        from repro.checkpoint.protocol import snapshot_envelope
        rows = [" ".join(cell.symbol() for cell in row)
                for row in self._cells]
        return snapshot_envelope(self.SNAPSHOT_KIND, {
            "resource_names": list(self.resource_names),
            "process_names": list(self.process_names),
            "rows": rows,
        })

    @classmethod
    def restore_state(cls, envelope: dict) -> "StateMatrix":
        """Rebuild from a matrix snapshot of either backend kind."""
        state = open_matrix_envelope(envelope)
        matrix = cls.from_rows(state["rows"])
        matrix.resource_names = list(state["resource_names"])
        matrix.process_names = list(state["process_names"])
        if len(matrix.process_names) != matrix.n:
            from repro.errors import CheckpointError
            raise CheckpointError(
                "matrix snapshot: process_names length != n")
        return matrix

    # -- cell access -------------------------------------------------------------

    def get(self, s: int, t: int) -> CellState:
        return self._cells[s][t]

    def set_request(self, s: int, t: int) -> None:
        if self._cells[s][t] is not CellState.EMPTY:
            raise ResourceProtocolError(
                f"cell ({s},{t}) already {self._cells[s][t].name}")
        self._cells[s][t] = CellState.REQUEST
        self._edge_count += 1

    def set_grant(self, s: int, t: int) -> None:
        grants = self._grant_cols[s]
        if t in grants:
            raise ResourceProtocolError(f"cell ({s},{t}) already GRANT")
        if grants:
            raise ResourceProtocolError(
                f"resource row {s} already granted to column {min(grants)} "
                "(single-unit rule)")
        if self._cells[s][t] is CellState.EMPTY:
            self._edge_count += 1
        # A pending request may be promoted to a grant in place.
        self._cells[s][t] = CellState.GRANT
        grants.add(t)

    def clear(self, s: int, t: int) -> None:
        if self._cells[s][t] is not CellState.EMPTY:
            self._edge_count -= 1
            self._grant_cols[s].discard(t)
        self._cells[s][t] = CellState.EMPTY

    def row(self, s: int) -> tuple[CellState, ...]:
        return tuple(self._cells[s])

    def column(self, t: int) -> tuple[CellState, ...]:
        return tuple(self._cells[s][t] for s in range(self.m))

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def is_empty(self) -> bool:
        return self._edge_count == 0

    # -- hardware reductions (Equations 3-6) ---------------------------------------

    def row_bwo(self, s: int) -> tuple[int, int]:
        """Bit-wise OR across row ``s``: (r_or, g_or)  (Equation 3)."""
        r_or = g_or = 0
        for cell in self._cells[s]:
            r_or |= cell.r_bit
            g_or |= cell.g_bit
        return r_or, g_or

    def column_bwo(self, t: int) -> tuple[int, int]:
        """Bit-wise OR down column ``t``: (r_or, g_or)  (Equation 3)."""
        r_or = g_or = 0
        for s in range(self.m):
            cell = self._cells[s][t]
            r_or |= cell.r_bit
            g_or |= cell.g_bit
        return r_or, g_or

    def row_terminal(self, s: int) -> bool:
        """Terminal flag tau for row ``s`` (Equation 4 / Definition 7)."""
        r_or, g_or = self.row_bwo(s)
        return bool(r_or ^ g_or)

    def column_terminal(self, t: int) -> bool:
        """Terminal flag tau for column ``t`` (Equation 4 / Definition 8)."""
        r_or, g_or = self.column_bwo(t)
        return bool(r_or ^ g_or)

    def row_connect(self, s: int) -> bool:
        """Connect flag phi for row ``s`` (Equation 6)."""
        r_or, g_or = self.row_bwo(s)
        return bool(r_or & g_or)

    def column_connect(self, t: int) -> bool:
        """Connect flag phi for column ``t`` (Equation 6)."""
        r_or, g_or = self.column_bwo(t)
        return bool(r_or & g_or)

    def terminal_rows(self) -> list[int]:
        """On-set of terminal rows, the function T_r (Definition 9)."""
        return [s for s in range(self.m)
                if self.row_terminal(s) and self._row_nonempty(s)]

    def terminal_columns(self) -> list[int]:
        """On-set of terminal columns, the function T_c (Definition 10)."""
        return [t for t in range(self.n)
                if self.column_terminal(t) and self._column_nonempty(t)]

    def clear_row(self, s: int) -> None:
        row = self._cells[s]
        for t in range(self.n):
            if row[t] is not CellState.EMPTY:
                self._edge_count -= 1
                row[t] = CellState.EMPTY
        self._grant_cols[s].clear()

    def clear_column(self, t: int) -> None:
        for s in range(self.m):
            if self._cells[s][t] is not CellState.EMPTY:
                self._edge_count -= 1
                self._grant_cols[s].discard(t)
                self._cells[s][t] = CellState.EMPTY

    def _row_nonempty(self, s: int) -> bool:
        return any(cell is not CellState.EMPTY for cell in self._cells[s])

    def _column_nonempty(self, t: int) -> bool:
        return any(self._cells[s][t] is not CellState.EMPTY
                   for s in range(self.m))

    # -- comparisons / rendering -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateMatrix):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) \
            and self._cells == other._cells

    def render(self) -> str:
        """Figure 11-style text rendering with node labels."""
        col_width = max([len(p) for p in self.process_names] + [1])
        header = " " * 6 + " ".join(
            p.rjust(col_width) for p in self.process_names)
        lines = [header]
        for s in range(self.m):
            cells = " ".join(self._cells[s][t].symbol().rjust(col_width)
                             for t in range(self.n))
            lines.append(f"{self.resource_names[s]:<6s}{cells}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StateMatrix {self.m}x{self.n} edges={self.edge_count}>"

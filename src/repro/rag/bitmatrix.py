"""Bit-packed state matrix: the DDU's wide-OR lattice as Python ints.

:class:`~repro.rag.matrix.StateMatrix` models Definition 6 one cell
object at a time, which makes every Equation 3-6 reduction an O(m*n)
Python loop.  The hardware evaluates those reductions *in parallel*
each cycle — an m-wide / n-wide OR tree per row and column — and the
closest software analogue is a word-parallel bitset: store each row's
request plane and grant plane as one n-bit integer, keep the column
transposes as m-bit integers, and the hardware reductions collapse to
mask tests:

* row/column bit-wise OR (Equation 3) — ``mask != 0``;
* terminal flag tau (Equation 4)      — ``bool(r) ^ bool(g)``;
* connect flag phi (Equation 6)       — ``bool(r) and bool(g)``;
* clearing a terminal row/column (Definition 12) — zero two words and
  patch the transposes of the set bits.

The edge count is maintained incrementally from ``int.bit_count()``
deltas, so ``is_empty()`` never rescans the plane.
:meth:`BitMatrix.reduce` runs Algorithm 1 as a *frontier sweep*: the
first pass scans every row and column, each later pass only the rows
and columns a clear touched, and each clear zeroes the terminal words
outright and patches the touched transposes with one ``&= ~mask``
each.  That is what lets the campaign presets, scaling surveys and the
service run 64x64-128x128 matrices.

:class:`BitMatrix` speaks the full :class:`StateMatrix` protocol
(constructors, cell access, Equations 3-6, rendering, equality against
either representation), so every consumer — PDDA, the DDU/DAU models,
serialization, the experiments — can hold either type.  The *backend
knob* at the bottom picks which one the hot paths build: ``"bitmask"``
(the default) or ``"reference"``, per call through ``backend=``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.checkpoint.protocol import snapshot_envelope
from repro.errors import CheckpointError, ConfigurationError, \
    ResourceProtocolError
from repro.rag.graph import RAG
from repro.rag.matrix import CellState, StateMatrix, open_matrix_envelope

#: The word-parallel integer-bitmask backend (the fast path).
FAST_BACKEND = "bitmask"
#: The per-cell :class:`StateMatrix` oracle.
REFERENCE_BACKEND = "reference"
BACKENDS = (FAST_BACKEND, REFERENCE_BACKEND)

# -- text rows <-> bit planes ----------------------------------------------------
#
# Snapshot rows are ``"g r . ..."`` text.  Both directions go through
# one ``0``/``1`` digit string per plane, so the per-cell work runs in
# C string/int routines instead of one Python call per cell.

#: The four cell tokens :meth:`StateMatrix.from_rows` accepts.
_CELL_TOKENS = frozenset("gr.0")
#: Deletes every valid token: whatever survives is a bad one.
_DROP_TOKENS = str.maketrans("", "", "gr.0")
#: A cell token as its grant-plane / request-plane digit.
_GRANT_DIGITS = str.maketrans("gr.0", "1000")
_REQUEST_DIGITS = str.maketrans("gr.0", "0100")
#: Binary digits are ASCII 0x30/0x31, so per byte ``grant + 2 *
#: request`` is 0x90 plus the cell's 2-bit code (r high, g low, as in
#: Definition 6) — no carry crosses a byte.  0x93 cannot occur (the
#: planes are disjoint); it reads as ``r``, the precedence of ``get``.
_CELL_SYMBOLS = bytes.maketrans(b"\x90\x91\x92\x93", b".grr")


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


class BitMatrix:
    """An m x n state matrix stored as per-row/per-column bit vectors.

    ``m`` is the number of resources (rows), ``n`` the number of
    processes (columns) — the paper's ``M_ij`` layout, identical to
    :class:`StateMatrix`.  Cell ``(s, t)`` is a request edge iff bit
    ``t`` of ``_row_r[s]`` is set, a grant edge iff bit ``t`` of
    ``_row_g[s]`` is set; the planes are disjoint by construction.
    """

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
        self._row_r: list[int] = [0] * self.m
        self._row_g: list[int] = [0] * self.m
        self._col_r: list[int] = [0] * self.n
        self._col_g: list[int] = [0] * self.n
        self._edges = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rag(cls, rag: RAG) -> "BitMatrix":
        """Map a RAG to its state matrix (lines 2-6 of Algorithm 2)."""
        matrix = cls(rag.num_resources, rag.num_processes,
                     resource_names=rag.resources,
                     process_names=rag.processes)
        row_of = {q: s for s, q in enumerate(matrix.resource_names)}
        column_of = {p: t for t, p in enumerate(matrix.process_names)}
        row_r, col_r = matrix._row_r, matrix._col_r
        for p, q in rag.request_edges():
            s, t = row_of[q], column_of[p]
            bit = 1 << t
            if row_r[s] & bit:
                raise ResourceProtocolError(f"cell ({s},{t}) already REQUEST")
            row_r[s] |= bit
            col_r[t] |= 1 << s
            matrix._edges += 1
        # At most one grant per row, so the checked setter is cheap.
        for q, p in rag.grant_edges():
            matrix.set_grant(row_of[q], column_of[p])
        return matrix

    @classmethod
    def from_rows(cls, rows: Iterable[str]) -> "BitMatrix":
        """Build from compact text rows, e.g. ``["g r .", "r g ."]``.

        Accepts and refuses exactly what :meth:`StateMatrix.from_rows`
        does, with the same messages in the same order: the first bad
        token, then no rows, then ragged rows.
        """
        row_cells = []
        for row in rows:
            cells = row[::2]
            if (row[1::2] != " " * (len(cells) - 1)
                    or cells.translate(_DROP_TOKENS)):
                # Not the single-spaced form snapshots write: split on
                # any whitespace, and find the bad token if there is one.
                tokens = row.split()
                cells = "".join(tokens)
                if (len(cells) != len(tokens)
                        or cells.translate(_DROP_TOKENS)):
                    bad = next(token for token in tokens
                               if token not in _CELL_TOKENS)
                    raise ResourceProtocolError(f"bad cell token {bad!r}")
            row_cells.append(cells)
        if not row_cells:
            raise ResourceProtocolError("no rows given")
        widths = {len(cells) for cells in row_cells}
        if len(widths) != 1:
            raise ResourceProtocolError("ragged rows")
        matrix = cls(len(row_cells), widths.pop())
        matrix._load_cells("".join(row_cells))
        return matrix

    def _load_cells(self, cells: str) -> None:
        """Set the planes from row-major cell tokens, column 0 first."""
        m, n = self.m, self.n
        # Reversed, the text runs from the last row's last column, so
        # every row slice and every stride-n column slice reads most
        # significant digit first, as ``int(digits, 2)`` wants.
        backwards = cells[::-1]
        for table, rows, columns in (
                (_GRANT_DIGITS, self._row_g, self._col_g),
                (_REQUEST_DIGITS, self._row_r, self._col_r)):
            digits = backwards.translate(table)
            rows[:] = [int(digits[lo:lo + n], 2)
                       for lo in range(0, m * n, n)][::-1]
            columns[:] = [int(digits[lo::n], 2) for lo in range(n)][::-1]
        self._edges = sum(map(int.bit_count, self._row_g + self._row_r))

    def _text_rows(self) -> list[str]:
        """Every row as ``"g r . ..."`` text, identical to the per-cell
        rendering of :class:`StateMatrix`."""
        m, n = self.m, self.n
        digits = f"0{n}b"
        # Last row first, each row's last column first: reversing the
        # summed bytes then lays the cells out row-major, column 0 first.
        grants = "".join([format(g, digits) for g in reversed(self._row_g)])
        requests = "".join([format(r, digits)
                            for r in reversed(self._row_r)])
        codes = (int.from_bytes(grants.encode(), "big")
                 + 2 * int.from_bytes(requests.encode(), "big"))
        spaced = bytearray(b" ") * (2 * m * n)
        spaced[::2] = codes.to_bytes(m * n, "big")[::-1].translate(
            _CELL_SYMBOLS)
        text = spaced.decode()
        return [text[lo:lo + 2 * n - 1] for lo in range(0, 2 * m * n, 2 * n)]

    @classmethod
    def from_matrix(cls, other: "AnyStateMatrix") -> "BitMatrix":
        """Convert from anything speaking the cell protocol.

        Writes the bit planes directly (no protocol checks), so even
        degenerate states representable by :meth:`StateMatrix.from_rows`
        convert faithfully.
        """
        matrix = cls(other.m, other.n,
                     resource_names=other.resource_names,
                     process_names=other.process_names)
        for s in range(other.m):
            sbit = 1 << s
            for t in range(other.n):
                cell = other.get(s, t)
                if cell is CellState.REQUEST:
                    matrix._row_r[s] |= 1 << t
                    matrix._col_r[t] |= sbit
                    matrix._edges += 1
                elif cell is CellState.GRANT:
                    matrix._row_g[s] |= 1 << t
                    matrix._col_g[t] |= sbit
                    matrix._edges += 1
        return matrix

    def to_rag(self) -> RAG:
        """Inverse mapping back to a RAG (single-grant rule enforced)."""
        rag = RAG(self.process_names, self.resource_names)
        for s in range(self.m):
            requests = self._row_r[s]
            while requests:
                low = requests & -requests
                t = low.bit_length() - 1
                rag.add_request(self.process_names[t],
                                self.resource_names[s])
                requests ^= low
            grants = self._row_g[s]
            while grants:
                low = grants & -grants
                t = low.bit_length() - 1
                rag.grant(self.resource_names[s], self.process_names[t])
                grants ^= low
        return rag

    def to_state_matrix(self) -> StateMatrix:
        """Convert to the per-cell reference representation."""
        return StateMatrix.from_matrix(self)

    def copy(self) -> "BitMatrix":
        clone = type(self)(self.m, self.n,
                           resource_names=self.resource_names,
                           process_names=self.process_names)
        clone._row_r = list(self._row_r)
        clone._row_g = list(self._row_g)
        clone._col_r = list(self._col_r)
        clone._col_g = list(self._col_g)
        clone._edges = self._edges
        return clone

    # -- checkpoint protocol -----------------------------------------------------

    SNAPSHOT_KIND = "rag.bitmatrix"

    def snapshot_state(self) -> dict:
        """Versioned, hashed snapshot.

        The payload is identical to the :class:`StateMatrix` payload for
        the same state — ``state_hash`` is representation-independent,
        so BitMatrix <-> StateMatrix conversions are hash-preserving.
        The rows are rendered from the bit planes, not cell by cell.
        """
        return snapshot_envelope(self.SNAPSHOT_KIND, {
            "resource_names": list(self.resource_names),
            "process_names": list(self.process_names),
            "rows": self._text_rows(),
        })

    @classmethod
    def restore_state(cls, envelope: dict) -> "BitMatrix":
        """Rebuild from a matrix snapshot of either backend kind."""
        state = open_matrix_envelope(envelope)
        matrix = cls.from_rows(state["rows"])
        matrix.resource_names = list(state["resource_names"])
        matrix.process_names = list(state["process_names"])
        if len(matrix.process_names) != matrix.n:
            raise CheckpointError(
                "matrix snapshot: process_names length != n")
        return matrix

    # -- cell access -------------------------------------------------------------

    def _span(self, index: int, size: int, axis: str) -> int:
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"{axis} index out of range")
        return index

    def get(self, s: int, t: int) -> CellState:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        bit = 1 << t
        if self._row_r[s] & bit:
            return CellState.REQUEST
        if self._row_g[s] & bit:
            return CellState.GRANT
        return CellState.EMPTY

    def set_request(self, s: int, t: int) -> None:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        existing = self.get(s, t)
        if existing is not CellState.EMPTY:
            raise ResourceProtocolError(
                f"cell ({s},{t}) already {existing.name}")
        self._row_r[s] |= 1 << t
        self._col_r[t] |= 1 << s
        self._edges += 1

    def set_grant(self, s: int, t: int) -> None:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        bit = 1 << t
        grants = self._row_g[s]
        if grants & bit:
            raise ResourceProtocolError(f"cell ({s},{t}) already GRANT")
        if grants:
            holder = (grants & -grants).bit_length() - 1
            raise ResourceProtocolError(
                f"resource row {s} already granted to column {holder} "
                "(single-unit rule)")
        if self._row_r[s] & bit:
            # A pending request may be promoted to a grant in place.
            self._row_r[s] &= ~bit
            self._col_r[t] &= ~(1 << s)
        else:
            self._edges += 1
        self._row_g[s] |= bit
        self._col_g[t] |= 1 << s

    def clear(self, s: int, t: int) -> None:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        bit = 1 << t
        sbit = 1 << s
        if (self._row_r[s] | self._row_g[s]) & bit:
            self._edges -= 1
        self._row_r[s] &= ~bit
        self._row_g[s] &= ~bit
        self._col_r[t] &= ~sbit
        self._col_g[t] &= ~sbit

    def row(self, s: int) -> tuple[CellState, ...]:
        return tuple(self.get(s, t) for t in range(self.n))

    def column(self, t: int) -> tuple[CellState, ...]:
        return tuple(self.get(s, t) for s in range(self.m))

    def nonempty_columns(self) -> list[int]:
        """Columns holding any edge, lowest first: the set bits of every
        row's ``r | g`` OR-ed together (m word ORs, not n column reads)."""
        columns = 0
        for requests, grants in zip(self._row_r, self._row_g):
            columns |= requests | grants
        return _set_bits(columns)

    @property
    def edge_count(self) -> int:
        return self._edges

    def is_empty(self) -> bool:
        return self._edges == 0

    # -- hardware reductions (Equations 3-6) ---------------------------------------

    def row_bwo(self, s: int) -> tuple[int, int]:
        """Bit-wise OR across row ``s``: (r_or, g_or)  (Equation 3)."""
        return (1 if self._row_r[s] else 0, 1 if self._row_g[s] else 0)

    def column_bwo(self, t: int) -> tuple[int, int]:
        """Bit-wise OR down column ``t``: (r_or, g_or)  (Equation 3)."""
        return (1 if self._col_r[t] else 0, 1 if self._col_g[t] else 0)

    def row_terminal(self, s: int) -> bool:
        """Terminal flag tau for row ``s`` (Equation 4 / Definition 7)."""
        return (self._row_r[s] == 0) != (self._row_g[s] == 0)

    def column_terminal(self, t: int) -> bool:
        """Terminal flag tau for column ``t`` (Equation 4 / Definition 8)."""
        return (self._col_r[t] == 0) != (self._col_g[t] == 0)

    def row_connect(self, s: int) -> bool:
        """Connect flag phi for row ``s`` (Equation 6)."""
        return bool(self._row_r[s]) and bool(self._row_g[s])

    def column_connect(self, t: int) -> bool:
        """Connect flag phi for column ``t`` (Equation 6)."""
        return bool(self._col_r[t]) and bool(self._col_g[t])

    def terminal_rows(self) -> list[int]:
        """On-set of terminal rows, the function T_r (Definition 9)."""
        row_r, row_g = self._row_r, self._row_g
        return [s for s in range(self.m)
                if (row_r[s] == 0) != (row_g[s] == 0)]

    def terminal_columns(self) -> list[int]:
        """On-set of terminal columns, the function T_c (Definition 10)."""
        col_r, col_g = self._col_r, self._col_g
        return [t for t in range(self.n)
                if (col_r[t] == 0) != (col_g[t] == 0)]

    def clear_row(self, s: int) -> None:
        bits = self._row_r[s] | self._row_g[s]
        self._edges -= bits.bit_count()
        keep = ~(1 << s)
        col_r, col_g = self._col_r, self._col_g
        while bits:
            low = bits & -bits
            t = low.bit_length() - 1
            col_r[t] &= keep
            col_g[t] &= keep
            bits ^= low
        self._row_r[s] = 0
        self._row_g[s] = 0

    def clear_column(self, t: int) -> None:
        bits = self._col_r[t] | self._col_g[t]
        self._edges -= bits.bit_count()
        keep = ~(1 << t)
        row_r, row_g = self._row_r, self._row_g
        while bits:
            low = bits & -bits
            s = low.bit_length() - 1
            row_r[s] &= keep
            row_g[s] &= keep
            bits ^= low
        self._col_r[t] = 0
        self._col_g[t] = 0

    # -- whole-matrix reduction (Algorithm 1 on the fast path) ---------------------

    def reduce(self) -> tuple[int, int]:
        """Run the terminal reduction sequence in place (Algorithm 1).

        Returns ``(iterations, passes)`` with the exact semantics of
        :func:`repro.deadlock.pdda.terminal_reduction`: both terminal
        on-sets are computed against the same pre-clear state, every
        flagged row/column is cleared at once, and the final pass that
        finds no terminal edges is counted.

        Only the first pass scans every row and column.  A row or
        column no clear touched keeps the (non-terminal) flag it had,
        so each later pass scans just the rows set in a cleared column
        and the columns set in a cleared row.  Terminal words are
        zeroed outright and each touched transpose is patched with one
        ``&= ~mask``; the edge count is recounted once at the end.
        """
        row_r, row_g = self._row_r, self._row_g
        col_r, col_g = self._col_r, self._col_g
        rows: Iterable[int] = range(self.m)
        columns: Iterable[int] = range(self.n)
        iterations = 0
        passes = 0
        while True:
            passes += 1
            term_rows = [s for s in rows
                         if (row_r[s] == 0) != (row_g[s] == 0)]
            term_cols = [t for t in columns
                         if (col_r[t] == 0) != (col_g[t] == 0)]
            if not term_rows and not term_cols:
                break
            iterations += 1
            # Both on-sets were taken above, so the words read here are
            # still the pre-clear ones the transposes must be patched by.
            cleared_rows = touched_cols = 0
            for s in term_rows:
                touched_cols |= row_r[s] | row_g[s]
                row_r[s] = row_g[s] = 0
                cleared_rows |= 1 << s
            cleared_cols = touched_rows = 0
            for t in term_cols:
                touched_rows |= col_r[t] | col_g[t]
                col_r[t] = col_g[t] = 0
                cleared_cols |= 1 << t
            keep = ~cleared_rows
            columns = _set_bits(touched_cols)
            for t in columns:
                col_r[t] &= keep
                col_g[t] &= keep
            keep = ~cleared_cols
            rows = _set_bits(touched_rows)
            for s in rows:
                row_r[s] &= keep
                row_g[s] &= keep
        if iterations:
            self._edges = (sum(map(int.bit_count, row_r))
                           + sum(map(int.bit_count, row_g)))
        return iterations, passes

    # -- comparisons / rendering -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitMatrix):
            return ((self.m, self.n) == (other.m, other.n)
                    and self._row_r == other._row_r
                    and self._row_g == other._row_g)
        if isinstance(other, StateMatrix):
            if (self.m, self.n) != (other.m, other.n):
                return False
            return all(self.get(s, t) is other.get(s, t)
                       for s in range(self.m) for t in range(self.n))
        return NotImplemented

    def render(self) -> str:
        """Figure 11-style text rendering, identical to StateMatrix."""
        col_width = max([len(p) for p in self.process_names] + [1])
        header = " " * 6 + " ".join(
            p.rjust(col_width) for p in self.process_names)
        lines = [header]
        for s in range(self.m):
            cells = " ".join(self.get(s, t).symbol().rjust(col_width)
                             for t in range(self.n))
            lines.append(f"{self.resource_names[s]:<6s}{cells}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BitMatrix {self.m}x{self.n} edges={self._edges}>"


#: Either state-matrix representation; both speak the same protocol.
AnyStateMatrix = Union[StateMatrix, BitMatrix]


# -- backend knob -----------------------------------------------------------------

def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a ``backend=`` argument (None -> the fast path)."""
    if backend is None:
        return FAST_BACKEND
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown matrix backend {backend!r}; "
            f"available: {sorted(BACKENDS)}")
    return backend


def matrix_class(backend: Optional[str] = None):
    """The matrix type the given backend builds."""
    resolved = resolve_backend(backend)
    return BitMatrix if resolved == FAST_BACKEND else StateMatrix


def matrix_from_rag(rag: RAG, backend: Optional[str] = None) -> AnyStateMatrix:
    """Build the backend's matrix straight from a RAG."""
    return matrix_class(backend).from_rag(rag)


def as_backend_matrix(source: Union[RAG, AnyStateMatrix],
                      backend: Optional[str] = None) -> AnyStateMatrix:
    """A fresh, safely-mutable matrix of the backend's type.

    RAGs are mapped, same-type matrices are copied, and cross-type
    matrices are converted — callers always own the result.
    """
    cls = matrix_class(backend)
    if isinstance(source, RAG):
        return cls.from_rag(source)
    if type(source) is cls:
        return source.copy()
    return cls.from_matrix(source)

"""Random and structured RAG state generators for tests and benchmarks.

All generators return :class:`~repro.rag.graph.RAG` instances obeying
the single-unit protocol, so every produced state is reachable by some
legal request/grant sequence.  :func:`random_bitmatrix` draws the same
random states as :func:`random_state` straight into a
:class:`~repro.rag.bitmatrix.BitMatrix`, for callers (the service's
seeded attach) that never need the graph.

Seeding contract
----------------

Every randomized generator takes both ``rng`` and ``seed``:

* pass ``rng`` (a :class:`random.Random`) to share one stream across
  several calls — the caller owns reproducibility;
* pass ``seed`` to get a private ``random.Random(seed)`` for that call;
* pass neither and the generator still behaves deterministically, using
  :data:`DEFAULT_SEED` — no code path ever constructs an unseeded
  ``random.Random()``, so two processes (or two campaign shards) that
  make the same calls always see the same states.

``rng`` wins when both are given.  The structured generators
(:func:`cycle_state`, :func:`chain_state`, :func:`worst_case_state`) and
the Verilog emitters in :mod:`repro.deadlock.generator` are pure
functions of their arguments and need no seed at all.
"""

from __future__ import annotations

import random
import sys
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.rag.bitmatrix import BitMatrix
from repro.rag.graph import RAG
from repro.rag.multiunit import MultiUnitSystem

#: The seed used when a randomized generator is called with neither
#: ``rng`` nor ``seed`` (the paper's publication year).  Deterministic
#: by design: an ambient unseeded ``random.Random()`` would make
#: campaign replays impossible.
DEFAULT_SEED = 2003


def resolve_rng(rng: Optional[random.Random] = None,
                seed: Optional[int] = None) -> random.Random:
    """The module's seeding contract as a helper: rng > seed > default."""
    if rng is not None:
        return rng
    return random.Random(DEFAULT_SEED if seed is None else seed)


def _names(m: int, n: int) -> tuple[list[str], list[str]]:
    """Process and resource names, interned: every generated state of
    a population shares one ``"p1"``, one ``"q1"`` and so on."""
    if m < 1 or n < 1:
        raise ConfigurationError("need at least one resource and process")
    return ([sys.intern(f"p{t + 1}") for t in range(n)],
            [sys.intern(f"q{s + 1}") for s in range(m)])


def empty_state(num_resources: int, num_processes: int) -> RAG:
    """A RAG with no edges."""
    processes, resources = _names(num_resources, num_processes)
    return RAG(processes, resources)


def random_state(num_resources: int, num_processes: int,
                 grant_fraction: float = 0.6,
                 request_fraction: float = 0.3,
                 rng: Optional[random.Random] = None,
                 seed: Optional[int] = None) -> RAG:
    """A random legal state.

    ``grant_fraction`` of resources get a random holder;
    ``request_fraction`` of the remaining (process, resource) pairs get a
    request edge.  Both deadlocked and deadlock-free states occur.
    Seeding follows the module contract (``rng`` > ``seed`` > default).
    The state is :func:`random_bitmatrix`'s, mapped back to a graph.
    """
    return random_bitmatrix(num_resources, num_processes, grant_fraction,
                            request_fraction, rng=rng, seed=seed).to_rag()


#: A request draw (``0``/``1`` byte) as its binary digit.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def random_bitmatrix(num_resources: int, num_processes: int,
                     grant_fraction: float = 0.6,
                     request_fraction: float = 0.3,
                     rng: Optional[random.Random] = None,
                     seed: Optional[int] = None) -> BitMatrix:
    """:func:`random_state`'s state, drawn straight into bit planes.

    Consumes exactly the draws of the graph-building loop, in its
    order: per resource one ``random()`` and, on a grant, a ``choice``
    of holder; then, processes outer and resources inner, one
    ``random()`` per cell except a process's own held cells.  The
    request draws land in one column-major byte string, so the row and
    column words are parsed from it in C instead of set bit by bit.
    """
    processes, resources = _names(num_resources, num_processes)
    rng = resolve_rng(rng, seed)
    m, n = num_resources, num_processes
    rand = rng.random
    holders = range(n)
    # Held cells as column-major indices t * m + s: no draw is made
    # for them, so a zero is spliced in at each, in ascending order.
    held = [rng.choice(holders) * m + s for s in range(m)
            if rand() < grant_fraction]
    held.sort()
    cells = bytearray([rand() < request_fraction
                       for _ in range(m * n - len(held))])
    for flat in held:
        cells.insert(flat, 0)
    # Reversed, every column slice and every stride-m row slice reads
    # most significant bit first, as ``int(digits, 2)`` wants.
    digits = cells.translate(_DIGITS)[::-1]
    matrix = BitMatrix(m, n, resource_names=resources,
                       process_names=processes)
    matrix._col_r = [int(digits[lo:lo + m], 2)
                     for lo in range(0, m * n, m)][::-1]
    matrix._row_r = [int(digits[lo::m], 2) for lo in range(m)][::-1]
    row_g, col_g = matrix._row_g, matrix._col_g
    for flat in held:
        t, s = divmod(flat, m)
        row_g[s] = 1 << t
        col_g[t] |= 1 << s
    matrix._edges = len(held) + sum(map(int.bit_count, matrix._col_r))
    return matrix


def cycle_state(length: int) -> RAG:
    """A minimal deadlocked state: a cycle through ``length`` processes.

    p1 holds q1 and requests q2; p2 holds q2 and requests q3; ...;
    p_length holds q_length and requests q1.
    """
    if length < 2:
        raise ConfigurationError("a deadlock cycle needs at least 2 processes")
    rag = empty_state(length, length)
    for i in range(length):
        holder = rag.processes[i]
        held = rag.resources[i]
        wanted = rag.resources[(i + 1) % length]
        rag.grant(held, holder)
    for i in range(length):
        rag.add_request(rag.processes[i], rag.resources[(i + 1) % length])
    return rag


def chain_state(length: int) -> RAG:
    """A deadlock-free blocking chain (the cycle minus its closing edge).

    Every process but the last is blocked, yet the state is reducible —
    the worst case for reduction-based detectors, because only one
    terminal node is exposed per iteration.
    """
    if length < 2:
        raise ConfigurationError("a chain needs at least 2 processes")
    rag = empty_state(length, length)
    for i in range(length):
        rag.grant(rag.resources[i], rag.processes[i])
    for i in range(length - 1):
        rag.add_request(rag.processes[i], rag.resources[i + 1])
    return rag


def worst_case_state(num_resources: int, num_processes: int) -> RAG:
    """The longest reducible chain that fits in an m x n matrix.

    Exercises the DDU's worst-case iteration count (Table 1's
    "worst case # iterations" column is derived from states like this).
    """
    k = min(num_resources, num_processes)
    rag = empty_state(num_resources, num_processes)
    for i in range(k):
        rag.grant(rag.resources[i], rag.processes[i])
    for i in range(k - 1):
        rag.add_request(rag.processes[i], rag.resources[i + 1])
    return rag


def random_multiunit_state(num_resources: int, num_processes: int,
                           max_units: int = 1,
                           units: Optional[Mapping[str, int]] = None,
                           grant_fraction: float = 0.6,
                           request_fraction: float = 0.3,
                           rng: Optional[random.Random] = None,
                           seed: Optional[int] = None
                           ) -> MultiUnitSystem:
    """A random legal counting-model state (multi-unit protocol).

    Every state is built through the request→grant protocol, so it is
    reachable by a legal sequence.  ``units`` fixes the unit count per
    resource class explicitly; otherwise each class gets a random count
    in ``1..max_units``.  With ``max_units=1`` (the default) the state
    projects onto the single-unit RAG via
    :meth:`~repro.rag.multiunit.MultiUnitSystem.to_rag`, which is what
    the campaign's multiunit-vs-projection checker exercises.  Seeding
    follows the module contract (``rng`` > ``seed`` > default).
    """
    rng = resolve_rng(rng, seed)
    processes, resources = _names(num_resources, num_processes)
    if units is None:
        if max_units < 1:
            raise ConfigurationError("max_units must be at least 1")
        totals: dict[str, int] = {q: rng.randint(1, max_units)
                                  for q in resources}
    else:
        totals = {q: int(units[q]) for q in resources}
    system = MultiUnitSystem(processes, totals)
    for q in resources:
        while system.available(q) > 0 and rng.random() < grant_fraction:
            p = rng.choice(processes)
            headroom = min(system.available(q),
                           totals[q] - system.allocation_of(p, q)
                           - system.outstanding_request(p, q))
            if headroom < 1:
                break
            take = rng.randint(1, headroom)
            system.request(p, q, take)
            system.grant(p, q, take)
    for p in processes:
        for q in resources:
            headroom = (totals[q] - system.allocation_of(p, q)
                        - system.outstanding_request(p, q))
            if headroom > 0 and rng.random() < request_fraction:
                system.request(p, q, rng.randint(1, headroom))
    return system


def deadlock_free_state(num_resources: int, num_processes: int,
                        rng: Optional[random.Random] = None,
                        seed: Optional[int] = None) -> RAG:
    """A random state guaranteed deadlock-free.

    Grants and requests are only added "downhill" in a fixed global
    ordering of resources (each process requests only resources ordered
    after everything it holds), which makes cycles impossible — the
    classic resource-ordering prevention argument.  Seeding follows the
    module contract (``rng`` > ``seed`` > default).
    """
    rng = resolve_rng(rng, seed)
    rag = empty_state(num_resources, num_processes)
    highest_held: dict[str, int] = {}
    order = list(range(num_resources))
    for s in order:
        q = rag.resources[s]
        if rng.random() < 0.6:
            p = rng.choice(rag.processes)
            if highest_held.get(p, -1) < s:
                rag.grant(q, p)
                highest_held[p] = s
    for p in rag.processes:
        floor = highest_held.get(p, -1)
        for s in range(floor + 1, num_resources):
            q = rag.resources[s]
            if rag.holder_of(q) == p:
                continue
            if rng.random() < 0.3:
                rag.add_request(p, q)
    return rag

"""The Resource Allocation Graph with the paper's protocol rules.

Processes and resources are identified by strings (``"p1"``, ``"q2"``).
The graph stores *request edges* (process -> resource) and *grant edges*
(resource -> process) and enforces the single-unit resource model of
Section 3.2:

* a resource is granted to at most one process at a time;
* a process never requests a resource it already holds;
* only the holder may release a resource (Assumption 2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import ResourceProtocolError


class RAG:
    """A mutable resource-allocation graph over fixed node sets.

    The node sets are fixed at construction (Assumption 1: a fixed number
    of resources; we also fix processes, as the DDU/DAU hardware does —
    matrix dimensions are synthesis-time parameters).
    """

    def __init__(self, processes: Iterable[str], resources: Iterable[str]) -> None:
        self._processes: list[str] = list(processes)
        self._resources: list[str] = list(resources)
        if len(set(self._processes)) != len(self._processes):
            raise ResourceProtocolError("duplicate process names")
        if len(set(self._resources)) != len(self._resources):
            raise ResourceProtocolError("duplicate resource names")
        overlap = set(self._processes) & set(self._resources)
        if overlap:
            raise ResourceProtocolError(
                f"names used for both process and resource: {sorted(overlap)}")
        self._proc_index = {p: i for i, p in enumerate(self._processes)}
        self._res_index = {q: i for i, q in enumerate(self._resources)}
        # request edges: process -> set of resources it is waiting for
        self._requests: dict[str, set[str]] = {p: set() for p in self._processes}
        # grant edges: resource -> holding process (single unit)
        self._holder: dict[str, Optional[str]] = {q: None for q in self._resources}

    # -- node accessors -----------------------------------------------------

    @property
    def processes(self) -> tuple[str, ...]:
        return tuple(self._processes)

    @property
    def resources(self) -> tuple[str, ...]:
        return tuple(self._resources)

    @property
    def num_processes(self) -> int:
        return len(self._processes)

    @property
    def num_resources(self) -> int:
        return len(self._resources)

    def process_index(self, process: str) -> int:
        self._check_process(process)
        return self._proc_index[process]

    def resource_index(self, resource: str) -> int:
        self._check_resource(resource)
        return self._res_index[resource]

    # -- edge queries --------------------------------------------------------

    def holder_of(self, resource: str) -> Optional[str]:
        """Process currently granted ``resource``, or None if available."""
        self._check_resource(resource)
        return self._holder[resource]

    def is_available(self, resource: str) -> bool:
        return self.holder_of(resource) is None

    def held_by(self, process: str) -> tuple[str, ...]:
        """Resources currently granted to ``process``."""
        self._check_process(process)
        return tuple(q for q in self._resources if self._holder[q] == process)

    def requests_of(self, process: str) -> tuple[str, ...]:
        """Resources ``process`` is currently waiting for."""
        self._check_process(process)
        return tuple(q for q in self._resources
                     if q in self._requests[process])

    def waiters_for(self, resource: str) -> tuple[str, ...]:
        """Processes with an outstanding request edge to ``resource``."""
        self._check_resource(resource)
        return tuple(p for p in self._processes
                     if resource in self._requests[p])

    def request_edges(self) -> Iterator[tuple[str, str]]:
        """All (process, resource) request edges in canonical order."""
        for p in self._processes:
            requests = self._requests[p]
            for q in self._resources:
                if q in requests:
                    yield (p, q)

    def grant_edges(self) -> Iterator[tuple[str, str]]:
        """All (resource, process) grant edges in canonical order."""
        for q in self._resources:
            holder = self._holder[q]
            if holder is not None:
                yield (q, holder)

    @property
    def edge_count(self) -> int:
        requests = sum(len(reqs) for reqs in self._requests.values())
        grants = sum(1 for h in self._holder.values() if h is not None)
        return requests + grants

    def is_empty(self) -> bool:
        return self.edge_count == 0

    # -- edge mutation --------------------------------------------------------

    def add_request(self, process: str, resource: str) -> None:
        """Record that ``process`` is waiting for ``resource``."""
        self._check_process(process)
        self._check_resource(resource)
        if self._holder[resource] == process:
            raise ResourceProtocolError(
                f"{process} requested {resource} which it already holds")
        if resource in self._requests[process]:
            raise ResourceProtocolError(
                f"{process} already has a pending request for {resource}")
        self._requests[process].add(resource)

    def remove_request(self, process: str, resource: str) -> None:
        self._check_process(process)
        self._check_resource(resource)
        try:
            self._requests[process].remove(resource)
        except KeyError:
            raise ResourceProtocolError(
                f"{process} has no pending request for {resource}") from None

    def grant(self, resource: str, process: str) -> None:
        """Grant ``resource`` to ``process``, consuming a matching request.

        If the process had a pending request edge for the resource it is
        converted into the grant edge (the paper's pending-request ->
        grant transition); an immediate grant without a recorded request
        is also legal (request satisfied in the same event).
        """
        self._check_process(process)
        self._check_resource(resource)
        current = self._holder[resource]
        if current is not None:
            raise ResourceProtocolError(
                f"cannot grant {resource} to {process}: held by {current}")
        self._requests[process].discard(resource)
        self._holder[resource] = process

    def release(self, process: str, resource: str) -> None:
        """Release a held resource (Assumption 2: only the holder may)."""
        self._check_process(process)
        self._check_resource(resource)
        if self._holder[resource] != process:
            raise ResourceProtocolError(
                f"{process} released {resource} held by "
                f"{self._holder[resource]}")
        self._holder[resource] = None

    # -- graph-level operations ------------------------------------------------

    def copy(self) -> "RAG":
        clone = RAG(self._processes, self._resources)
        for p, reqs in self._requests.items():
            clone._requests[p] = set(reqs)
        clone._holder = dict(self._holder)
        return clone

    # -- checkpoint protocol -----------------------------------------------------

    SNAPSHOT_KIND = "rag.graph"

    def snapshot_state(self) -> dict:
        """Versioned, hashed snapshot (see :mod:`repro.checkpoint`)."""
        from repro.checkpoint.protocol import snapshot_envelope
        return snapshot_envelope(self.SNAPSHOT_KIND, {
            "processes": list(self._processes),
            "resources": list(self._resources),
            "grants": [[q, p] for q, p in self.grant_edges()],
            "requests": [[p, q] for p, q in self.request_edges()],
        })

    @classmethod
    def restore_state(cls, envelope: dict) -> "RAG":
        """Rebuild a RAG by replaying the snapshot through the protocol."""
        from repro.checkpoint.protocol import open_envelope
        state = open_envelope(envelope, kind=cls.SNAPSHOT_KIND)
        rag = cls(state["processes"], state["resources"])
        for q, p in state["grants"]:
            rag.grant(q, p)
        for p, q in state["requests"]:
            rag.add_request(p, q)
        return rag

    def successors(self, node: str) -> tuple[str, ...]:
        """Directed successors: p -> requested q; q -> holder p."""
        if node in self._proc_index:
            return self.requests_of(node)
        if node in self._res_index:
            holder = self._holder[node]
            return (holder,) if holder is not None else ()
        raise ResourceProtocolError(f"unknown node {node!r}")

    def has_cycle(self) -> bool:
        """Reference cycle check by iterative DFS (used as test oracle)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE
                 for node in list(self._processes) + list(self._resources)}
        for start in color:
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(self.successors(start)))]
            color[start] = GREY
            while stack:
                node, successors = stack[-1]
                advanced = False
                for nxt in successors:
                    if color[nxt] == GREY:
                        return True
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(self.successors(nxt))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RAG):
            return NotImplemented
        return (self._processes == other._processes
                and self._resources == other._resources
                and self._requests == other._requests
                and self._holder == other._holder)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        grants = ", ".join(f"{q}->{p}" for q, p in self.grant_edges())
        reqs = ", ".join(f"{p}->{q}" for p, q in self.request_edges())
        return f"<RAG grants=[{grants}] requests=[{reqs}]>"

    # -- validation -----------------------------------------------------------

    def _check_process(self, process: str) -> None:
        if process not in self._proc_index:
            raise ResourceProtocolError(f"unknown process {process!r}")

    def _check_resource(self, resource: str) -> None:
        if resource not in self._res_index:
            raise ResourceProtocolError(f"unknown resource {resource!r}")

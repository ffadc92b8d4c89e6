"""Crash-consistent checkpoint/restore across the whole stack.

Every stateful layer implements the same two-method protocol::

    envelope = unit.snapshot_state()        # versioned, hashed, JSON-safe
    clone = UnitClass.restore_state(envelope, ...)

plus this package's generic entry points, which dispatch on the
envelope's ``kind`` tag::

    from repro import checkpoint
    envelope = checkpoint.snapshot_state(unit)
    clone = checkpoint.restore_state(envelope, kernel=kernel)

The registry below maps kinds to dotted class paths and imports them
lazily — layer modules import only
:mod:`repro.checkpoint.protocol`, so there is no import cycle between
this package and the layers it snapshots.

See ``docs/checkpoint.md`` for the schema, the quiescence rules for
coroutine-bearing layers (Engine/Kernel), and the campaign journal +
``resume`` verb built on top.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any

from repro.checkpoint.protocol import (
    SCHEMA,
    SCHEMA_VERSION,
    canonical_json,
    envelope_kind,
    open_envelope,
    read_snapshot,
    snapshot_envelope,
    state_hash,
    write_snapshot,
)
from repro.errors import CheckpointError

#: kind tag -> "module:ClassName" of the restoring class.
RESTORERS: dict[str, str] = {
    "sim.engine": "repro.sim.engine:Engine",
    "rtos.kernel": "repro.rtos.kernel:Kernel",
    "rag.graph": "repro.rag.graph:RAG",
    "rag.matrix": "repro.rag.matrix:StateMatrix",
    "rag.bitmatrix": "repro.rag.bitmatrix:BitMatrix",
    "rag.multiunit": "repro.rag.multiunit:MultiUnitSystem",
    "deadlock.ddu": "repro.deadlock.ddu:DDU",
    "deadlock.dau": "repro.deadlock.dau:DAU",
    "deadlock.dau_fsm": "repro.deadlock.dau_fsm:FSMDAU",
    "deadlock.software_daa": "repro.deadlock.daa:SoftwareDAA",
    "soclc": "repro.soclc.lockcache:SoCLC",
    "socdmmu": "repro.socdmmu.dmmu:SoCDMMU",
    "faults.injector": "repro.faults.injector:FaultInjector",
    "faults.health": "repro.faults.health:UnitHealth",
    "faults.resilient_detector": "repro.faults.resilient:ResilientDetector",
    "faults.resilient_avoider": "repro.faults.resilient:ResilientAvoider",
}


def _restorer(kind: str):
    try:
        dotted = RESTORERS[kind]
    except KeyError:
        raise CheckpointError(f"no restorer registered for kind {kind!r}") \
            from None
    module_name, _, class_name = dotted.partition(":")
    return getattr(importlib.import_module(module_name), class_name)


def snapshot_state(unit: Any) -> dict:
    """Snapshot any unit implementing the protocol."""
    method = getattr(unit, "snapshot_state", None)
    if method is None:
        raise CheckpointError(
            f"{type(unit).__name__} does not implement snapshot_state()")
    return method()


def restore_state(envelope: dict, **context: Any) -> Any:
    """Rebuild a unit from its envelope, dispatching on ``kind``.

    ``context`` carries environment objects some layers need to
    re-attach to (``kernel=`` for SoCLC/SoCDMMU, ``soc=`` for the
    Kernel, ``clock=`` for UnitHealth); keyword arguments a given
    restorer does not accept are dropped, so one context can serve a
    heterogeneous batch of snapshots.
    """
    kind = envelope_kind(envelope)
    cls = _restorer(kind)
    restore = cls.restore_state
    accepted = inspect.signature(restore).parameters
    kwargs = {key: value for key, value in context.items() if key in accepted}
    return restore(envelope, **kwargs)


__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "RESTORERS",
    "CheckpointError",
    "ScenarioCheckpoint",
    "canonical_json",
    "envelope_kind",
    "open_envelope",
    "read_snapshot",
    "restore_state",
    "snapshot_envelope",
    "snapshot_state",
    "state_hash",
    "write_snapshot",
]


def __getattr__(name: str):
    # PEP 562: only campaign workers need the scenario handle, and it
    # pulls in the observability stack and, through it, the simulator's
    # trace; a layer that snapshots itself needs just the protocol.
    if name == "ScenarioCheckpoint":
        from repro.checkpoint.scenario import ScenarioCheckpoint
        globals()[name] = ScenarioCheckpoint
        return ScenarioCheckpoint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

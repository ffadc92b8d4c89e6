"""repro — Hardware/Software Partitioning of Operating Systems.

A Python reproduction of Lee & Mooney, "Hardware/Software Partitioning
of Operating Systems: Focus on Deadlock Detection and Avoidance"
(DATE 2003): the delta RTOS/MPSoC design framework with its hardware
RTOS components — the Deadlock Detection Unit (DDU), the Deadlock
Avoidance Unit (DAU), the SoC Lock Cache (SoCLC) and the SoC Dynamic
Memory Management Unit (SoCDMMU) — plus the software baselines they are
compared against, all running on a cycle-accounted MPSoC simulator.

Quick start::

    from repro import build_system
    system = build_system("RTOS4")          # DAU-equipped MPSoC
    # ... create tasks on system.kernel and system.kernel.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from importlib import import_module

#: Where each top-level name lives.  The names resolve on first access
#: (PEP 562), so ``import repro.service`` pulls in neither the simulator
#: nor the RTOS, the framework or the SoCDMMU.
_EXPORTS = {
    "repro.errors": ("AllocationError", "ConfigurationError",
                     "DeadlockError", "GenerationError", "ReproError",
                     "ResourceProtocolError", "RTOSError",
                     "SimulationError"),
    "repro.rag": ("RAG", "BitMatrix", "StateMatrix"),
    "repro.deadlock": ("DAU", "DDU", "Decision", "SoftwareDAA",
                       "dau_synthesis", "ddu_synthesis", "pdda_detect"),
    "repro.mpsoc": ("MPSoC", "SoCConfig"),
    "repro.rtos": ("Kernel", "TaskContext"),
    "repro.framework": ("RTOS_PRESETS", "SystemConfig", "build_system"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "1.0.0"

__all__ = [
    "RAG",
    "StateMatrix",
    "BitMatrix",
    "pdda_detect",
    "DDU",
    "DAU",
    "SoftwareDAA",
    "Decision",
    "ddu_synthesis",
    "dau_synthesis",
    "MPSoC",
    "SoCConfig",
    "Kernel",
    "TaskContext",
    "build_system",
    "SystemConfig",
    "RTOS_PRESETS",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "DeadlockError",
    "ResourceProtocolError",
    "AllocationError",
    "RTOSError",
    "GenerationError",
    "__version__",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value

"""Smoke tests on the public import surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module", [
    "repro.sim", "repro.rag", "repro.deadlock", "repro.mpsoc",
    "repro.rtos", "repro.soclc", "repro.socdmmu", "repro.framework",
    "repro.apps", "repro.experiments", "repro.obs",
])
def test_subpackage_all_resolves(module):
    package = importlib.import_module(module)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{module}.{name}"


@pytest.mark.parametrize("preset", [f"RTOS{i}" for i in range(1, 8)])
def test_every_preset_builds_and_runs_empty(preset):
    system = repro.build_system(preset)
    assert system.run() == 0          # no tasks: time stays at zero
    assert system.top_verilog.startswith("// Top.v")


def test_public_docstrings_exist():
    # Every public package and top-level class carries a docstring.
    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


@pytest.mark.parametrize("module", [
    "repro.sim", "repro.rag", "repro.deadlock", "repro.mpsoc",
    "repro.rtos", "repro.soclc", "repro.socdmmu", "repro.framework",
    "repro.apps", "repro.obs",
])
def test_every_exported_item_is_documented(module):
    package = importlib.import_module(module)
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{module}.{name} lacks a docstring"


#: What the detection server never needs: the simulator, the RTOS, the
#: framework, the SoCDMMU, the deadlock units, the fault layer, campaign
#: checkpoints, the client and the chaos proxy.
SERVER_SKIPS = ("repro.framework", "repro.mpsoc", "repro.rtos",
                "repro.socdmmu", "repro.deadlock", "repro.faults",
                "repro.checkpoint.scenario", "repro.service.client",
                "repro.service.chaos")


def test_service_entry_point_skips_the_simulator():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = ("import sys, repro.service.__main__; "
             f"print(sorted(set({SERVER_SKIPS!r}) & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["repro.service", "repro.checkpoint"])
def test_lazy_package_names_resolve(module):
    # repro.checkpoint.__all__ includes the lazy ScenarioCheckpoint.
    package = importlib.import_module(module)
    for name in package.__all__:
        assert getattr(package, name) is not None, f"{module}.{name}"
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_lazy_top_level_names_resolve():
    from repro import DDU, BitMatrix, build_system
    assert callable(build_system)
    assert DDU.__name__ == "DDU"
    assert BitMatrix.__name__ == "BitMatrix"
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")

"""Package re-exports: every ``__all__`` name, resolved lazily or not.

The packages on the controller's import path (``repro``, ``repro.core``,
``repro.netmodel``, ``repro.deployment``, ``repro.telephony``,
``repro.workload``) resolve their re-exports on first access through
``repro._lazy_exports``; the rest import eagerly.  Either way each name
must resolve, be the very object of its defining module, stay that
object once every submodule is imported, and be listed by
``from pkg import *`` and ``dir(pkg)``.  Each package is checked in a
fresh interpreter, so the lazy path runs cold rather than against
attributes an earlier test already resolved.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: The packages on the controller's import path: their re-exports are lazy.
LAZY = (
    "repro",
    "repro.core",
    "repro.netmodel",
    "repro.deployment",
    "repro.telephony",
    "repro.workload",
)
PACKAGES = (
    *LAZY,
    "repro.store",
    "repro.obs",
    "repro.analysis",
    "repro.simulation",
    "repro.soak",
    "repro.verify",
)

#: Prints a JSON report of every way ``sys.argv[1]``'s exports go wrong.
_PROBE = """
import importlib, inspect, json, pkgutil, sys

name = sys.argv[1]
pkg = importlib.import_module(name)
table = getattr(pkg, "_EXPORTS", None)
report = {"lazy": table is not None, "unresolved": [], "foreign": [],
          "rebound": [], "star": [], "dir": []}


def defining(export, value):  # (module, attribute) export must be, if known
    if table is not None:
        for module, names in table.items():
            if export in names:
                return importlib.import_module(f"{name}.{module}"), export
    if inspect.isclass(value) or inspect.isfunction(value):
        return sys.modules[value.__module__], value.__name__
    return None, None


resolved = {}
for export in pkg.__all__:
    try:
        resolved[export] = getattr(pkg, export)
    except AttributeError:
        report["unresolved"].append(export)
        continue
    source, attr = defining(export, resolved[export])
    if source is not None and getattr(source, attr, None) is not resolved[export]:
        report["foreign"].append(export)
for info in pkgutil.walk_packages(pkg.__path__, f"{name}."):
    importlib.import_module(info.name)
report["rebound"] = [e for e, v in resolved.items() if getattr(pkg, e) is not v]
star = {}
exec(f"from {name} import *", star)
report["star"] = sorted(set(pkg.__all__) - star.keys())
report["dir"] = sorted(set(pkg.__all__) - set(dir(pkg)))
print(json.dumps(report))
"""


def _python(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    report = json.loads(_python(_PROBE, package))
    assert report["lazy"] == (package in LAZY)
    assert report["unresolved"] == []
    assert report["foreign"] == []
    assert report["rebound"] == [], "a submodule import rebound an export"
    assert report["star"] == []
    assert report["dir"] == []


def test_a_function_named_like_its_submodule_stays_the_function():
    code = (
        "import repro.analysis.pnr, repro.simulation.replay, repro.analysis, "
        "repro.simulation, inspect; "
        "print(inspect.isfunction(repro.analysis.pnr), "
        "inspect.isfunction(repro.simulation.replay))"
    )
    assert _python(code).split() == ["True", "True"]


def test_the_controller_import_loads_no_world_model():
    code = (
        "import sys; from repro.deployment import ViaController; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    loaded = _python(code)
    assert "repro.deployment.controller" in loaded
    assert "repro.netmodel.world" not in loaded


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'NoSuchPolicy'"):
        repro.core.NoSuchPolicy  # noqa: B018
    assert not hasattr(repro.core, "NoSuchPolicy")

"""Reproduction of "VIA: Improving Internet Telephony Call Quality Using
Predictive Relay Selection" (Jiang et al., SIGCOMM 2016).

Quickstart::

    from repro import build_world, generate_trace, WorldConfig, WorkloadConfig
    from repro.simulation import ExperimentPlan, standard_policies
    from repro.analysis import pnr_breakdown

    world = build_world(WorldConfig())
    trace = generate_trace(world.topology, WorkloadConfig(n_calls=50_000))
    plan = ExperimentPlan(world=world, trace=trace)
    results = plan.run(standard_policies(world, "rtt_ms"))
    for name, result in results.items():
        print(name, pnr_breakdown(plan.evaluate(result)))

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.netmodel`   -- synthetic Internet (topology, segments, world)
* :mod:`repro.telephony`  -- calls, codecs, E-model MOS, RTP traces
* :mod:`repro.workload`   -- Skype-like trace generation
* :mod:`repro.core`       -- VIA relay selection (the paper's contribution)
* :mod:`repro.simulation` -- chronological replay (§5.1 methodology)
* :mod:`repro.analysis`   -- PNR, distributions, spatial/temporal patterns
* :mod:`repro.deployment` -- asyncio controller/client testbed (§5.5)
* :mod:`repro.obs`        -- metrics registry, span tracing, profiling hooks
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict[str, tuple[str, ...]]) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for ``package`` serving ``table``.

    Every package on the controller's import path re-exports its names
    this way (PEP 562), so ``from repro.deployment import ViaController``
    loads the serving layers and not the world model, the trace
    generator or the testbed.  ``table`` maps a submodule relative to
    ``package`` (``"policy"`` for ``repro.core.policy``) to the names
    re-exported from it.  A name resolves on first access to the very
    object of its defining module and is then cached on the package;
    ``from pkg import *`` and ``dir(pkg)`` list every exported name.  A
    re-exported name must not also name a submodule: importing that
    submodule would rebind the package attribute to the module.
    """
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | source.keys())

    return list(source), __getattr__, __dir__


#: Re-exports, by defining module; each resolves on first use.
_EXPORTS = {
    "netmodel.metrics": ("PathMetrics",),
    "netmodel.options": ("RelayOption", "OptionKind"),
    "netmodel.topology": ("TopologyConfig",),
    "netmodel.world": ("World", "WorldConfig", "build_world"),
    "workload.trace": ("TraceDataset",),
    "workload.generator": ("WorkloadConfig", "generate_trace"),
    "telephony.call": ("Call", "CallOutcome"),
    "core.policy": ("ViaConfig", "ViaPolicy"),
    "core.baselines": ("make_via",),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")

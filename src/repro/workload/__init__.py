"""Call-trace generation: the synthetic stand-in for the Skype dataset.

Produces chronologically ordered call intents with the population shapes
Table 1 and §2.1 of the paper report: heavy-tailed per-pair volumes,
a large international (46.6%) and inter-AS (80.7%) share, and a mostly
wireless (83%) client base.
"""

from repro import _lazy_exports

#: Re-exports, by defining module; each resolves on first use.
_EXPORTS = {
    "generator": ("WorkloadConfig", "generate_trace"),
    "trace": ("TraceDataset", "TraceSummary"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

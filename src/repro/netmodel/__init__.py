"""Synthetic Internet substrate for the VIA reproduction.

The paper's evaluation is driven by a proprietary trace of 430M Skype calls.
This package builds the substitute: a generative model of the Internet as
seen by a VoIP service -- countries, autonomous systems, clients, datacenter
relays, and per-segment network performance processes with realistic spatial
skew and day-scale temporal dynamics.

The central entry point is :class:`repro.netmodel.world.World`, which can

* enumerate relaying options for any AS pair (direct / bounce / transit),
* report the ground-truth mean performance of any option on any day
  (used by the oracle baseline), and
* draw per-call metric samples for any option at any time (used by the
  replay simulator, per the sampling semantics of Section 5.1 of the paper).
"""

from repro import _lazy_exports

#: Re-exports, by defining module; each resolves on first use.
_EXPORTS = {
    "geo": ("GeoPoint", "haversine_km", "propagation_rtt_ms"),
    "metrics": ("PathMetrics", "Metric", "METRICS"),
    "options": ("RelayOption", "OptionKind"),
    "topology": (
        "AutonomousSystem",
        "Country",
        "RelayNode",
        "Topology",
        "TopologyConfig",
        "build_topology",
    ),
    "dynamics": ("RegimeProcess", "RegimeConfig", "diurnal_factor"),
    "segments": ("NoiseConfig", "SegmentModel", "heavy_tailed_inflation"),
    "graph": ("backbone_graph", "overlay_graph", "best_multihop_route"),
    "world": (
        "World",
        "WorldConfig",
        "OptionFilteredWorld",
        "restrict_relays",
        "without_transit",
        "build_world",
    ),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

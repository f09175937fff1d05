"""Controlled-deployment prototype (§5.5 of the paper).

The paper deployed a cloud controller plus 14 instrumented Skype clients
in five countries; the controller orchestrated ~1000 back-to-back calls
over 18 caller-callee pairs through 9-20 relaying options each and
compared VIA's per-call choice to an oracle with dense ground truth.

This package is the working equivalent: a real asyncio TCP controller
(:mod:`repro.deployment.controller`) speaking a JSON-lines protocol
(:mod:`repro.deployment.protocol`) with instrumented client agents
(:mod:`repro.deployment.client`), orchestrated over localhost by
:mod:`repro.deployment.testbed`, with call performance drawn from the
synthetic world.
"""

from repro import _lazy_exports

#: Re-exports, by defining module; each resolves on first use.
_EXPORTS = {
    "protocol": (
        "PROTOCOL_V1",
        "PROTOCOL_V2",
        "LATEST_PROTOCOL",
        "HelloMessage",
        "HelloAckMessage",
        "MeasurementMessage",
        "RequestMessage",
        "AssignMessage",
        "StatsRequestMessage",
        "StatsMessage",
        "MetricsRequestMessage",
        "MetricsMessage",
        "ResilienceMessage",
        "ErrorMessage",
        "ShedMessage",
        "ByeMessage",
        "RedirectMessage",
        "ShardMapMessage",
        "SyncRequestMessage",
        "SyncMessage",
        "ProtocolError",
        "encode_message",
        "decode_message",
        "encode_option",
        "decode_option",
    ),
    "resilience": ("RetryPolicy", "CircuitBreaker", "ResilienceStats"),
    "faults": ("FaultPlan", "FaultInjector", "RelayOutage"),
    "admission": ("AdmissionConfig", "AdmissionController", "AdmissionDecision"),
    "aserver": ("ViaServer",),
    "controller": ("ViaController",),
    "client": (
        "TestbedClient",
        "AsyncViaClient",
        "AssignmentResult",
        "ServerError",
        "ShedError",
        "RedirectError",
    ),
    "ring": (
        "ShardMap",
        "ShardController",
        "ControllerRing",
        "InProcessRing",
        "ShardedViaClient",
        "ring_pair_key",
    ),
    "testbed": ("TestbedConfig", "TestbedReport", "run_testbed"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

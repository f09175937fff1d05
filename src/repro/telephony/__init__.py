"""VoIP telephony substrate: calls, codecs, quality models, RTP traces.

The paper links network metrics to user experience through two quality
measures: the user-labelled *Poor Call Rate* (PCR, ratings of 1-2 on a
5-point scale) and the *Mean Opinion Score* (MOS) computed with the
E-model of Cole & Rosenbluth [17] / ITU-T G.107.  This package implements
both, plus an RTP-style packet-trace simulator used to validate that
thresholds on call-average metrics approximate packet-trace MOS (§2.2).
"""

from repro import _lazy_exports

#: Re-exports, by defining module; each resolves on first use.
_EXPORTS = {
    "call": ("Call", "CallOutcome"),
    "codec": ("CodecSpec", "G711", "G729", "SILK_WB", "OPUS_WB", "DEFAULT_CODEC"),
    "quality": (
        "QualityModel",
        "r_factor",
        "mos_from_r_factor",
        "mos_from_network",
        "poor_call_probability",
        "sample_rating",
    ),
    "rtp": (
        "GilbertElliottLoss",
        "PacketTrace",
        "rfc3550_jitter",
        "simulate_rtp_stream",
        "trace_metrics",
        "trace_mos",
    ),
    "sessions": ("trace_for_call", "call_trace_mos"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

"""The world's sampler, written out from its public pieces.

This is what ``World.sample_call`` *means*: every segment of the path
draws itself (``SegmentModel.sample``), the segments compose
(``PathMetrics.compose``), the path's residual scales the result, each
wireless leg adds its extra, and the two prefix factors scale the sum.
Nothing here is fast and every intermediate is a validated
``PathMetrics``; ``World.sample_call`` must return the *same bits* and
leave the generator at the *same position* (``tests/test_sampler.py``,
and ``scripts/ci_check.py`` times one against the other).
"""

from __future__ import annotations

from repro.netmodel.metrics import PathMetrics, linear_to_loss, loss_to_linear

__all__ = ["reference_true_mean", "reference_sample_path", "reference_sample_call"]


def _with_residual(world, composed, src_asn, dst_asn, option):
    residual = world.path_residual(src_asn, dst_asn, option)
    if residual == (1.0, 1.0, 1.0):
        return composed
    return composed.scaled(*residual)


def reference_true_mean(world, src_asn, dst_asn, option, day):
    composed = PathMetrics.compose(
        seg.mean_on_day(day) for seg in world.path_segments(src_asn, dst_asn, option)
    )
    return _with_residual(world, composed, src_asn, dst_asn, option)


def reference_sample_path(world, src_asn, dst_asn, option, t_hours, rng):
    composed = PathMetrics.compose(
        seg.sample(t_hours, rng) for seg in world.path_segments(src_asn, dst_asn, option)
    )
    return _with_residual(world, composed, src_asn, dst_asn, option)


def reference_wireless_extra(world, asn, rng):
    cfg = world.config
    scale = 1.0 + 1.5 * (1.0 - world.topology.as_of(asn).access_quality)
    rtt = float(rng.exponential(cfg.wireless_rtt_ms_mean * scale))
    loss = float(rng.exponential(cfg.wireless_loss_mean * scale))
    jitter = float(rng.exponential(cfg.wireless_jitter_ms_mean * scale))
    if rng.random() < cfg.wireless_spike_prob * scale / 2.0:
        rtt += float(rng.exponential(cfg.wireless_spike_rtt_ms))
        loss += float(rng.exponential(cfg.wireless_spike_loss))
        jitter += float(rng.exponential(cfg.wireless_spike_jitter_ms))
    return PathMetrics(rtt_ms=rtt, loss_rate=min(loss, 0.5), jitter_ms=jitter)


def reference_sample_call(
    world,
    src_asn,
    dst_asn,
    option,
    t_hours,
    rng,
    *,
    src_wireless=False,
    dst_wireless=False,
    src_prefix=0,
    dst_prefix=0,
):
    if not world.option_available(option, t_hours):
        cfg = world.config
        return PathMetrics(cfg.outage_rtt_ms, cfg.outage_loss_rate, cfg.outage_jitter_ms)
    legs = [reference_sample_path(world, src_asn, dst_asn, option, t_hours, rng)]
    if src_wireless:
        legs.append(reference_wireless_extra(world, src_asn, rng))
    if dst_wireless:
        legs.append(reference_wireless_extra(world, dst_asn, rng))
    f_src = world.prefix_factor(src_asn, src_prefix)
    f_dst = world.prefix_factor(dst_asn, dst_prefix)
    combined = PathMetrics.compose(legs)
    return PathMetrics(
        rtt_ms=combined.rtt_ms * f_src[0] * f_dst[0],
        loss_rate=linear_to_loss(loss_to_linear(combined.loss_rate) * f_src[1] * f_dst[1]),
        jitter_ms=combined.jitter_ms * f_src[2] * f_dst[2],
    )

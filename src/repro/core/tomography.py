"""Linear network tomography: stage 2 of the VIA pipeline (Figure 11).

Call history only covers (pair, option) combinations that were actually
used; data skew leaves "holes".  Tomography fills them: every relayed
observation is a *linear equation* over per-(side, relay) segment
unknowns:

* bounce via relay ``r``:    ``y = x[s, r] + x[d, r]``
* transit via ``r1 -> r2``:  ``y = x[s, r1] + inter(r1, r2) + x[d, r2]``

where ``inter`` is the provider's own (known) backbone performance -- the
paper likewise had Skype's inter-relay RTT/loss/jitter measurements.  We
solve the weighted least-squares system per metric with sparse LSQR and
*stitch* the estimated segments to predict any relay path, seen or unseen.

RTT and jitter are solved in their natural (additive) units; loss is
solved in the linearised ``-log(1 - loss)`` domain (§4.4 / [12]).
"""

from __future__ import annotations

from math import sqrt
from typing import Callable, Hashable, Iterable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import lsqr

from repro.netmodel.metrics import PathMetrics, linear_to_loss, loss_to_linear
from repro.netmodel.options import OptionKind, RelayOption
from repro.core.history import RunningStat
from repro.obs.profiling import timed

__all__ = ["TomographyModel"]

SideKey = Hashable
SegmentKey = tuple[SideKey, int]
InterRelayLookup = Callable[[int, int], PathMetrics]

#: Metric floors after the unconstrained solve (LSQR can go slightly
#: negative on noisy systems); values are (rtt_ms, linear loss, jitter_ms).
_SEGMENT_FLOORS = np.array([0.5, 0.0, 0.02])


class TomographyModel:
    """Per-window segment estimates with a path-stitching predictor."""

    def __init__(
        self,
        estimates: dict[SegmentKey, np.ndarray],
        sems: dict[SegmentKey, np.ndarray],
        inter_relay: InterRelayLookup,
    ) -> None:
        self._estimates = estimates
        self._sems = sems
        self._inter_relay = inter_relay

    @property
    def n_segments(self) -> int:
        return len(self._estimates)

    def segment_estimate(self, side: SideKey, relay_id: int) -> np.ndarray | None:
        """Estimated (rtt, linear-loss, jitter) for one side<->relay segment."""
        value = self._estimates.get((side, relay_id))
        return None if value is None else value.copy()

    @classmethod
    @timed("tomography.fit")
    def fit(
        cls,
        observations: Iterable[tuple[tuple[SideKey, SideKey], RelayOption, RunningStat]],
        inter_relay: InterRelayLookup,
        *,
        min_count: int = 1,
        damp: float = 1e-3,
    ) -> "TomographyModel":
        """Fit segment unknowns from one window of relayed observations.

        ``observations`` yields (pair key, option, aggregate) triples in
        *canonical pair orientation* (see :class:`repro.core.keys.PairView`).
        Direct-path observations are ignored: the default path does not
        decompose into client<->relay segments.  ``damp`` is LSQR's Tikhonov
        damping, which stabilises under-determined corners of the system.
        """
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        b_rows: list[np.ndarray] = []
        weights: list[float] = []
        col_index: dict[SegmentKey, int] = {}
        col_weight: dict[int, float] = {}

        def column(side: SideKey, relay_id: int) -> int:
            key = (side, relay_id)
            idx = col_index.get(key)
            if idx is None:
                idx = len(col_index)
                col_index[key] = idx
            return idx

        n_rows = 0
        for (side_s, side_d), option, stat in observations:
            if option.kind is OptionKind.DIRECT or stat.count < min_count:
                continue
            mean = stat.mean
            target = np.array(
                [mean[0], loss_to_linear(float(np.clip(mean[1], 0.0, 1.0))), mean[2]]
            )
            if option.kind is OptionKind.BOUNCE:
                assert option.ingress is not None
                touched = [column(side_s, option.ingress), column(side_d, option.ingress)]
            else:
                assert option.ingress is not None and option.egress is not None
                inter = inter_relay(option.ingress, option.egress)
                target = target - np.array(
                    [inter.rtt_ms, loss_to_linear(inter.loss_rate), inter.jitter_ms]
                )
                touched = [column(side_s, option.ingress), column(side_d, option.egress)]
            weight = float(np.sqrt(stat.count))
            for col in touched:
                rows.append(n_rows)
                cols.append(col)
                data.append(weight)
                col_weight[col] = col_weight.get(col, 0.0) + stat.count
            b_rows.append(weight * target)
            weights.append(weight)
            n_rows += 1

        estimates: dict[SegmentKey, np.ndarray] = {}
        sems: dict[SegmentKey, np.ndarray] = {}
        if n_rows > 0 and col_index:
            n_cols = len(col_index)
            matrix = coo_matrix(
                (data, (rows, cols)), shape=(n_rows, n_cols)
            ).tocsr()
            b = np.vstack(b_rows)
            solution = np.empty((n_cols, 3))
            residual_sigma = np.empty(3)
            dof = max(1, n_rows - n_cols)
            for m in range(3):
                result = lsqr(matrix, b[:, m], damp=damp)
                solution[:, m] = result[0]
                residuals = matrix @ result[0] - b[:, m]
                residual_sigma[m] = float(np.sqrt(np.sum(residuals**2) / dof))
            solution = np.maximum(solution, _SEGMENT_FLOORS)
            for key, idx in col_index.items():
                estimates[key] = solution[idx]
                sems[key] = residual_sigma / np.sqrt(max(1.0, col_weight.get(idx, 1.0)))
        return cls(estimates=estimates, sems=sems, inter_relay=inter_relay)

    def predict(
        self, side_s: SideKey, side_d: SideKey, option: RelayOption
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Stitched (mean, sem) for a relay path, in raw metric units.

        Returns ``None`` for direct paths or when either segment estimate
        is missing.  Means come back as (rtt_ms, loss_rate, jitter_ms);
        loss is converted out of the linearised domain after stitching.

        The stitch runs on Python floats, per metric, in the order the
        array form ``(seg_s + seg_d + inter)`` and ``sqrt(sem_s**2 +
        sem_d**2)`` would evaluate: IEEE add, multiply and square root
        round identically in both, so the result is the same bits.
        """
        if option.kind is OptionKind.DIRECT:
            return None
        ingress = option.ingress
        if option.kind is OptionKind.BOUNCE:
            assert ingress is not None
            egress = ingress
        else:
            egress = option.egress
            assert ingress is not None and egress is not None
        key_s, key_d = (side_s, ingress), (side_d, egress)
        seg_s = self._estimates.get(key_s)
        seg_d = self._estimates.get(key_d)
        if seg_s is None or seg_d is None:
            return None
        if option.kind is OptionKind.BOUNCE:
            i_r = i_l = i_j = 0.0
        else:
            inter = self._inter_relay(ingress, egress)
            i_r, i_l, i_j = inter.rtt_ms, loss_to_linear(inter.loss_rate), inter.jitter_ms
        s_r, s_l, s_j = seg_s.tolist()
        d_r, d_l, d_j = seg_d.tolist()
        e_r, e_l, e_j = self._sems[key_s].tolist()
        f_r, f_l, f_j = self._sems[key_d].tolist()
        mean = np.array(
            (s_r + d_r + i_r, linear_to_loss(s_l + d_l + i_l), s_j + d_j + i_j)
        )
        # The loss SEM was estimated in the linearised domain; for small
        # losses d(loss)/d(linear) ~ 1, so reuse it directly.
        sem = np.array((
            sqrt(e_r * e_r + f_r * f_r),
            sqrt(e_l * e_l + f_l * f_l),
            sqrt(e_j * e_j + f_j * f_j),
        ))
        return mean, sem

"""Tomography's fit, solved by scipy.

This is ``TomographyModel.fit`` as it stood while it called
``scipy.sparse.coo_matrix(...).tocsr()`` and ``scipy.sparse.linalg.lsqr``,
kept verbatim.  ``repro.core.tomography`` now solves with ``_lsqr``, a
numpy transcription of scipy's LSQR, and must return *the same bits*:
``tests/test_tomography_port.py`` compares the two with scipy installed
(the ``dev`` extra), key order and ``tobytes()`` of every estimate and SEM.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import lsqr

from repro.core.history import RunningStat
from repro.core.tomography import InterRelayLookup, SegmentKey, SideKey, TomographyModel
from repro.netmodel.metrics import loss_to_linear
from repro.netmodel.options import OptionKind, RelayOption

__all__ = ["reference_fit"]

_SEGMENT_FLOORS = np.array([0.5, 0.0, 0.02])


def reference_fit(
    observations: Iterable[tuple[tuple[SideKey, SideKey], RelayOption, RunningStat]],
    inter_relay: InterRelayLookup,
    *,
    min_count: int = 1,
    damp: float = 1e-3,
) -> TomographyModel:
    """``TomographyModel.fit`` with scipy's sparse matrix and LSQR."""
    cls = TomographyModel
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

"""Linear network tomography: stage 2 of the VIA pipeline (Figure 11).

Call history only covers (pair, option) combinations that were actually
used; data skew leaves "holes".  Tomography fills them: every relayed
observation is a *linear equation* over per-(side, relay) segment
unknowns:

* bounce via relay ``r``:    ``y = x[s, r] + x[d, r]``
* transit via ``r1 -> r2``:  ``y = x[s, r1] + inter(r1, r2) + x[d, r2]``

where ``inter`` is the provider's own (known) backbone performance -- the
paper likewise had Skype's inter-relay RTT/loss/jitter measurements.  We
solve the weighted least-squares system per metric with LSQR and *stitch*
the estimated segments to predict any relay path, seen or unseen.

The solver is :func:`_lsqr`, scipy's ``scipy.sparse.linalg.lsqr``
transcribed on numpy operation for operation, so it returns scipy's bits
without importing scipy (which would cost every process that imports
``repro`` ~0.4 s and ~24 MiB).  ``tests/test_tomography_port.py`` holds it
bit-identical to scipy, which stays the test arbiter.

RTT and jitter are solved in their natural (additive) units; loss is
solved in the linearised ``-log(1 - loss)`` domain (§4.4 / [12]).
"""

from __future__ import annotations

from math import sqrt
from typing import Callable, Hashable, Iterable

import numpy as np

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

#: scipy's ``lsqr`` defaults, the only settings ``fit`` ever used.
_ATOL = 1e-6
_BTOL = 1e-6
_CONLIM = 1e8
_EPS = np.finfo(np.float64).eps


# _sym_ortho and _lsqr transcribe scipy/sparse/linalg/_isolve/lsqr.py
# (scipy 1.17.1), which carries this notice:
#
#   Copyright (c) 2006, Systems Optimization Laboratory
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#       * Redistributions of source code must retain the above copyright
#         notice, this list of conditions and the following disclaimer.
#
#       * Redistributions in binary form must reproduce the above
#         copyright notice, this list of conditions and the following
#         disclaimer in the documentation and/or other materials provided
#         with the distribution.
#
#       * Neither the name of Stanford University nor the names of its
#         contributors may be used to endorse or promote products derived
#         from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# The original Fortran is C. C. Paige and M. A. Saunders, "LSQR: An
# algorithm for sparse linear equations and sparse least squares", TOMS
# 8(1), 43--71 (1982).  Only the case ``fit`` uses is kept: ``x0=None``,
# ``calc_var=False``, ``show=False`` and the default tolerances.  Every
# scalar keeps scipy's type and every expression scipy's evaluation order:
# that is what makes the result the same bits, so do not tidy them.


def _matvec(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, x: np.ndarray, size: int):
    """``A @ x`` for A's entries in CSR order: each output adds its terms
    from 0.0 in entry order, as scipy's ``csr_matvec`` does.  With ``rows``
    and ``cols`` swapped it is ``A.T @ x``, added as ``csc_matvec`` adds."""
    return np.bincount(rows, weights=vals * x[cols], minlength=size)


def _sym_ortho(a, b):
    """Stable Givens rotation (S.-C. Choi's SymOrtho), as scipy writes it."""
    if b == 0:
        return np.sign(a), 0, abs(a)
    elif a == 0:
        return 0, np.sign(b), abs(b)
    elif abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / sqrt(1+tau*tau)
        s = c * tau
        r = a / c
    return c, s, r


def _lsqr(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    b: np.ndarray,
    damp: float,
) -> tuple[np.ndarray, int, int]:
    """Damped least squares ``min ||Ax - b||^2 + damp^2 ||x||^2``.

    ``A`` is given by its entries in CSR order: row-major, each row's
    columns ascending and distinct (see :func:`_matvec`).  Returns ``(x,
    istop, itn)`` as scipy's ``lsqr`` would for the CSR matrix of these
    entries.
    """
    m, n = shape

    def matvec(x):
        return _matvec(rows, cols, vals, x, m)

    def rmatvec(u):
        return _matvec(cols, rows, vals, u, n)

    iter_lim = 2 * n
    atol, btol = _ATOL, _BTOL

    itn = 0
    istop = 0
    ctol = 1/_CONLIM
    anorm = 0
    acond = 0
    dampsq = damp**2
    ddnorm = 0
    res2 = 0
    xnorm = 0
    xxnorm = 0
    z = 0
    cs2 = -1
    sn2 = 0

    # Set up the first vectors u and v for the bidiagonalization.
    # These satisfy  beta*u = b - A@x,  alfa*v = A'@u.
    u = b
    bnorm = np.linalg.norm(b)
    x = np.zeros(n)
    beta = bnorm.copy()

    if beta > 0:
        u = (1/beta) * u
        v = rmatvec(u)
        alfa = np.linalg.norm(v)
    else:
        v = x.copy()
        alfa = 0

    if alfa > 0:
        v = (1/alfa) * v
    w = v.copy()

    rhobar = alfa
    phibar = beta

    arnorm = alfa * beta
    if arnorm == 0:
        return x, istop, itn

    # Main iteration loop.
    while itn < iter_lim:
        itn = itn + 1
        # Next step of the bidiagonalization: beta*u = A@v - alfa*u,
        # alfa*v = A'@u - beta*v.
        u = matvec(v) - alfa * u
        beta = np.linalg.norm(u)

        if beta > 0:
            u = (1/beta) * u
            anorm = sqrt(anorm**2 + alfa**2 + beta**2 + dampsq)
            v = rmatvec(u) - beta * v
            alfa = np.linalg.norm(v)
            if alfa > 0:
                v = (1 / alfa) * v

        # A plane rotation eliminates the damping parameter.
        if damp > 0:
            rhobar1 = sqrt(rhobar**2 + dampsq)
            cs1 = rhobar / rhobar1
            sn1 = damp / rhobar1
            psi = sn1 * phibar
            phibar = cs1 * phibar
        else:
            rhobar1 = rhobar
            psi = 0.

        # A plane rotation eliminates the subdiagonal element (beta).
        cs, sn, rho = _sym_ortho(rhobar1, beta)

        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi

        # Update x and w.
        t1 = phi / rho
        t2 = -theta / rho
        dk = (1 / rho) * w

        x = x + t1 * w
        w = v + t2 * w
        ddnorm = ddnorm + np.linalg.norm(dk)**2

        # A plane rotation on the right eliminates the super-diagonal
        # element (theta); the result estimates norm(x).
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs = phi - delta * z
        zbar = rhs / gambar
        xnorm = sqrt(xxnorm + zbar**2)
        gamma = sqrt(gambar**2 + theta**2)
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs / gamma
        xxnorm = xxnorm + z**2

        # Test for convergence: estimate cond(Abar) and the norms of
        # rbar and Abar'rbar.
        acond = anorm * sqrt(ddnorm)
        res1 = phibar**2
        res2 = res2 + psi**2
        rnorm = sqrt(res1 + res2)
        arnorm = alfa * abs(tau)

        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + _EPS)
        test3 = 1 / (acond + _EPS)
        t1 = test1 / (1 + anorm * xnorm / bnorm)
        rtol = btol + atol * anorm * xnorm / bnorm

        # Guards against extremely small atol, btol or ctol.
        if itn >= iter_lim:
            istop = 7
        if 1 + test3 <= 1:
            istop = 6
        if 1 + test2 <= 1:
            istop = 5
        if 1 + t1 <= 1:
            istop = 4

        # The tolerances.
        if test3 <= ctol:
            istop = 3
        if test2 <= atol:
            istop = 2
        if test1 <= rtol:
            istop = 1

        if istop != 0:
            break

    return x, istop, itn


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
        # A's entries in CSR order: each row's columns ascending, and a
        # column touched twice (a bounce with side_s == side_d) one entry of
        # weight w + w, as scipy's ``coo_matrix(...).tocsr()`` sums it.
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        b_rows: list[np.ndarray] = []
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
                col_s, col_d = column(side_s, option.ingress), column(side_d, option.ingress)
            else:
                assert option.ingress is not None and option.egress is not None
                inter = inter_relay(option.ingress, option.egress)
                target = target - np.array(
                    [inter.rtt_ms, loss_to_linear(inter.loss_rate), inter.jitter_ms]
                )
                col_s, col_d = column(side_s, option.ingress), column(side_d, option.egress)
            weight = float(np.sqrt(stat.count))
            if col_s == col_d:
                rows.append(n_rows)
                cols.append(col_s)
                data.append(weight + weight)
            else:
                rows += (n_rows, n_rows)
                cols += (col_s, col_d) if col_s < col_d else (col_d, col_s)
                data += (weight, weight)
            for col in (col_s, col_d):
                col_weight[col] = col_weight.get(col, 0.0) + stat.count
            b_rows.append(weight * target)
            n_rows += 1

        estimates: dict[SegmentKey, np.ndarray] = {}
        sems: dict[SegmentKey, np.ndarray] = {}
        if n_rows > 0 and col_index:
            n_cols = len(col_index)
            row_of = np.array(rows, dtype=np.intp)
            col_of = np.array(cols, dtype=np.intp)
            vals = np.array(data, dtype=np.float64)
            b = np.vstack(b_rows)
            solution = np.empty((n_cols, 3))
            residual_sigma = np.empty(3)
            dof = max(1, n_rows - n_cols)
            for m in range(3):
                x = _lsqr(row_of, col_of, vals, (n_rows, n_cols), b[:, m], damp)[0]
                solution[:, m] = x
                residuals = _matvec(row_of, col_of, vals, x, n_rows) - b[:, m]
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

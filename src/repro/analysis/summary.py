"""Whole-experiment reporting: one call, the full evaluation story.

``experiment_report`` takes the replay results of a policy suite and
renders the §5-style summary -- PNR per metric with SEM error bars (the
paper adds standard-error bars to every plot), relative improvements,
percentile improvements, relay mix, and the international/domestic
split -- as one text block.  Used by the CLI and handy in notebooks.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.pnr import pnr_breakdown, pnr_with_sem, relative_improvement
from repro.reporting import format_table
from repro.analysis.spatial import split_international
from repro.analysis.stats import percentile_improvement
from repro.netmodel.metrics import METRICS
from repro.simulation.replay import ReplayResult
from repro.telephony.call import CallOutcome

__all__ = ["experiment_report"]


def experiment_report(
    evaluated: dict[str, list[CallOutcome]],
    *,
    metric: str = "rtt_ms",
    baseline: str = "default",
    results: dict[str, ReplayResult] | None = None,
    percentiles: Sequence[float] = (50, 90),
) -> str:
    """Render the full comparison of a policy suite.

    ``evaluated`` maps strategy name to its evaluation-slice outcomes
    (from :meth:`repro.simulation.ExperimentPlan.evaluate`); ``baseline``
    names the reference strategy for improvements.  ``results`` optionally
    supplies the raw :class:`ReplayResult` objects so the relay mix can be
    reported.
    """
    if baseline not in evaluated:
        raise KeyError(f"baseline {baseline!r} missing from results")
    base_out = evaluated[baseline]
    base = pnr_breakdown(base_out)
    shown_metric = metric if metric in METRICS else "any"

    # --- PNR table with SEM error bars --------------------------------
    pnr_rows = []
    for name, outcomes in evaluated.items():
        cells = [name]
        for m in (*METRICS, "any"):
            value, sem = pnr_with_sem(outcomes, None if m == "any" else m)
            cells.append(f"{value:.3f}±{sem:.3f}")
        cells.append(
            f"{relative_improvement(base[shown_metric], pnr_breakdown(outcomes)[shown_metric]):.0f}%"
        )
        pnr_rows.append(cells)
    blocks = [
        format_table(
            ["strategy", "PNR(rtt)", "PNR(loss)", "PNR(jitter)", "PNR(any)",
             f"impr({shown_metric})"],
            pnr_rows,
            title=f"PNR by strategy ({len(base_out)} evaluated calls)",
        )
    ]

    # --- percentile improvements over the baseline ---------------------
    if shown_metric in METRICS:
        base_values = [o.metrics.get(shown_metric) for o in base_out]
        rows = []
        for name, outcomes in evaluated.items():
            if name == baseline or not outcomes:
                continue
            values = [o.metrics.get(shown_metric) for o in outcomes]
            improvements = percentile_improvement(base_values, values, percentiles)
            rows.append(
                [name, *(f"{improvements[float(p)]:.0f}%" for p in percentiles)]
            )
        if rows:
            blocks.append(format_table(
                ["strategy", *(f"p{int(p)} impr" for p in percentiles)],
                rows,
                title=f"Percentile improvements on {shown_metric} (Fig 12b method)",
            ))

    # --- international vs domestic ------------------------------------
    split_rows = []
    for name, outcomes in evaluated.items():
        intl, dom = split_international(outcomes)
        split_rows.append([
            name,
            f"{pnr_breakdown(intl)[shown_metric if shown_metric in METRICS else 'any']:.3f}",
            f"{pnr_breakdown(dom)[shown_metric if shown_metric in METRICS else 'any']:.3f}",
        ])
    blocks.append(format_table(
        ["strategy", "international PNR", "domestic PNR"],
        split_rows,
        title="International vs domestic (Fig 13)",
    ))

    # --- relay mix ------------------------------------------------------
    if results:
        mix_rows = []
        for name, result in results.items():
            mix = result.option_mix()
            mix_rows.append([
                name,
                f"{mix.get('direct', 0.0):.1%}",
                f"{mix.get('bounce', 0.0):.1%}",
                f"{mix.get('transit', 0.0):.1%}",
            ])
        blocks.append(format_table(
            ["strategy", "direct", "bounce", "transit"],
            mix_rows,
            title="Relay mix (§5.2)",
        ))

    return "\n\n".join(blocks)
